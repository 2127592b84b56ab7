import math

import numpy as np
import pytest
from goldens import golden_params

from polaromech import (UnstableOperatingPointError, assemble_drift,
                        derive_constants, paper_params,
                        polarization_split, solve_steady_state,
                        spectral_abscissa)


def _solve(params=paper_params, **over):
    p = params(**over)
    dp = derive_constants(p)
    return p, dp, solve_steady_state(dp, p)


def test_baseline_displacement():
    p, dp, ss = _solve(golden_params)
    # converged self-consistent displacement, g0 q_s / omega_m just below 0.1
    assert ss.q_s == pytest.approx(14568.700049593311, rel=1e-10)
    assert p.single_photon_coupling * ss.q_s / p.mech_freq == pytest.approx(
        0.099795595339714183, rel=1e-10)
    assert ss.p_s == 0.0
    assert ss.root_count == 1


def test_baseline_amplitude_and_detuning():
    p, dp, ss = _solve(golden_params)
    assert ss.detuning == pytest.approx(56561510.888198547, rel=1e-12)
    assert ss.detuning == pytest.approx(
        p.cavity_detuning - p.single_photon_coupling * ss.q_s, rel=1e-12)
    assert ss.alpha_te.real == pytest.approx(29501.545602534361, rel=1e-10)
    assert ss.alpha_te.imag == pytest.approx(-35446.809906529814, rel=1e-10)
    assert ss.alpha_tm == 0.0


def test_amplitude_equation_self_consistent():
    # alpha_j = sqrt(2 kappa) S_j / (i Delta + kappa) at the effective detuning
    p, dp, ss = _solve(polarization_angle=0.4)
    ste, stm = polarization_split(dp.drive_amplitude, 0.4)
    k = dp.cavity_decay
    expect_te = math.sqrt(2.0 * k) * ste / (1j * ss.detuning + k)
    expect_tm = math.sqrt(2.0 * k) * stm / (1j * ss.detuning + k)
    assert ss.alpha_te == pytest.approx(expect_te, rel=1e-12)
    assert ss.alpha_tm == pytest.approx(expect_tm, rel=1e-12)


def test_displacement_equation_self_consistent():
    p, dp, ss = _solve(polarization_angle=1.0)
    g0 = p.single_photon_coupling
    expect = (g0 / p.mech_freq) * (abs(ss.alpha_te) ** 2 + abs(ss.alpha_tm) ** 2)
    assert ss.q_s == pytest.approx(expect, rel=1e-12)


def test_effective_couplings():
    p, dp, ss = _solve(golden_params)
    assert ss.coupling_te == pytest.approx(math.sqrt(2) * p.single_photon_coupling
                                           * ss.alpha_te, rel=1e-14)
    assert abs(ss.coupling_te) / p.mech_freq == pytest.approx(
        0.44675629898125484, rel=1e-10)
    assert ss.coupling_tm == 0.0


def test_coupling_split_with_angle():
    w = golden_params().mech_freq
    _, _, ss = _solve(golden_params, polarization_angle=math.pi / 4)
    # equal splitting: |G_te| = |G_tm| = |G(0)| / sqrt(2) at the shared q_s
    assert abs(ss.coupling_te) == pytest.approx(abs(ss.coupling_tm), rel=1e-14)
    assert abs(ss.coupling_te) / w == pytest.approx(0.44675629898125484
                                                    / math.sqrt(2), rel=1e-4)


def test_zero_drive_gives_zero_steady_state():
    import dataclasses
    p = paper_params()
    dp = derive_constants(p)
    dp0 = dataclasses.replace(dp, drive_amplitude=0.0)
    ss = solve_steady_state(dp0, p)
    assert ss.q_s == 0.0 and ss.alpha_te == 0.0 and ss.alpha_tm == 0.0
    assert ss.detuning == p.cavity_detuning
    assert ss.root_count == 1


def test_bistable_branch_selection():
    """Three real roots: pick the smallest dynamically stable one."""
    p = golden_params()
    p, dp, ss = _solve(golden_params, cavity_detuning=2.0 * p.mech_freq,
                       drive_power=0.285)
    assert ss.root_count == 3

    # rebuild the cubic's roots from scratch and check the selection rule
    w, g0 = p.mech_freq, p.single_photon_coupling
    k = dp.cavity_decay
    rhs = 2.0 * (k / w) * g0 ** 2 * dp.drive_amplitude ** 2 / w ** 3
    coeffs = [1.0, -2.0 * p.cavity_detuning / w,
              (p.cavity_detuning / w) ** 2 + (k / w) ** 2, -rhs]
    roots = sorted(r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-9)
    assert len(roots) == 3

    picked = g0 * ss.q_s / w
    stable_roots = []
    for x in roots:
        delta = p.cavity_detuning - x * w
        ste, stm = polarization_split(dp.drive_amplitude, p.polarization_angle)
        ate = math.sqrt(2 * k) * ste / (1j * delta + k)
        atm = math.sqrt(2 * k) * stm / (1j * delta + k)
        a = assemble_drift(k / w, delta / w,
                           math.sqrt(2) * g0 * ate / w,
                           math.sqrt(2) * g0 * atm / w, 1.0 / p.mech_quality)
        if spectral_abscissa(a) < -1e-10:
            stable_roots.append(x)
    assert stable_roots
    assert picked == pytest.approx(min(stable_roots), rel=1e-8)


def test_unstable_error_carries_all_roots():
    p = paper_params()
    with pytest.raises(UnstableOperatingPointError) as err:
        _solve(cavity_detuning=-1.0 * p.mech_freq)
    assert len(err.value.roots) >= 1
    assert all(r > 0 for r in err.value.roots)
    assert "unstable" in str(err.value)


def test_displacement_grows_with_power():
    qs = [ _solve(drive_power=pw)[2].q_s for pw in (0.01, 0.02, 0.03) ]
    assert qs[0] < qs[1] < qs[2]
