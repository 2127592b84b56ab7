import math

import numpy as np
import pytest
from goldens import golden_params

from polaromech import (BASIS_LABELS, assemble_drift, derive_constants,
                        diffusion_matrix, drift_diffusion, drift_matrix,
                        is_stable_eigen, paper_params, solve_steady_state,
                        spectral_abscissa)
from polaromech.dynamics import (characteristic_polynomial,
                                 is_stable_routh_hurwitz)

# frozen drift matrix at theta = pi/4, golden baseline, omega_m units
DRIFT_PI4 = np.array([
    [-0.74921893862148248, 0.90020440466028584, 0, 0, 0.24281064785972922, 0],
    [-0.90020440466028584, -0.74921893862148248, 0, 0, 0.20208558737736038, 0],
    [0, 0, -0.74921893862148248, 0.90020440466028584, 0.24281064785972922, 0],
    [0, 0, -0.90020440466028584, -0.74921893862148248, 0.20208558737736038, 0],
    [0, 0, 0, 0, 0, 1],
    [0.20208558737736038, -0.24281064785972922, 0.20208558737736038,
     -0.24281064785972922, -1, -1e-05],
])


def _drift(params=paper_params, **over):
    p = params(**over)
    dp = derive_constants(p)
    ss = solve_steady_state(dp, p)
    return drift_matrix(ss, dp), dp, ss


def test_basis_labels():
    assert BASIS_LABELS == ("x_te", "y_te", "x_tm", "y_tm", "q", "p")


def test_drift_matrix_frozen_values():
    a, _, _ = _drift(golden_params, polarization_angle=math.pi / 4)
    assert np.allclose(a, DRIFT_PI4, rtol=1e-9, atol=1e-12)


def test_drift_trace_is_total_damping():
    a, dp, _ = _drift(polarization_angle=0.7)
    w = dp.mech_freq
    expect = -4.0 * dp.cavity_decay / w - dp.mech_damping / w
    assert np.trace(a) == pytest.approx(expect, rel=1e-14)


def test_drift_structure():
    a, _, _ = _drift()
    # theta = 0: TM block decoupled from everything
    assert np.all(a[2:4, :2] == 0) and np.all(a[:2, 2:4] == 0)
    assert np.all(a[2:4, 4:] == 0) and np.all(a[4:, 2:4] == 0)
    # mechanical row: dq/dt = omega_m p only
    assert np.all(a[4, :5] == 0) and a[4, 5] == 1.0


def test_theta_swap_is_permutation_similarity():
    """Swapping TE and TM rows/cols maps A(theta) to A(pi/2 - theta)."""
    perm = [2, 3, 0, 1, 4, 5]
    for theta in [0.0, 0.2, 0.7, math.pi / 4, math.pi / 2]:
        a1, _, _ = _drift(polarization_angle=theta)
        a2, _, _ = _drift(polarization_angle=math.pi / 2 - theta)
        swapped = a1[np.ix_(perm, perm)]
        assert np.allclose(swapped, a2, rtol=1e-13, atol=1e-13)


def test_baseline_spectral_abscissa():
    a, _, _ = _drift(golden_params)
    assert spectral_abscissa(a) == pytest.approx(-0.0639564434600081, rel=1e-8)
    assert is_stable_eigen(a)


def test_diffusion_matrix():
    p = paper_params()
    dp = derive_constants(p)
    d = diffusion_matrix(dp)
    w = p.mech_freq
    k = dp.cavity_decay / w
    assert np.allclose(np.diag(d), [k, k, k, k, 0.0,
                                    dp.mech_damping / w
                                    * (2 * dp.thermal_occupancy + 1)])
    assert np.all(d == np.diag(np.diag(d)))


def test_drift_diffusion_bundle():
    p = paper_params()
    dp = derive_constants(p)
    ss = solve_steady_state(dp, p)
    dd = drift_diffusion(ss, dp)
    assert np.array_equal(dd.drift, drift_matrix(ss, dp))
    assert np.array_equal(dd.diffusion, diffusion_matrix(dp))


def test_characteristic_polynomial_against_numpy():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=(6, 6))
        mine = characteristic_polynomial(a)
        ref = np.poly(a)  # eigenvalue-based, independent of the trace recurrence
        assert np.allclose(mine, ref, rtol=1e-8, atol=1e-8 * np.abs(ref).max())


def test_characteristic_polynomial_known():
    # companion matrix of (s+1)(s+2)(s+3) = s^3 + 6 s^2 + 11 s + 6
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]])
    assert np.allclose(characteristic_polynomial(a), [1, 6, 11, 6], atol=1e-12)


def test_routh_hurwitz_stable_example():
    a = np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0])
    assert is_stable_routh_hurwitz(a) is True


def test_routh_hurwitz_unstable_example():
    a = np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, 0.5])
    assert is_stable_routh_hurwitz(a) is False


def test_routh_hurwitz_baseline():
    a, _, _ = _drift()
    assert is_stable_routh_hurwitz(a) is True


def test_routh_hurwitz_marginal_is_indeterminate():
    # pure imaginary pair: the array hits a zero row
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert is_stable_routh_hurwitz(a) is None


def test_routh_hurwitz_zero_pivot_is_indeterminate():
    # s^4 + s^3 + s^2 + s + 1: zero pivot with nonzero row remainder
    a = np.array([[0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [-1.0, -1.0, -1.0, -1.0]])
    assert is_stable_routh_hurwitz(a) is None
    assert not is_stable_eigen(a)


def test_routh_hurwitz_scale_invariance():
    # verdict must not depend on an overall positive rescale of A
    a, _, _ = _drift()
    assert is_stable_routh_hurwitz(1e-3 * a) is True
    assert is_stable_routh_hurwitz(1e3 * a) is True


def test_stability_margin_respected():
    a = np.diag([-1e-12, -1.0])
    # abscissa within the margin: counted as not (strictly) stable
    assert not is_stable_eigen(a)


def test_agreement_spot_checks():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.normal(size=(6, 6))
        a = a - (spectral_abscissa(a) - rng.uniform(-1.0, 1.0)) * np.eye(6)
        rh = is_stable_routh_hurwitz(a)
        if rh is None:
            continue
        assert rh == is_stable_eigen(a)
