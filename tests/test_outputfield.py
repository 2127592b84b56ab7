import math

import numpy as np
import pytest
from goldens import golden_params
from oracles import (dump_integrand, intracavity_cm_spectral,
                     output_integrand_matrix_form, resolvent_mp,
                     transfer_matrix, van_loan_output_cm)

from polaromech import (FilterSpec, SteadyState, derive_constants,
                        diffusion_matrix, drift_matrix, filter_fourier,
                        intracavity_cm, log_negativity, operating_point,
                        output_cm, output_cm_at, outputfield, paper_params,
                        reduce_bipartite, spectral_abscissa, validate_cm)
from polaromech.dynamics import bright_drift_diffusion

TWO_PI = 2.0 * math.pi


def _baseline(params=paper_params):
    p = params()
    dp, ss = operating_point(p)
    return p, dp, ss


# --- filter ---

def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(central_freq=0.0, filter_time=-1.0, epsilon=1.0)
    with pytest.raises(ValueError):
        FilterSpec(central_freq=0.0, filter_time=1.0, epsilon=0.0)
    with pytest.raises(ValueError):
        FilterSpec(central_freq=float("inf"), filter_time=1.0, epsilon=1.0)


def test_filter_spec_constructors():
    w = TWO_PI * 10e6
    s = FilterSpec.from_epsilon(10.0, -w, w)
    assert s.filter_time == pytest.approx(10.0 / w, rel=1e-15)
    assert s.central_freq == -w
    assert FilterSpec.stokes(10.0, w) == s


def test_filter_peak_value_and_phase():
    s = FilterSpec(central_freq=3.0, filter_time=2.0, epsilon=2.0)
    # at the central frequency: sinc(0) = 1, zero phase
    assert filter_fourier(s, 3.0) == pytest.approx(math.sqrt(2.0 / TWO_PI))
    # first sinc zero at (w - Omega) tau / 2 = pi
    assert abs(filter_fourier(s, 3.0 + TWO_PI / 2.0)) < 1e-15


def test_filter_normalization():
    # integral of |g|^2 over frequency is 1 for any (Omega, tau)
    s = FilterSpec(central_freq=-1.0, filter_time=7.0, epsilon=7.0)
    w = np.linspace(-400.0, 400.0, 800001)
    g = filter_fourier(s, w)
    total = np.trapezoid(np.abs(g) ** 2, w)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_filter_vectorized_matches_scalar():
    s = FilterSpec(central_freq=0.5, filter_time=3.0, epsilon=3.0)
    grid = np.array([-1.0, 0.0, 0.5, 2.0])
    vec = filter_fourier(s, grid)
    for i, wv in enumerate(grid):
        assert vec[i] == filter_fourier(s, float(wv))


# --- transfer matrix ---

def test_transfer_matrix_inverts():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6)) - 2.0 * np.eye(6)
    w = 1.3
    m = transfer_matrix(w, a)
    assert np.allclose(m @ (1j * w * np.eye(6) + a), np.eye(6), atol=1e-12)


def test_transfer_matrix_singular_at_undamped_resonance():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])  # poles at +-i
    with pytest.raises(np.linalg.LinAlgError):
        transfer_matrix(1.0, a)


# --- closed-form resolvent ---

def _resolvent_points():
    """Stable scaled bright-mode drifts: theta, Q_c, the overdamped corner,
    a three-root branch."""
    theta = float(np.random.default_rng(11).uniform(0.0, math.pi / 2))
    overrides = [{"polarization_angle": t, "optical_quality": q}
                 for t in (0.0, math.pi / 2, theta) for q in (1e6, 1e7, 1e8, 1e9)]
    w = paper_params().mech_freq
    overrides += [{"polarization_angle": theta, "optical_quality": q,
                   "cavity_detuning": 0.6 * w} for q in (1e6, 1e7, 1e8, 1e9)]
    points = [operating_point(paper_params(**over)) for over in overrides]
    g = golden_params()
    dp, ss = operating_point(golden_params(cavity_detuning=2.0 * g.mech_freq,
                                           drive_power=0.285))
    assert ss.root_count == 3
    points.append((dp, ss))
    return [bright_drift_diffusion(ss, dp).drift for dp, ss in points]


def test_resolvent_matches_inverse_oracle():
    # Two backward-stable inverses may differ by about eps * cond(i w + A)
    # of max|M|. That is above 1e-12 only on the mechanical resonance of the
    # Q_c = 1e6 drifts (cond up to ~1e7), where the closed form is the one
    # nearer the truth (next test); 2.4 eps cond is the largest seen.
    eps = np.finfo(float).eps
    for a in _resolvent_points():
        assert spectral_abscissa(a) < 0.0
        resonances = np.abs(np.linalg.eigvals(a).imag)
        grid = np.concatenate([np.linspace(-4.0, 4.0, 81), resonances,
                               -resonances, [0.0, 40.0, -40.0]])
        m = outputfield._resolvent(grid, a)
        assert m.shape == (4, 4, grid.size)
        for i, wv in enumerate(grid):
            oracle = transfer_matrix(wv, a)
            cond = np.linalg.cond(1j * wv * np.eye(4) + a)
            tol = max(1e-12, 8.0 * eps * cond) * np.abs(oracle).max()
            assert np.abs(m[:, :, i] - oracle).max() <= tol


def test_resolvent_at_sharp_mechanical_resonance_high_precision():
    # where the comparison above is conditioning-limited, check the closed
    # form against a 50-digit inverse instead (numpy's inv is 8.7e-12 off
    # at the worst of these nodes, the closed form 3.9e-12)
    for a in _resolvent_points():
        if -a[0, 0] < 30.0:        # Q_c = 1e6 only: kappa ~ 37 omega_m
            continue
        evs = np.linalg.eigvals(a)
        mech = evs[np.argmin(np.abs(evs.real))]
        wv = abs(mech.imag)
        exact = resolvent_mp(wv, a)
        m = outputfield._resolvent(np.array([wv]), a)[:, :, 0]
        assert np.abs(m - exact).max() <= 1e-11 * np.abs(exact).max()


def test_resolvent_rejects_foreign_structure():
    _, dp, ss = _baseline()
    a = bright_drift_diffusion(ss, dp).drift
    w = np.array([0.5, 1.0])
    for i, j in ((0, 3), (2, 0), (1, 1), (0, 0)):
        bad = a.copy()
        bad[i, j] += 0.25
        with pytest.raises(ValueError):
            outputfield._resolvent(w, bad)
    with pytest.raises(ValueError):
        outputfield._resolvent(w, a[2:, 2:])
    with pytest.raises(ValueError):
        outputfield._resolvent(w, drift_matrix(ss, dp))


def _rotation(ss):
    """R(theta) on the 6x6 basis, (bright, dark, mech) -> (te, tm, mech)."""
    c, s = ss.cos_theta, ss.sin_theta
    r = np.eye(6)
    r[0, 0] = r[1, 1] = r[2, 2] = r[3, 3] = c
    r[0, 2] = r[1, 3] = -s
    r[2, 0] = r[3, 1] = s
    return r


def test_difference_integrand_matches_matrix_form():
    # the 4x4 bright-mode integrand against explicit products on the same
    # system, and, rotated to TE/TM with a zero dark block, against explicit
    # products on the model's 6x6 drift
    for over, spec in (({}, FilterSpec(-1.0, 10.0, 10.0)),
                       ({"polarization_angle": 0.7, "temperature": 0.0},
                        FilterSpec(-0.4, 3.0, 3.0)),
                       ({"optical_quality": 1e6, "cavity_detuning":
                         0.6 * paper_params().mech_freq},
                        FilterSpec(-1.0, 10.0, 10.0))):
        dp, ss = operating_point(paper_params(**over))
        a, a_ref, d = outputfield._scaled_setup(ss, dp)
        assert np.array_equal(np.diag(d), np.diag(diffusion_matrix(dp))[[0, 1, 4, 5]])
        resonances = np.abs(np.linalg.eigvals(a).imag)
        w = np.sort(np.concatenate([np.linspace(1e-3, 8.0, 400), resonances]))
        args = (w, a, a_ref, d, spec)
        h = outputfield._difference_integrand(*args)
        oracle = output_integrand_matrix_form(*args)
        assert np.abs(h - oracle).max() <= 1e-12 * np.abs(oracle).max()

        a6 = drift_matrix(ss, dp)
        a6_ref = a6.copy()
        a6_ref[:4, 4] = a6_ref[5, :4] = 0.0
        oracle6 = output_integrand_matrix_form(w, a6, a6_ref,
                                               diffusion_matrix(dp), spec)
        h6 = np.zeros((w.size, 6, 6))
        h6[np.ix_(range(w.size), [0, 1, 4, 5], [0, 1, 4, 5])] = h
        r = _rotation(ss)
        h6 = r @ h6 @ r.T
        assert np.abs(h6 - oracle6).max() <= 1e-12 * np.abs(oracle6).max()


def test_output_cm_uses_no_matrix_inverse(monkeypatch):
    p, dp, ss = _baseline()

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    spec = FilterSpec.stokes(10.0, dp.mech_freq)
    assert validate_cm(output_cm(ss, dp, spec)).physical


# --- output covariance ---

def test_output_decoupled_optical_blocks_exact_vacuum():
    # zero effective coupling: filtered output is exactly vacuum
    p, dp, _ = _baseline()
    ss0 = SteadyState(alpha=0j, q_s=0.0, p_s=0.0,
                      detuning=p.cavity_detuning, coupling=0j,
                      cos_theta=1.0, sin_theta=0.0)
    spec = FilterSpec.stokes(10.0, dp.mech_freq)
    v = np.asarray(output_cm(ss0, dp, spec))
    assert np.array_equal(v[:4, :4], 0.5 * np.eye(4))
    assert np.all(v[:4, 4:] == 0.0)
    # mechanics stays thermal
    assert v[4, 4] == pytest.approx(dp.thermal_occupancy + 0.5, rel=1e-6)
    assert v[5, 5] == pytest.approx(dp.thermal_occupancy + 0.5, rel=1e-6)


def test_output_undriven_tm_block_exact_vacuum():
    # theta = 0 leaves TM undriven; its filtered output block is pure vacuum
    p, dp, ss = _baseline()
    spec = FilterSpec.stokes(10.0, dp.mech_freq)
    v = np.asarray(output_cm(ss, dp, spec))
    assert np.array_equal(v[2:4, 2:4], 0.5 * np.eye(2))
    assert np.all(v[2:4, :2] == 0.0) and np.all(v[2:4, 4:] == 0.0)


def test_output_undriven_te_block_exact_vacuum():
    # theta = pi/2 leaves TE undriven; its filtered output block is pure vacuum
    p = paper_params(polarization_angle=math.pi / 2)
    dp, ss = operating_point(p)
    spec = FilterSpec.stokes(10.0, dp.mech_freq)
    v = np.asarray(output_cm(ss, dp, spec))
    assert np.array_equal(v[:2, :2], 0.5 * np.eye(2))
    assert np.all(v[:2, 2:] == 0.0)


def _van_loan_points():
    """(overrides, epsilon, Omega/omega_m): each base point meets every
    epsilon and every Omega once, and the fifteen together cover all nine
    (epsilon, Omega) pairs."""
    theta = float(np.random.default_rng(17).uniform(0.0, math.pi / 2))
    w = paper_params().mech_freq
    bases = ({"polarization_angle": 0.0},
             {"polarization_angle": math.pi / 2},
             {"polarization_angle": theta},
             {"polarization_angle": theta, "temperature": 0.0},
             {"polarization_angle": theta, "optical_quality": 1e6,
              "cavity_detuning": 0.6 * w})
    epsilons, omegas = (1.0, 10.0, 20.0), (-1.0, -0.5, 0.0)
    return [(over, eps, omegas[(i + j) % 3])
            for i, over in enumerate(bases) for j, eps in enumerate(epsilons)]


def test_output_cm_matches_van_loan_oracle():
    # the quadrature against an exact time-domain propagation over the
    # filter window with the same Markovian bath
    for over, eps, om in _van_loan_points():
        v, dp, ss = output_cm_at(paper_params(**over), eps, om)
        exact = van_loan_output_cm(drift_matrix(ss, dp), diffusion_matrix(dp),
                                   eps, om)
        assert np.abs(np.asarray(v) - exact).max() <= 1e-6 * np.abs(exact).max()


def test_output_entanglement_epsilon_scan():
    """Frozen values of E_N for the Stokes-filtered TE output vs bandwidth."""
    p = golden_params()
    expected = {1: 0.11016, 2: 0.21495, 5: 0.39656, 10: 0.48598, 20: 0.38728}
    for eps, ref in expected.items():
        v, _, _ = output_cm_at(p, eps, -1.0)
        en = log_negativity(reduce_bipartite(v, ("te", "mech")))
        assert en == pytest.approx(ref, abs=1e-3)


def test_output_beats_intracavity():
    p = paper_params()
    v_in, _, _ = intracavity_cm(p)
    en_in = log_negativity(reduce_bipartite(v_in, ("te", "mech")))
    v_out, _, _ = output_cm_at(p, 10.0, -1.0)
    en_out = log_negativity(reduce_bipartite(v_out, ("te", "mech")))
    assert en_out > en_in


def test_stokes_carries_the_entanglement():
    p = golden_params()
    v_red, _, _ = output_cm_at(p, 10.0, -1.0)
    v_blue, _, _ = output_cm_at(p, 10.0, +1.0)
    en_red = log_negativity(reduce_bipartite(v_red, ("te", "mech")))
    en_blue = log_negativity(reduce_bipartite(v_blue, ("te", "mech")))
    assert en_red > 0.3
    assert en_blue == 0.0


def test_output_cm_is_physical():
    p = paper_params(polarization_angle=0.5)
    v, _, _ = output_cm_at(p, 5.0, -1.0)
    rep = validate_cm(v)
    assert rep.physical
    assert np.asarray(v).shape == (6, 6)


def test_inconsistent_epsilon_rejected():
    p, dp, ss = _baseline()
    bad = FilterSpec(central_freq=-dp.mech_freq,
                     filter_time=10.0 / dp.mech_freq, epsilon=11.0)
    with pytest.raises(ValueError):
        output_cm(ss, dp, bad)


def test_unstable_point_rejected():
    p = paper_params()
    dp = derive_constants(p)
    # blue-detuned strong-coupling steady state built by hand
    ss = SteadyState(alpha=4.6e4 + 0j, q_s=1.2e4, p_s=0.0,
                     detuning=-p.mech_freq, coupling=0.45 * p.mech_freq + 0j,
                     cos_theta=1.0, sin_theta=0.0)
    spec = FilterSpec.stokes(10.0, dp.mech_freq)
    with pytest.raises(ValueError):
        output_cm(ss, dp, spec)


def test_gauss_kronrod_tables_are_exact():
    # K15 integrates x^k on [-1, 1] exactly up to k = 22 and G7 up to
    # k = 13; the Gauss nodes are the Kronrod nodes at odd indices
    x = outputfield._KRONROD_NODES
    wk, wg = outputfield._KRONROD_WEIGHTS, outputfield._GAUSS_WEIGHTS
    assert x.shape == wk.shape == (15,) and wg.shape == (7,)
    assert np.all(np.diff(x) > 0.0)
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(wk @ x ** k - exact) <= 1e-15
        if k <= 13:
            assert abs(wg @ x[1::2] ** k - exact) <= 1e-15
    legendre_x, legendre_w = np.polynomial.legendre.leggauss(7)
    assert np.abs(x[1::2] - legendre_x).max() <= 1e-15
    assert np.abs(wg - legendre_w).max() <= 1e-15


def _nodes_seen(monkeypatch, params, epsilon):
    seen = []
    integrand = outputfield._difference_integrand

    def spy(w, *args):
        seen.append(w.size)
        return integrand(w, *args)

    monkeypatch.setattr(outputfield, "_difference_integrand", spy)
    output_cm_at(params, epsilon, -1.0)
    return sum(seen)


def test_overdamped_corner_costs_few_times_a_typical_point(monkeypatch):
    # refinement is local: the sharp Q_c = 1e6 corner bisects only the
    # panels that need it instead of doubling the whole grid
    typical = _nodes_seen(monkeypatch, paper_params(), 10.0)
    corner = _nodes_seen(monkeypatch, paper_params(
        optical_quality=1e6, temperature=0.02, polarization_angle=0.0), 5.0)
    assert corner <= 5 * typical


def test_nonconvergence_raises_with_achieved_change(monkeypatch):
    p, dp, ss = _baseline()
    spec = FilterSpec.stokes(10.0, dp.mech_freq)
    monkeypatch.setattr(outputfield, "_TOLERANCE", 1e-30)
    monkeypatch.setattr(outputfield, "_MAX_DEPTH", 1)
    with pytest.raises(ArithmeticError) as err:
        output_cm(ss, dp, spec)
    assert "did not converge" in str(err.value)
    assert "moved entries by" in str(err.value)


def test_nonfinite_integrand_stops_on_first_pass(monkeypatch):
    p, dp, ss = _baseline()
    spec = FilterSpec.stokes(10.0, dp.mech_freq)
    passes = []

    def nan_integrand(w, *args):
        passes.append(w.size)
        return np.full((w.size, 4, 4), np.nan)

    monkeypatch.setattr(outputfield, "_difference_integrand", nan_integrand)
    with pytest.raises(ArithmeticError, match="non-finite"):
        output_cm(ss, dp, spec)
    assert len(passes) == 1


# --- wide-band Markovian consistency ---

def test_spectral_route_reproduces_lyapunov():
    for over in ({}, {"polarization_angle": 0.9},
                 {"cavity_detuning": 0.7 * paper_params().mech_freq}):
        p = paper_params(**over)
        dp, ss = operating_point(p)
        v_spec = np.asarray(intracavity_cm_spectral(ss, dp))
        v_lyap = np.asarray(intracavity_cm(p)[0])
        rel = np.abs(v_spec - v_lyap).max() / np.abs(v_lyap).max()
        assert rel < 1e-4


# --- diagnostics ---

def test_dump_integrand(tmp_path):
    p, dp, ss = _baseline()
    spec = FilterSpec.stokes(2.0, dp.mech_freq)
    path = tmp_path / "integrand.csv"
    dump_integrand(path, ss, dp, spec)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "omega_over_omega_m"
    assert len(header) == 17
    data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    assert data.shape[1] == 17
    w = data[:, 0]
    assert np.all(np.diff(w) > 0) and w.min() > 0.0


def test_dump_samples_output_cm_first_pass(tmp_path, monkeypatch):
    p, dp, ss = _baseline()
    spec = FilterSpec.stokes(2.0, dp.mech_freq)
    passes = []
    integrand = outputfield._difference_integrand

    def spy(w, *args):
        h = integrand(w, *args)
        passes.append((w, h))
        return h

    monkeypatch.setattr(outputfield, "_difference_integrand", spy)
    output_cm(ss, dp, spec)
    nodes, h = passes[0]
    path = tmp_path / "integrand.csv"
    dump_integrand(path, ss, dp, spec)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], nodes)
    assert np.array_equal(data[:, 1:], np.asarray(h).reshape(len(nodes), 16))
