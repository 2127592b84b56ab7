import numpy as np
import pytest
from oracles import (bartels_stewart_lyapunov, brute_force_lyapunov,
                     kron_lyapunov_mp, log_negativity_mp, random_stable_pair,
                     write_debug_dump)

from polaromech import (CovarianceMatrix, LyapunovError, derive_constants,
                        drift_diffusion, log_negativity, lyapunov,
                        lyapunov_residual, paper_params, reduce_bipartite,
                        solve_lyapunov, solve_steady_state)


def _baseline_system(**over):
    p = paper_params(**over)
    dp = derive_constants(p)
    ss = solve_steady_state(dp, p)
    dd = drift_diffusion(ss, dp)
    return dd.drift, dd.diffusion


def test_scalar_decay_exact():
    # A = -I, D = 2I: V = I
    a = -np.eye(6)
    d = 2.0 * np.eye(6)
    v = solve_lyapunov(a, d)
    assert np.allclose(np.asarray(v), np.eye(6), atol=1e-14)


def test_baseline_residual():
    a, d = _baseline_system()
    v = solve_lyapunov(a, d)
    assert lyapunov_residual(a, d, np.asarray(v)) < 1e-9


def test_baseline_tm_block_is_vacuum():
    # theta = 0: undriven TM mode stays in vacuum, decoupled from the rest
    a, d = _baseline_system()
    m = np.asarray(solve_lyapunov(a, d))
    assert np.allclose(m[2:4, 2:4], 0.5 * np.eye(2), atol=1e-12)
    assert np.abs(m[2:4, :2]).max() < 1e-12
    assert np.abs(m[2:4, 4:]).max() < 1e-12


def test_result_is_covariance_matrix_wrapper():
    a, d = _baseline_system()
    v = solve_lyapunov(a, d)
    assert isinstance(v, CovarianceMatrix)
    assert v.modes == ("te", "tm", "mech")
    m = np.asarray(v)
    assert m.shape == (6, 6)
    assert np.array_equal(m, m.T)
    with pytest.raises(ValueError):
        np.asarray(v)[0, 0] = 9.0  # read-only


def test_mechanical_variance_cooled_and_thermal_limits():
    # baseline red-detuned drive cools the mechanics far below the bath
    a, d = _baseline_system()
    p = paper_params()
    nm = derive_constants(p).thermal_occupancy
    m = np.asarray(solve_lyapunov(a, d))
    assert 0.5 <= m[4, 4] < 2.0
    assert m[4, 4] < 1e-2 * (nm + 0.5)

    # with the coupling switched off the mechanics stays at n_m + 1/2
    a0, d0 = _baseline_system(single_photon_coupling=1e-6)
    m0 = np.asarray(solve_lyapunov(a0, d0))
    assert m0[4, 4] == pytest.approx(nm + 0.5, rel=1e-6)
    assert m0[5, 5] == pytest.approx(nm + 0.5, rel=1e-6)


def test_agrees_with_time_quadrature():
    rng = np.random.default_rng(11)
    for n in (4, 6):
        for _ in range(5):
            a, d = random_stable_pair(rng, n)
            v = np.asarray(solve_lyapunov(a, d))
            ref = brute_force_lyapunov(a, d)
            assert np.abs(v - ref).max() <= 1e-6 * np.abs(ref).max()


def test_agrees_with_bartels_stewart_route():
    rng = np.random.default_rng(12)
    a, d = random_stable_pair(rng, 6)
    v1 = np.asarray(solve_lyapunov(a, d))
    v2 = bartels_stewart_lyapunov(a, d)
    assert np.allclose(v1, v2, rtol=1e-10, atol=1e-12)


def test_solution_unique_under_basis_permutation():
    # permuting the basis before solving and un-permuting after is a no-op
    a, d = _baseline_system()
    perm = np.array([4, 5, 0, 1, 2, 3])
    pmat = np.eye(6)[perm]
    v = np.asarray(solve_lyapunov(a, d))
    v_perm = bartels_stewart_lyapunov(pmat @ a @ pmat.T, pmat @ d @ pmat.T)
    assert np.allclose(pmat.T @ v_perm @ pmat, v, rtol=1e-9, atol=1e-11)


def test_unstable_drift_rejected():
    a = np.diag([0.5, -1.0, -1.0, -1.0, -1.0, -1.0])
    with pytest.raises(ValueError):
        solve_lyapunov(a, np.eye(6))


def test_marginal_drift_rejected():
    a = np.zeros((6, 6))
    a[0, 1], a[1, 0] = 1.0, -1.0
    a -= 1e-14 * np.eye(6)
    with pytest.raises(ValueError):
        solve_lyapunov(a, np.eye(6))


def test_residual_metric():
    a = -np.eye(2)
    d = 2.0 * np.eye(2)
    assert lyapunov_residual(a, d, np.eye(2)) < 1e-15
    # off solution by 10% of D scale
    assert lyapunov_residual(a, d, 1.1 * np.eye(2)) == pytest.approx(0.1, rel=1e-10)


def test_debug_dump_round_trips(tmp_path):
    a, d = _baseline_system()
    v = solve_lyapunov(a, d)
    res = lyapunov_residual(a, d, np.asarray(v))
    path = tmp_path / "lyap.txt"
    write_debug_dump(path, a, d, np.asarray(v), res)
    text = path.read_text()
    assert "drift" in text and "diffusion" in text and "covariance" in text
    rows = [l.split() for l in text.splitlines()
            if l and not l.startswith("#")]
    rows = [r for r in rows if len(r) == 6]  # matrix rows; residual line is 1-wide
    vals = np.array([[float(x) for x in r] for r in rows])
    assert vals.shape == (18, 6)
    # full precision: parse back bit-exact
    assert np.array_equal(vals[12:], np.asarray(v))


@pytest.mark.parametrize("q_c", [2e5, 5e5, np.nextafter(5e5, 0.0), 9.44e5])
def test_overdamped_cavity_matches_high_precision_oracle(q_c):
    # Low Q_c at detuning 0.6 omega_m leaves the drift barely stable
    # (abscissa ~ -gamma_m / 2), so a raw float solution can be asymmetric
    # at rounding level; the symmetrized solution is still correct and must
    # be returned, with its tiny entanglement intact.
    pytest.importorskip("mpmath")
    w = paper_params().mech_freq
    a, d = _baseline_system(cavity_detuning=0.6 * w,
                            optical_quality=float(q_c))
    v = solve_lyapunov(a, d)
    ref_mp = kron_lyapunov_mp(a, d)
    ref = np.array(ref_mp.tolist(), dtype=float)
    assert np.abs(np.asarray(v) - ref).max() <= 1e-9 * np.abs(ref).max()
    en = log_negativity(reduce_bipartite(v, ("te", "mech")))
    en_ref = float(log_negativity_mp(ref_mp, (0, 1, 4, 5)))
    assert en_ref > 0.0
    assert en == pytest.approx(en_ref, rel=0.0, abs=1e-14)


def test_non_finite_solve_rejected(monkeypatch):
    a, d = _baseline_system()
    monkeypatch.setattr(lyapunov, "_solve_vectorized",
                        lambda a, d: np.full(np.shape(a), np.nan))
    with pytest.raises(LyapunovError):
        solve_lyapunov(a, d)
