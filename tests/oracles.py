"""Independent reference computations used by several test modules.

Everything here deliberately avoids the package's own solution paths:
the Lyapunov oracles integrate the propagator in the time domain, run
scipy's Bartels-Stewart (real Schur) solver, or solve the Kronecker system
at 50 digits; the filtered output is propagated over its window in the time
domain; the covariance generator builds matrices from a Williamson normal
form. The wide-band spectral route inverts the 6x6 TE/TM drift with numpy
instead of using the package's closed-form bright-mode resolvent. The two
dump writers are diagnostics that the package itself does not need.
"""

import math

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov


def brute_force_lyapunov(a, d, decades=13, order=12):
    """Time quadrature of V = integral_0^inf e^(At) D e^(A^T t) dt.

    Splits [0, T] into uniform panels short enough to resolve the fastest
    oscillation, with T set by the slowest decay. Propagator values come
    from one matrix exponential per panel offset, chained panel to panel.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    evs = np.linalg.eigvals(a)
    alpha = float(evs.real.max())
    assert alpha < 0, "oracle needs a stable A"
    t_end = decades * math.log(10.0) / (2.0 * abs(alpha))
    imax = float(np.abs(evs.imag).max())
    npanels = max(40, int(t_end * max(imax, abs(alpha)) / 2.0) + 1)
    dt = t_end / npanels

    x, wts = np.polynomial.legendre.leggauss(order)
    offsets = 0.5 * dt * (x + 1.0)
    e_off = np.stack([expm(a * t) for t in offsets])
    e_panel = expm(a * dt)

    total = np.zeros_like(d)
    left = np.eye(a.shape[0])
    for _ in range(npanels):
        ets = left[None] @ e_off
        integ = ets @ d[None] @ np.swapaxes(ets, 1, 2)
        total += 0.5 * dt * np.einsum("i,ijk->jk", wts, integ)
        left = left @ e_panel
    return total


def bartels_stewart_lyapunov(a, d):
    """Symmetrized scipy Bartels-Stewart solution of A V + V A^T = -D."""
    v = solve_continuous_lyapunov(np.asarray(a, dtype=float),
                                  -np.asarray(d, dtype=float))
    return 0.5 * (v + v.T)


def random_stable_pair(rng, n):
    """Random (A, D): A shifted to a drawn stability margin, D = M M^T."""
    a = rng.normal(size=(n, n))
    margin = rng.uniform(0.1, 1.0)
    alpha = float(np.linalg.eigvals(a).real.max())
    a = a - (alpha + margin) * np.eye(n)
    m = rng.normal(size=(n, n)) / math.sqrt(n)
    return a, m @ m.T


def _embed_unitary(u):
    """U(n) into the symplectic orthogonal group on (x1,p1,...,xn,pn)."""
    n = u.shape[0]
    o = np.zeros((2 * n, 2 * n))
    for j in range(n):
        for k in range(n):
            o[2 * j, 2 * k] = u[j, k].real
            o[2 * j, 2 * k + 1] = -u[j, k].imag
            o[2 * j + 1, 2 * k] = u[j, k].imag
            o[2 * j + 1, 2 * k + 1] = u[j, k].real
    return o


def _haar_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_physical_cm(rng, n_modes=2):
    """Physical covariance matrix from a random Williamson decomposition.

    V = S diag(nu_1, nu_1, ...) S^T with S = O1 Z O2 symplectic and all
    symplectic eigenvalues nu >= 1/2, so V + (i/2) Omega >= 0 by
    construction.
    """
    o1 = _embed_unitary(_haar_unitary(rng, n_modes))
    o2 = _embed_unitary(_haar_unitary(rng, n_modes))
    squeezes = rng.uniform(-1.2, 1.2, size=n_modes)
    z = np.diag(np.repeat(np.exp(squeezes), 2) ** np.tile([1.0, -1.0], n_modes))
    s = o1 @ z @ o2
    nus = 0.5 + rng.exponential(0.8, size=n_modes)
    v = s @ np.diag(np.repeat(nus, 2)) @ s.T
    return 0.5 * (v + v.T)


def two_mode_squeezed_cm(r):
    """CM of the two-mode squeezed vacuum, vacuum variance 1/2."""
    c, s = 0.5 * math.cosh(2.0 * r), 0.5 * math.sinh(2.0 * r)
    v = np.diag([c, c, c, c])
    v[0, 2] = v[2, 0] = s
    v[1, 3] = v[3, 1] = -s
    return v


def kron_lyapunov_mp(a, d, dps=50):
    """Kronecker solve of A V + V A^T = -D in dps-digit arithmetic (mpmath).

    The float inputs are taken as exact; the (n^2 x n^2) system is assembled
    and LU-solved entirely in mpmath, so the result carries none of the
    rounding of the package's double-precision solve. Returns an mpmath
    matrix.
    """
    import mpmath

    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    n = a.shape[0]
    with mpmath.workdps(dps):
        am = mpmath.matrix(a.tolist())
        coeff = mpmath.matrix(n * n, n * n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    # (A V)_ij = A_ik V_kj and (V A^T)_ij = V_ik A_jk
                    coeff[i * n + j, k * n + j] += am[i, k]
                    coeff[i * n + j, i * n + k] += am[j, k]
        rhs = mpmath.matrix([-x for x in d.reshape(-1).tolist()])
        x = mpmath.lu_solve(coeff, rhs)
        return mpmath.matrix([[x[i * n + j] for j in range(n)]
                              for i in range(n)])


def transfer_matrix(omega, a):
    """Matrix inverse of (i omega I + A); omega and A in consistent units.

    Raises numpy.linalg.LinAlgError at a singular point (marginal A with
    omega on an undamped resonance).
    """
    a = np.asarray(a, dtype=float)
    return np.linalg.inv(1j * float(omega) * np.eye(a.shape[0]) + a)


def resolvent_mp(omega, a, dps=50):
    """(i omega I + A)^(-1) LU-inverted in dps-digit arithmetic (mpmath).

    The float inputs are taken as exact; the result is rounded once to a
    complex numpy array.
    """
    import mpmath

    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    with mpmath.workdps(dps):
        z = mpmath.matrix(a.tolist())
        for i in range(n):
            z[i, i] += mpmath.mpc(0, float(omega))
        m = mpmath.inverse(z)
        return np.array([[complex(m[i, j]) for j in range(n)]
                         for i in range(n)])


def output_integrand_matrix_form(w, a, a_ref, d, spec):
    """Filtered-output difference integrand built as explicit matrix products.

    2 Re [T X D X^H T^H (full) - the same (reference)] per node, with
    X = (i w + A)^(-1) + P / (2 kappa) from numpy's inverse, T the filter
    transform as a full matrix (the one filter on every optical mode), and
    D the diffusion matrix, whose optical entries are kappa. The last two
    rows are the mechanics; the rest are optical quadrature pairs, so this
    serves the 4x4 bright-mode and the 6x6 TE/TM systems alike. Everything
    in omega_m units on w > 0, as (len(w), n, n).
    """
    from polaromech import filter_fourier

    w = np.asarray(w, dtype=float)
    n = a.shape[0]
    kappa_bar = d[0, 0]
    t = np.zeros((w.size, n, n), dtype=complex)
    sq = math.sqrt(2.0 * kappa_bar)
    gp = filter_fourier(spec, w)
    gm = np.conj(filter_fourier(spec, -w))
    fx, fy = 0.5 * (gp + gm), (gp - gm) / 2j
    for o in range(0, n - 2, 2):
        t[:, o, o] = t[:, o + 1, o + 1] = sq * fx
        t[:, o, o + 1] = -sq * fy
        t[:, o + 1, o] = sq * fy
    t[:, n - 2, n - 2] = t[:, n - 1, n - 1] = 1.0 / math.sqrt(2.0 * math.pi)
    proj = np.diag([1.0] * (n - 2) + [0.0, 0.0]) / (2.0 * kappa_bar)

    def h(drift):
        x = np.linalg.inv(1j * w[:, None, None] * np.eye(n) + drift) + proj
        y = t @ x
        return y @ d @ np.conj(np.swapaxes(y, 1, 2))

    return 2.0 * np.real(h(a) - h(a_ref))


def intracavity_cm_spectral(ss, dp):
    """Intracavity covariance by wide-band Markovian spectral integration.

    The Parseval equivalent of the Lyapunov solution on the 6x6 TE/TM
    drift: the integral of M D M^H / 2 pi over all frequencies, with M =
    (i w + A)^(-1) from numpy's inverse, on the package's graded panels. The
    neglected tail beyond the window is added in closed form as D / (pi W).
    """
    from polaromech import diffusion_matrix, drift_matrix, outputfield

    a = drift_matrix(ss, dp)
    d = diffusion_matrix(dp)
    if not np.linalg.eigvals(a).real.max() < 0.0:
        raise ValueError("cannot form the stationary state of an unstable system")
    cutoff = outputfield._FREQ_CUTOFF
    edges = outputfield._graded_edges(outputfield._eigen_features(a), cutoff)

    def evaluate(w):
        m = np.linalg.inv(1j * w[:, None, None] * np.eye(6) + a)
        h = m @ d @ np.conj(np.swapaxes(m, 1, 2))
        return 2.0 * np.real(h) / (2.0 * math.pi)

    val = outputfield._gauss_kronrod(edges, evaluate)
    v = val + d / (math.pi * cutoff)
    return 0.5 * (v + v.T)


def write_debug_dump(path, a, d, v, residual):
    """Dump (A, D, V, residual) as row-major matrix text, 17 significant digits."""
    blocks = (("drift", np.asarray(a, float)), ("diffusion", np.asarray(d, float)),
              ("covariance", np.asarray(v, float)))
    lines = []
    for name, m in blocks:
        lines.append("# %s %dx%d" % (name, m.shape[0], m.shape[1]))
        for row in m:
            lines.append(" ".join("%.17g" % x for x in row))
    lines.append("# residual")
    lines.append("%.17g" % residual)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def dump_integrand(path, ss, dp, spec):
    """Write output_cm's difference integrand on its first-pass nodes.

    One line per node: omega / omega_m, then the 16 row-major entries of the
    realified 4x4 bright-mode integrand, as delimited text.
    """
    from polaromech import outputfield

    *_, evaluate, edges = outputfield._output_problem(ss, dp, spec)
    half = 0.5 * np.diff(edges)
    nodes = ((edges[:-1] + half)[:, None]
             + half[:, None] * outputfield._KRONROD_NODES).ravel()
    h = evaluate(nodes)
    n = h.shape[1]
    with open(path, "w") as fh:
        fh.write("omega_over_omega_m," +
                 ",".join("h_%d%d" % (i, j) for i in range(n) for j in range(n))
                 + "\n")
        for wv, mat in zip(nodes, h):
            fh.write("%.17g," % wv
                     + ",".join("%.17g" % x for x in mat.ravel()) + "\n")
    return path


def van_loan_output_cm(a, d, epsilon, omega):
    """Covariance of (filtered TE out, filtered TM out, mechanics), in time.

    a and d are the drift and diffusion in omega_m units, basis
    (X_te, Y_te, X_tm, Y_tm, q, p); epsilon = omega_m tau and omega =
    Omega / omega_m. Each filtered mode is

        b(t) = tau^(-1/2) int_{t - tau}^t e^(-i Omega (t - s)) a_out(s) ds,

    a_out = sqrt(2 kappa) a - a_in with kappa = d[0, 0]. Over the window b
    starts at 0 and obeys b' = -i Omega b + a_out / sqrt(tau), so the state
    z = (x, X_b_te, Y_b_te, X_b_tm, Y_b_tm) is linear with drift A_z and
    white noise of rate Q = G D G^T, where G = (I; -P / sqrt(2 kappa tau))
    carries the input a_in = xi / sqrt(2 kappa) into the filters. Its
    covariance solves S' = A_z S + S A_z^T + Q from S(0) = (V, 0), V the
    stationary intracavity covariance. With vec(S) and a constant 1 stacked,
    this is linear and autonomous, so one Van Loan block exponential of
    [[A_z (+) A_z, vec Q], [0, 0]] over the window gives S(tau) exactly;
    the Kronecker sum has no growing mode, so nothing overflows.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    kappa = d[0, 0]
    proj = np.hstack([np.eye(4), np.zeros((4, 2))])
    az = np.zeros((10, 10))
    az[:6, :6] = a
    az[6:, :6] = math.sqrt(2.0 * kappa / epsilon) * proj
    for k in (6, 8):
        az[k, k + 1] = omega
        az[k + 1, k] = -omega
    g = np.vstack([np.eye(6), -proj / math.sqrt(2.0 * kappa * epsilon)])
    q = g @ d @ g.T
    n = az.shape[0]
    gen = np.zeros((n * n + 1, n * n + 1))
    gen[:-1, :-1] = np.kron(az, np.eye(n)) + np.kron(np.eye(n), az)
    gen[:-1, -1] = q.ravel()
    s0 = np.zeros((n, n))
    s0[:6, :6] = bartels_stewart_lyapunov(a, d)
    s = (expm(gen * epsilon) @ np.append(s0.ravel(), 1.0))[:-1].reshape(n, n)
    keep = [6, 7, 8, 9, 4, 5]
    s = s[np.ix_(keep, keep)]
    return 0.5 * (s + s.T)


def log_negativity_mp(v, idx, dps=50):
    """E_N of the two modes at quadrature indices idx of an mpmath CM.

    nu_-^2 = (Sigma - sqrt(Sigma^2 - 4 det V)) / 2 with
    Sigma = det A + det B - 2 det C, evaluated at dps digits.
    """
    import mpmath

    with mpmath.workdps(dps):
        m = mpmath.matrix([[v[i, j] for j in idx] for i in idx])
        sigma = (mpmath.det(m[0:2, 0:2]) + mpmath.det(m[2:4, 2:4])
                 - 2 * mpmath.det(m[0:2, 2:4]))
        det_v = mpmath.det(m)
        nu = mpmath.sqrt((sigma - mpmath.sqrt(sigma ** 2 - 4 * det_v)) / 2)
        return max(mpmath.mpf(0), -mpmath.log(2 * nu))
