"""Reference computations the benchmark checks polaromech against.

Nothing here imports polaromech. The model is written out again from its
definitions: the mean-field fixed point as a cubic in the static mirror
displacement, the linearized drift of the Hamiltonian -hbar g0 a^dagger a q,
Markovian input noise, a dense Kronecker solve of A V + V A^T = -D, and the
log negativity from the eigenvalues of i Omega V^PT. Filtered output modes
come from one Van Loan block exponential over the filter window.

Every rate is in units of the mechanical frequency and every covariance uses
vacuum variance 1/2, basis (X_te, Y_te, X_tm, Y_tm, q, p).
"""

import math

import numpy as np
from scipy.constants import c as C_LIGHT, hbar as HBAR, k as K_B
from scipy.linalg import expm

MODE_INDEX = {"te": 0, "tm": 1, "mech": 2}
STABILITY_MARGIN = 1e-10
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class CheckFailed(AssertionError):
    """A program output disagrees with its reference or violates a property."""


def scaled_model(rec):
    """Rates in omega_m units from a flat config record (SI keys)."""
    w = rec["omega_m_rad_s"]
    omega_l = 2.0 * math.pi * C_LIGHT / rec["wavelength_m"]
    kappa = (omega_l + rec["delta_c_over_omega_m"] * w) / rec["q_cavity"]
    temp = rec["temperature_k"]
    n_th = 0.0 if temp == 0.0 else 1.0 / math.expm1(HBAR * w / (K_B * temp))
    return {
        "w": w,
        "g0": rec["g0_rad_s"],
        "kappa": kappa / w,
        "gamma": 1.0 / rec["q_mech"],
        "delta_c": rec["delta_c_over_omega_m"],
        "drive": math.sqrt(rec["power_w"] / (HBAR * omega_l)),
        "theta": rec["theta_rad"],
        "n_th": n_th,
    }


def _drift(m, detuning, g_te, g_tm):
    """Drift of (X_te, Y_te, X_tm, Y_tm, q, p) for complex couplings G_j."""
    a = np.zeros((6, 6))
    for k, g in ((0, g_te), (2, g_tm)):
        a[k:k + 2, k:k + 2] = [[-m["kappa"], detuning], [-detuning, -m["kappa"]]]
        a[k, 4], a[k + 1, 4] = -g.imag, g.real   # radiation pressure on the field
        a[5, k], a[5, k + 1] = g.real, g.imag     # field force on the mirror
    a[4, 5] = 1.0
    a[5, 4] = -1.0
    a[5, 5] = -m["gamma"]
    return a


def operating_branches(m):
    """Every real root of the displacement cubic with its drift matrix.

    Returns a list of (x, abscissa, drift) in ascending x, where
    x = g0 q_s / omega_m and abscissa is the largest real part of the drift
    eigenvalues.
    """
    w, g0, kap, dc = m["w"], m["g0"], m["kappa"], m["delta_c"]
    rhs = 2.0 * kap * g0 * g0 * m["drive"] ** 2 / w ** 3
    # x [(dc - x)^2 + kappa^2] = rhs
    roots = np.roots([1.0, -2.0 * dc, dc * dc + kap * kap, -rhs])
    span = max(1.0, float(np.max(np.abs(roots))))
    real = sorted(r.real for r in roots if abs(r.imag) <= 1e-7 * span)
    s_te = m["drive"] * math.cos(m["theta"])
    s_tm = m["drive"] * math.sin(m["theta"])
    out = []
    for x in real:
        det = dc - x
        amp = math.sqrt(2.0 * kap * w) / complex(kap * w, det * w)
        g_te = math.sqrt(2.0) * g0 * amp * s_te / w
        g_tm = math.sqrt(2.0) * g0 * amp * s_tm / w
        a = _drift(m, det, g_te, g_tm)
        out.append((x, float(np.linalg.eigvals(a).real.max()), a))
    return out


def stable_branch(m):
    """(x, drift) of the smallest stable root, or None when none is stable."""
    for x, abscissa, a in operating_branches(m):
        if abscissa < -STABILITY_MARGIN:
            return x, a
    return None


def diffusion(m):
    k = m["kappa"]
    return np.diag([k, k, k, k, 0.0, m["gamma"] * (2.0 * m["n_th"] + 1.0)])


def kron_lyapunov(a, d):
    """Dense solve of A V + V A^T = -D through its Kronecker form."""
    n = a.shape[0]
    eye = np.eye(n)
    v = np.linalg.solve(np.kron(a, eye) + np.kron(eye, a), -d.ravel())
    v = v.reshape(n, n)
    return 0.5 * (v + v.T)


def pair_block(v, pair):
    idx = []
    for name in pair:
        k = MODE_INDEX[name]
        idx += [2 * k, 2 * k + 1]
    return v[np.ix_(idx, idx)]


def log_negativity_eig(v4):
    """E_N of a 4x4 covariance from the eigenvalues of i Omega V^PT."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    omega = np.kron(np.eye(2), J2)
    nu = float(np.min(np.abs(np.linalg.eigvals(1j * omega @ flip @ v4 @ flip))))
    return max(0.0, -math.log(2.0 * nu))


def intracavity_cm(rec):
    """Stationary intracavity covariance, or None at an unstable point."""
    m = scaled_model(rec)
    branch = stable_branch(m)
    if branch is None:
        return None
    return kron_lyapunov(branch[1], diffusion(m))


def output_cm(rec, epsilon, omega_over_omega_m):
    """Covariance of (filtered TE out, filtered TM out, mechanics).

    Each filtered mode is b(t) = tau^(-1/2) int_{t-tau}^t e^{-i Omega (t-s)}
    a_out(s) ds with a_out = sqrt(2 kappa) a - a_in, so b' = -i Omega b +
    a_out / sqrt(tau) with b(t - tau) = 0. Appending b's quadratures to the
    fluctuation state gives an autonomous linear system driven by the same
    white noise; the covariance at the window end follows from (V_stationary,
    0) by the propagator and noise integral of a Van Loan exponential. The
    exponential is taken over a step short enough that e^{-A h} stays
    bounded, then doubled up to the full window. The mirror bath is
    Markovian here, gamma (2 n + 1), where the program uses the coloured
    spectrum; the two differ by terms that grow with temperature.
    """
    m = scaled_model(rec)
    branch = stable_branch(m)
    if branch is None:
        return None
    a = branch[1]
    d = diffusion(m)
    kap = m["kappa"]
    eps = float(epsilon)
    om = float(omega_over_omega_m)
    proj = np.zeros((4, 6))
    proj[:, :4] = np.eye(4)
    az = np.zeros((10, 10))
    az[:6, :6] = a
    az[6:, :6] = math.sqrt(2.0 * kap / eps) * proj
    az[6:8, 6:8] = az[8:10, 8:10] = om * J2
    # noise: xi on the cavity and mirror, -x_in / sqrt(tau) on the filters,
    # where x_in = xi_optical / sqrt(2 kappa)
    g = np.vstack([np.eye(6), -proj / math.sqrt(2.0 * kap * eps)])
    q = g @ d @ g.T
    doublings = max(0, math.ceil(math.log2(eps * np.abs(az).sum(axis=1).max())))
    h = eps / 2.0 ** doublings
    big = np.zeros((20, 20))
    big[:10, :10] = -az
    big[:10, 10:] = q
    big[10:, 10:] = az.T
    e = expm(big * h)
    prop = e[10:, 10:].T                 # e^{A h}
    noise = prop @ e[:10, 10:]           # int_0^h e^{A u} Q e^{A^T u} du
    for _ in range(doublings):
        noise = prop @ noise @ prop.T + noise
        prop = prop @ prop
    sigma0 = np.zeros((10, 10))
    sigma0[:6, :6] = kron_lyapunov(a, d)
    sigma = prop @ sigma0 @ prop.T + noise
    sigma = 0.5 * (sigma + sigma.T)
    keep = [6, 7, 8, 9, 4, 5]
    return sigma[np.ix_(keep, keep)]


def physicality_margin(v):
    """Smallest eigenvalue of V + (i/2) Omega; negative means unphysical."""
    n = v.shape[0] // 2
    return float(np.linalg.eigvalsh(v + 0.5j * np.kron(np.eye(n), J2)).min())


def expect_close(label, got, want, tol):
    if not abs(got - want) <= tol:
        raise CheckFailed("%s: program %.17g, reference %.17g, |diff| %.3g > %.3g"
                          % (label, got, want, abs(got - want), tol))
