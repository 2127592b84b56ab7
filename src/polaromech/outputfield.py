"""Covariance matrix of filtered cavity output modes, by spectral quadrature.

Both polarizations' output fields are projected onto one causal filter mode
(central frequency Omega, window length tau); the mechanical mode rides
along unfiltered. The filter is linear and shared, so the filtered TE and TM
modes are R(theta) applied to the filtered bright and dark modes, and the
dark mode, driven by its own vacuum input alone, leaves the cavity as
vacuum. The quadrature therefore runs on the 4x4 bright-mode system
(X_b, Y_b, q, p) of bright_drift_diffusion, and polarization_cm rotates the
result to TE/TM, as on the intracavity route.

The noise is the Markovian one of the Lyapunov route: vacuum input kappa on
each optical quadrature and the mirror bath gamma_m (2 n_m + 1) on p. The
stationary output covariance is the frequency integral of 2 Re h(w) over
w >= 0, with

    h_ij(w) = sum_k d_k y_ik(w) conj(y_jk(w)),    Y = T [M + P/(2 kappa)],

M(w) = (i w + A)^(-1) the resolvent of the bright-mode drift, P the optical
projector, d_k the three nonzero diagonal entries of the diffusion matrix,
and T the filter's 2x2 quadrature block on the optical rows and a flat
1/sqrt(2 pi) on the mechanical rows.

The resolvent is written in closed form: one optical block and a mechanical
Schur complement. The optical block of i w + A is [[s, Delta], [-Delta, s]],
with s = i w - kappa and Delta the effective detuning, whose inverse is
[[s, -Delta], [Delta, s]] / (s^2 + Delta^2). The mechanics couples in only
through the q column c and the p row b, so the Schur complement on (q, p) is
the bare mechanical 2x2 block with one scalar sigma(w) = b^T Z_o^(-1) c
subtracted from its (p, q) entry. Every entry of M is then a few length-N
array operations on an entry-major (4, 4, N) stack.

Numerically the integral is evaluated as a difference against its
zero-coupling reference, whose covariance is known exactly: the filtered
optical output is vacuum, I/2 by filter normalization, and the uncoupled
Markovian oscillator is thermal, (n_m + 1/2) I. The reference's resolvent
is Z_o^(-1) and the bare mechanical inverse, so its Gram is block-diagonal.
The difference integrand vanishes identically on decoupled blocks, so pure
modes come out exactly pure instead of carrying quadrature truncation
noise, and its high-frequency tail falls off two powers faster. Panels
graded around the resonances are integrated with the G7/K15 Gauss-Kronrod
pair, and only those whose two rules disagree too much are bisected.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (STABILITY_MARGIN, assemble_bright_drift,
                       bright_drift_diffusion, spectral_abscissa)
from .gaussian import validate_cm
from .lyapunov import polarization_cm
from .params import _checked

TWO_PI = 2.0 * math.pi

# Quadrature settings. The window is at least _FREQ_CUTOFF mechanical
# frequencies wide (and covers the filter main lobes); panels are bisected
# at most _MAX_DEPTH times (see _gauss_kronrod).
_FREQ_CUTOFF = 40.0
_TOLERANCE = 1e-9
_MAX_DEPTH = 8

# Gauss-Kronrod pair on [-1, 1], QUADPACK's qk15 to double precision: the
# positive Kronrod nodes, and the Kronrod and Gauss weights from the ends to
# the centre; the 7 Gauss nodes are the Kronrod nodes at odd indices.
_XK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
       0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
       0.20778495500789848)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
       0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
       0.20443294007529889, 0.20948214108472782)
_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
       0.4179591836734694)
_KRONROD_NODES = np.array([-x for x in _XK] + [0.0] + list(_XK[::-1]))
_KRONROD_WEIGHTS = np.array(_WK + _WK[-2::-1])
_GAUSS_WEIGHTS = np.array(_WG + _WG[-2::-1])


@dataclass(frozen=True)
class FilterSpec:
    """Causal single-mode output filter.

    central_freq is the detection frequency Omega in rad/s (negative for the
    Stokes sideband, Omega = -omega_m); filter_time is the window length tau
    in seconds; epsilon = omega_m * tau is the dimensionless inverse
    bandwidth the two must stay consistent with.
    """

    central_freq: float
    filter_time: float
    epsilon: float

    def __post_init__(self):
        _checked("epsilon", self.epsilon)
        _checked("filter_time", self.filter_time)
        _checked("central_freq", self.central_freq, positive=False)

    @classmethod
    def from_epsilon(cls, epsilon, central_freq, mech_freq):
        """Build a spec from the dimensionless bandwidth, tau = epsilon/omega_m."""
        return cls(central_freq=float(central_freq),
                   filter_time=float(epsilon) / float(mech_freq),
                   epsilon=float(epsilon))

    @classmethod
    def stokes(cls, epsilon, mech_freq):
        """Filter centered on the Stokes sideband Omega = -omega_m."""
        return cls.from_epsilon(epsilon, -float(mech_freq), mech_freq)


def filter_fourier(spec, omega):
    """Fourier transform of the causal filter at angular frequency omega.

    g(w) = sqrt(tau/2pi) exp(i (w - Omega) tau / 2) sinc((w - Omega) tau / 2)
    with sinc(x) = sin(x)/x. Normalized so integral |g|^2 dw = 1. Accepts
    scalar or array omega in the same units as spec.central_freq.
    """
    z = (np.asarray(omega, dtype=float) - spec.central_freq) * spec.filter_time / 2.0
    out = (math.sqrt(spec.filter_time / TWO_PI)
           * np.exp(1j * z) * np.sinc(z / np.pi))
    if np.isscalar(omega):
        return complex(out)
    return out


def _check_filter(spec, mech_freq):
    eps = mech_freq * spec.filter_time
    if abs(eps - spec.epsilon) > 1e-9 * max(spec.epsilon, eps):
        raise ValueError("filter: epsilon=%g inconsistent with "
                         "omega_m * tau = %g" % (spec.epsilon, eps))


def _graded_edges(features, width, spacing=0.25, max_between=6):
    """Panel edges on [0, width], geometrically graded around each feature.

    features is a list of (center, scale) pairs: edges accumulate at
    center +- scale * 2^k, resolving structure down to the given scale while
    staying cheap far away. Long gaps are subdivided toward the target
    spacing, capped at max_between extra panels per gap.
    """
    pts = {0.0, float(width)}
    for center, scale in features:
        if 0.0 < center < width:
            pts.add(float(center))
        for sign in (-1.0, 1.0):
            for k in range(24):
                e = center + sign * scale * 2.0 ** k
                if 0.0 < e < width:
                    pts.add(float(e))
    edges = sorted(pts)
    # merge near-coincident edges so no panel degenerates to zero width
    merged = [edges[0]]
    for e in edges[1:]:
        if e - merged[-1] > 1e-9 * max(1.0, e):
            merged.append(e)
    merged[-1] = edges[-1]
    edges = merged
    out = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(1, min(max_between, int((b - a) / spacing)))
        step = (b - a) / n
        out.extend(a + step * (i + 1) for i in range(n))
    return np.array(out)


def _eigen_features(a):
    """(|Im|, |Re|) of each eigenvalue, the resonance positions and widths."""
    evs = np.linalg.eigvals(a)
    return [(abs(e.imag), max(abs(e.real), 1e-7)) for e in evs]


def _filter_blocks(w, spec_scaled):
    """Quadrature-basis filter entries (F_x, F_y) on a positive frequency grid.

    The quadrature transform mixes g at +w and -w; evaluating both here is
    what lets the integral fold onto w >= 0.
    """
    gp = filter_fourier(spec_scaled, w)
    gm = np.conj(filter_fourier(spec_scaled, -w))
    return 0.5 * (gp + gm), (gp - gm) / 2j


def _optical_inverse(z, a):
    """(diag, off) of Z_o^(-1) = [[diag, -off], [off, diag]] at z = i w."""
    s = z + a[0, 0]
    den = s * s + a[0, 1] ** 2
    return s / den, a[0, 1] / den


def _resolvent(w, a):
    """(i w + A)^(-1) in closed form, entry-major (4, 4, len(w)) complex.

    A must have the structure assemble_bright_drift gives it (ValueError
    otherwise). With Z_o^(-1) the optical block inverse, u = Z_o^(-1) c and
    v = b^T Z_o^(-1) for the coupling column c and row b, and S^(-1) the
    inverse of the mechanical Schur complement:

        M_mm = S^(-1),  M_om = -u S^(-1)[q, :],  M_mo = -S^(-1)[:, p] v^T,
        M_oo = Z_o^(-1) + S^(-1)[q, p] u v^T.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (4, 4) or not np.array_equal(a, assemble_bright_drift(
            -a[0, 0], a[0, 1], complex(a[3, 0], a[3, 1]), -a[3, 3], a[2, 3])):
        raise ValueError("closed-form resolvent needs a drift matrix with "
                         "the structure of assemble_bright_drift")
    z = 1j * np.asarray(w, dtype=float)
    diag, off = _optical_inverse(z, a)
    c, b = a[:2, 2], a[3, :2]
    u = np.stack([diag * c[0] - off * c[1], off * c[0] + diag * c[1]])
    v = np.stack([b[0] * diag + b[1] * off, b[1] * diag - b[0] * off])
    sigma = b @ u
    # Schur complement on (q, p): [[s_qq, s_qp], [s_pq, s_pp]]
    s_qq = z + a[2, 2]
    s_pp = z + a[3, 3]
    s_qp = a[2, 3]
    s_pq = a[3, 2] - sigma
    det = s_qq * s_pp - s_qp * s_pq
    m = np.empty((4, 4, len(z)), dtype=complex)
    m[2, 2] = s_pp / det
    m[2, 3] = -s_qp / det
    m[3, 2] = -s_pq / det
    m[3, 3] = s_qq / det
    m[:2, 2:] = -u[:, None] * m[2, 2:][None]
    m[2:, :2] = -m[2:, 3][:, None] * v[None]
    m[:2, :2] = (u * m[2, 3])[:, None] * v[None]
    m[0, 0] += diag
    m[1, 1] += diag
    m[0, 1] -= off
    m[1, 0] += off
    return m


def _gram(y, d):
    """Re sum_k d_k y_ik conj(y_jk) for entry-major y (n, K, N): (n, n, N)."""
    g = y * np.sqrt(d)[:, None]
    g = np.concatenate([g.real, g.imag], axis=1)
    n = y.shape[0]
    h = np.empty((n, n, y.shape[2]))
    for i in range(n):
        for j in range(i, n):
            h[i, j] = h[j, i] = np.einsum("kn,kn->n", g[i], g[j])
    return h


def _difference_integrand(w, a, a_ref, d, spec):
    """Realified integrand of (full - reference), stacked over w >= 0.

    d is the diffusion matrix; its optical entries are the cavity decay
    kappa, which also sets the input-output relation a_out = sqrt(2 kappa)
    a - a_in. The integrand is Hermitian with H(-w) = conj(H(w)), so
    folding the negative-frequency half gives 2 Re H; the result is
    manifestly real and symmetric. a_ref is a without its coupling, so its
    Gram takes the optical block of a and its own mechanical block.
    """
    kappa_bar = d[0, 0]
    fx, fy = _filter_blocks(w, spec)

    def optical_rows(x):
        # T [x + P/(2 kappa)] on the optical rows of entry-major x
        x[0, 0] += 0.5 / kappa_bar
        x[1, 1] += 0.5 / kappa_bar
        return math.sqrt(2.0 * kappa_bar) * np.stack(
            [fx * x[0] - fy * x[1], fy * x[0] + fx * x[1]])

    # the full system on its noisy columns X, Y and p
    x = _resolvent(w, a)[:, [0, 1, 3]]
    h = _gram(np.concatenate([optical_rows(x[:2]), x[2:] / math.sqrt(TWO_PI)]),
              np.diag(d)[[0, 1, 3]])
    # the reference: optical block from columns X and Y, mechanical from p
    diag, off = _optical_inverse(1j * w, a)
    h[:2, :2] -= _gram(optical_rows(np.array([[diag, -off], [off, diag]])),
                       np.diag(d)[:2])
    s_qq = 1j * w + a_ref[2, 2]
    det = s_qq * (1j * w + a_ref[3, 3]) - a_ref[2, 3] * a_ref[3, 2]
    h[2:, 2:] -= _gram(np.stack([[-a_ref[2, 3] / det], [s_qq / det]])
                       / math.sqrt(TWO_PI), d[3, 3:])
    return 2.0 * np.moveaxis(h, 2, 0)


def _gauss_kronrod(edges, evaluate):
    """Integrate evaluate(w) over the panels of edges with the G7/K15 pair.

    Returns the sum of the panels' K15 values V once the sum of their error
    estimates is within _TOLERANCE * max(1, max|V|). Until then each panel
    over its share, the budget over the number of panels, is bisected, all
    halves of one level in one evaluate call. The estimate is QUADPACK's:
    |K15 - G7| scaled toward the panel's spread about its mean, which it
    reaches on a panel spanning many filter rings, where |K15 - G7| alone
    reads low. Raises ArithmeticError on the first non-finite value, and
    when the budget is still exceeded after _MAX_DEPTH bisections.
    """
    new_lo, new_hi = edges[:-1], edges[1:]
    lo = hi = err = np.zeros(0)
    for depth in range(_MAX_DEPTH + 1):
        half = 0.5 * (new_hi - new_lo)[:, None]
        nodes = ((new_lo[:, None] + half) + half * _KRONROD_NODES).ravel()
        f = evaluate(nodes)
        shape = f.shape[1:]
        f = f.reshape(new_lo.size, _KRONROD_NODES.size, -1)
        k = half * np.einsum("k,pkj->pj", _KRONROD_WEIGHTS, f)
        if not np.all(np.isfinite(k)):
            raise ArithmeticError("non-finite output quadrature value on %d "
                                  "nodes" % nodes.size)
        e = np.abs(k - half * np.einsum("k,pkj->pj", _GAUSS_WEIGHTS, f[:, 1::2]))
        spread = half * np.einsum("k,pkj->pj", _KRONROD_WEIGHTS,
                                  np.abs(f - k[:, None] / (2.0 * half[:, None])))
        ratio = 200.0 * e / np.maximum(np.maximum(spread, 200.0 * e), 1e-300)
        lo, hi = np.r_[lo, new_lo], np.r_[hi, new_hi]
        err = np.r_[err, np.max(spread * ratio ** 1.5, axis=1)]
        kron = np.concatenate([kron, k]) if depth else k
        value = kron.sum(axis=0).reshape(shape)
        budget = _TOLERANCE * max(1.0, float(np.max(np.abs(value))))
        total = err.sum()
        if total <= budget:
            return value
        over = err > budget / err.size
        mid = 0.5 * (lo[over] + hi[over])
        new_lo, new_hi = np.r_[lo[over], mid], np.r_[mid, hi[over]]
        lo, hi, err, kron = lo[~over], hi[~over], err[~over], kron[~over]
    raise ArithmeticError("output quadrature did not converge: after %d "
                          "bisections the G7 -> K15 error estimates still "
                          "moved entries by %g" % (_MAX_DEPTH, total))


def _scaled_setup(ss, dp):
    """Bright-mode drift, its zero-coupling reference and diffusion, omega_m units."""
    w = dp.mech_freq
    dd = bright_drift_diffusion(ss, dp)
    a_ref = assemble_bright_drift(dp.cavity_decay / w, ss.detuning / w, 0.0,
                                  dp.mech_damping / w)
    return dd.drift, a_ref, dd.diffusion


def _output_problem(ss, dp, spec):
    """Scaled drifts, difference integrand and initial panel edges.

    Everything runs in omega_m units (tau -> epsilon). output_cm integrates
    exactly this integrand from exactly these edges. Returns
    (a, evaluate, edges).
    """
    w_m = dp.mech_freq
    _check_filter(spec, w_m)
    a, a_ref, d = _scaled_setup(ss, dp)
    scaled = FilterSpec(spec.central_freq / w_m, spec.epsilon, spec.epsilon)
    omega = abs(scaled.central_freq)
    features = _eigen_features(a) + _eigen_features(a_ref)
    features += [(omega, TWO_PI / scaled.epsilon), (1.0, 1e-6)]
    width = max(_FREQ_CUTOFF, omega + 60.0 * math.pi / scaled.epsilon,
                3.0 + 20.0 * d[0, 0])
    edges = _graded_edges(features, width)

    def evaluate(w):
        return _difference_integrand(w, a, a_ref, d, scaled)

    return a, evaluate, edges


def output_cm(ss, dp, spec):
    """Stationary covariance of (filtered TE out, filtered TM out, mechanics).

    Both polarizations are read through the one filter spec. Basis
    (X_te_out, Y_te_out, X_tm_out, Y_tm_out, q, p), vacuum variance 1/2.
    The system must be stable; the result is checked for physicality and
    an unphysical matrix is a hard error (it would indicate a broken sign
    convention, not a tolerance issue).
    """
    a, evaluate, edges = _output_problem(ss, dp, spec)
    if spectral_abscissa(a) >= -STABILITY_MARGIN:
        raise ValueError("cannot form the stationary output of an unstable system")

    # the reference: filtered vacuum, exact by filter normalization, and the
    # uncoupled Markovian oscillator, whose A V + V A^T = -D gives V_qp = 0
    # and V_qq = V_pp = n_m + 1/2
    thermal = dp.thermal_occupancy + 0.5
    v = _gauss_kronrod(edges, evaluate) + np.diag([0.5, 0.5, thermal, thermal])

    asym = float(np.max(np.abs(v - v.T)))
    if asym > 1e-9 * max(1.0, float(np.max(np.abs(v)))):
        raise ArithmeticError("output covariance asymmetric beyond tolerance: %g"
                              % asym)
    cm = polarization_cm(0.5 * (v + v.T), ss.cos_theta, ss.sin_theta)
    report = validate_cm(cm)
    if not report.physical:
        raise ArithmeticError("output covariance is unphysical (margin %g); "
                              "this indicates a convention bug, not a "
                              "tolerance problem" % report.margin)
    return cm
