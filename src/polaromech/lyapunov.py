"""Steady-state covariance matrix from the continuous Lyapunov equation.

For a stable drift matrix A and diffusion matrix D, the stationary
covariance V solves A V + V A^T = -D. It is solved as one dense linear
system in the Kronecker form (A (x) I + I (x) A) vec V = -vec D: for the
4x4 bright-mode drifts of this model that is 16 unknowns, a small LU solve
in numpy. polarization_cm rotates the bright-mode result to TE/TM.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import STABILITY_MARGIN, spectral_abscissa

# Bound on the residual of the symmetrized solution. This is the solver's
# only gate: the raw solution is not checked for symmetry, because
# near-marginal drifts (abscissa ~ -gamma_m/2) leave rounding-level asymmetry
# in correct solutions.
RESIDUAL_TOL = 1e-9

MODES = ("te", "tm", "mech")


class LyapunovError(ArithmeticError):
    """Solver output was non-finite or violated the residual bound."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric covariance matrix with labeled two-row mode blocks.

    Basis per mode is (X, Y) quadratures (mechanical: q, p), vacuum variance
    1/2. Supports np.asarray() directly.
    """

    matrix: np.ndarray
    modes: tuple = MODES

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != 2 * len(self.modes):
            raise ValueError("expected a %dx%d matrix for modes %r, got shape %r"
                             % (2 * len(self.modes), 2 * len(self.modes),
                                self.modes, m.shape))
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "modes", tuple(self.modes))

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.matrix
        return self.matrix.astype(dtype)


# R(theta) maps (b, d, mech) to (te, tm, mech); each of its rows holds one
# bright entry, on quadrature _SPREAD of the 4x4 bright-mode covariance, and
# one dark entry, whose vacuum I/2 pairs equal quadratures of TE and TM
_SPREAD = np.ix_((0, 1, 0, 1, 2, 3), (0, 1, 0, 1, 2, 3))
_DARK_VACUUM = 0.5 * np.kron([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                              [0.0, 0.0, 0.0]], np.eye(2))


def polarization_cm(v, cos_theta, sin_theta):
    """6x6 (te, tm, mech) covariance array from the 4x4 one of (bright, mech).

    The dark mode d = -sin(theta) a_te + cos(theta) a_tm is uncorrelated
    vacuum, I/2, and R(theta) rotates (b, d) back to (te, tm) on both
    quadratures: V = R (V_b (+) I/2) R^T. Row i of R has bright entry w_i in
    (c, c, s, s, 1, 1) and dark entry u_i in (-s, -s, c, c, 0, 0), so
    V_ij = w_i w_j V_b[k_i, k_j] + u_i u_j [I/2 on equal quadratures], which
    is symmetric to the last bit. cos_theta and sin_theta are the snapped
    values of polarization_split, so at multiples of pi/2 the undriven mode
    reads exactly I/2 with exactly 0.0 correlations. The result is a bare
    array in MODES order, so the solver's CovarianceMatrix stays the only
    one an evaluation builds.
    """
    c, s = float(cos_theta), float(sin_theta)
    w = np.array([c, c, s, s, 1.0, 1.0])
    u = np.array([-s, -s, c, c, 0.0, 0.0])
    full = (np.asarray(v)[_SPREAD] * np.multiply.outer(w, w)
            + _DARK_VACUUM * np.multiply.outer(u, u))
    return full


def lyapunov_residual(a, d, v):
    """Max-norm residual of A V + V A^T + D, relative to the max entry of D."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=float)
    scale = max(np.max(np.abs(d)), 1e-300)
    return float(np.max(np.abs(a @ v + v @ a.T + d)) / scale)


def _default_modes(n):
    """Mode labels of an n x n covariance: MODES when 6x6, else m0, m1, ..."""
    if n == 6:
        return MODES
    return tuple("m%d" % i for i in range(n // 2))


def _solve_vectorized(a, d):
    """Raw solution of A V + V A^T = -D from its Kronecker form.

    Row-major vectorization: vec(A V + V A^T) = (A (x) I + I (x) A) vec(V),
    with the n^2 x n^2 coefficient matrix built in one broadcast.
    """
    n = a.shape[0]
    eye = np.eye(n)
    coeff = (a[:, None, :, None] * eye[None, :, None, :]
             + eye[:, None, :, None] * a[None, :, None, :]).reshape(n * n, n * n)
    return np.linalg.solve(coeff, -d.reshape(n * n)).reshape(n, n)


def solve_lyapunov(a, d):
    """Solve A V + V A^T = -D for the stationary covariance.

    A must be strictly stable. The raw solution is symmetrized and its
    residual is verified against RESIDUAL_TOL; a violation, or any non-finite
    entry, raises LyapunovError rather than being silently patched.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    abscissa = spectral_abscissa(a)
    if not abscissa < -STABILITY_MARGIN:
        raise ValueError("drift matrix is not stable: max Re(eig) = %g" % abscissa)
    v = _solve_vectorized(a, d)
    v = 0.5 * (v + v.T)
    residual = lyapunov_residual(a, d, v)
    # written so that a NaN residual fails the gate too
    if not residual <= RESIDUAL_TOL:
        raise LyapunovError("Lyapunov residual %g exceeds %g"
                            % (residual, RESIDUAL_TOL), residual=residual)
    return CovarianceMatrix(v, modes=_default_modes(a.shape[0]))
