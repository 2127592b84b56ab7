"""Gaussian-state entanglement measures on quadrature covariance matrices.

Bipartite reduction, partial transpose, symplectic spectra and logarithmic
negativity, in the vacuum-variance-1/2 convention. Entanglement of a 4x4
bipartite covariance matrix is certified by the smallest symplectic
eigenvalue of its partial transpose dropping below 1/2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lyapunov import _default_modes

# nu values within this relative band of 1/2 count as separable, so the
# switched-off entanglement is exactly 0.0 rather than a rounding-sized float.
SEPARABILITY_SNAP = 1e-12
PHYSICALITY_TOL = 1e-9
# Radicand rounding clamp, relative to Sigma^2 (the natural scale of the
# cancellation); more negative values indicate a genuinely bad input.
RADICAND_TOL = 1e-12


def symplectic_form(n_modes):
    """Block-diagonal symplectic form, n_modes copies of [[0, 1], [-1, 0]]."""
    return np.kron(np.eye(int(n_modes)), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _as_matrix(v):
    m = np.asarray(getattr(v, "matrix", v), dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError("expected a square 2n x 2n matrix, got shape %r"
                         % (m.shape,))
    return m


def symplectic_eigenvalues(v):
    """Symplectic spectrum of a (not necessarily physical) symmetric matrix.

    Returns the n positive doubled eigenvalues of i Omega V, ascending.
    """
    m = _as_matrix(v)
    omega = symplectic_form(m.shape[0] // 2)
    vals = np.sort(np.abs(np.linalg.eigvals(1j * omega @ m)))
    return vals[::2]


@dataclass(frozen=True)
class BipartiteCM:
    """4x4 covariance matrix of two modes, with its 2x2 block decomposition.

    matrix = [[A, C], [C^T, B]] over (mode1 X, mode1 Y, mode2 X, mode2 Y).
    """

    matrix: np.ndarray
    modes: tuple = ("first", "second")

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("expected a 4x4 matrix, got shape %r" % (m.shape,))
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "modes", tuple(self.modes))

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.matrix
        return self.matrix.astype(dtype)

    @property
    def block_a(self):
        return self.matrix[:2, :2]

    @property
    def block_b(self):
        return self.matrix[2:, 2:]

    @property
    def block_c(self):
        return self.matrix[:2, 2:]


def reduce_bipartite(v, pair):
    """Trace out all but two modes of a labeled covariance matrix.

    v is a CovarianceMatrix or a bare 2n x 2n array, labeled as the solver
    labels it (lyapunov._default_modes: te/tm/mech when 6x6); pair names two
    distinct modes, order preserved in the result.
    """
    m = _as_matrix(v)
    modes = getattr(v, "modes", None)
    if modes is None:
        modes = _default_modes(m.shape[0])
    first, second = pair
    if first == second:
        raise ValueError("pair must name two distinct modes, got %r" % (pair,))
    for name in (first, second):
        if name not in modes:
            raise ValueError("unknown mode %r, expected one of %r" % (name, modes))
    idx = []
    for name in (first, second):
        k = modes.index(name)
        idx.extend((2 * k, 2 * k + 1))
    return BipartiteCM(m[np.ix_(idx, idx)], modes=(first, second))


def min_symplectic_pt(v_bp):
    """Smallest symplectic eigenvalue of the partial transpose, closed form.

    nu = sqrt((Sigma - sqrt(Sigma^2 - 4 det V)) / 2) with
    Sigma = det A + det B - 2 det C; evaluated through the cancellation-free
    rearrangement 2 det V / (Sigma + sqrt(...)).
    """
    if not isinstance(v_bp, BipartiteCM):
        v_bp = BipartiteCM(_as_matrix(v_bp))
    if not np.all(np.isfinite(v_bp.matrix)):
        raise ArithmeticError("non-finite entry: input is not a physical "
                              "covariance matrix")
    det_a = float(np.linalg.det(v_bp.block_a))
    det_b = float(np.linalg.det(v_bp.block_b))
    det_c = float(np.linalg.det(v_bp.block_c))
    det_v = float(np.linalg.det(v_bp.matrix))
    if det_v <= 0.0:
        raise ArithmeticError("det V = %g <= 0: input is not a physical "
                              "covariance matrix" % det_v)
    sigma = det_a + det_b - 2.0 * det_c
    radicand = sigma * sigma - 4.0 * det_v
    scale = max(1.0, sigma * sigma)
    if radicand < -RADICAND_TOL * scale:
        raise ArithmeticError(
            "complex symplectic pair: Sigma^2 - 4 det V = %g < 0; "
            "input is not a physical covariance matrix" % radicand)
    root = math.sqrt(max(radicand, 0.0))
    if sigma + root <= 0.0:
        raise ArithmeticError("nonpositive Sigma: input is not a physical "
                              "covariance matrix")
    return math.sqrt(max(2.0 * det_v / (sigma + root), 0.0))


def min_symplectic_pt_spectral(v_bp):
    """Same quantity via the symplectic spectrum of the partially transposed CM.

    Independent route used to cross-check the closed form: flip the momentum
    sign of the second mode (diag(1, 1, 1, -1) conjugation) and take the
    smallest symplectic eigenvalue.
    """
    m = _as_matrix(v_bp)
    pt = np.diag([1.0, 1.0, 1.0, -1.0])
    return float(symplectic_eigenvalues(pt @ m @ pt)[0])


def log_negativity(v_bp):
    """Logarithmic negativity E_N = max(0, -ln(2 nu_minus)).

    Returns exactly 0.0 (separability decidable by equality) whenever
    nu_minus is at or within rounding of 1/2.
    """
    return _negativity_of_nu(min_symplectic_pt(v_bp))


def _negativity_of_nu(nu):
    """E_N from nu_minus, with the SEPARABILITY_SNAP rule of log_negativity."""
    if nu >= 0.5 * (1.0 - SEPARABILITY_SNAP):
        return 0.0
    return max(0.0, -math.log(2.0 * nu))


@dataclass(frozen=True)
class PhysicalityReport:
    """Uncertainty-relation diagnostics for a covariance matrix."""

    symplectic_eigenvalues: np.ndarray  # ascending; physical means all >= 1/2
    margin: float                       # min eig of V + (i/2) Omega
    physical: bool                      # margin >= -PHYSICALITY_TOL

    def __str__(self):
        return ("physical=%s margin=%.3e nu=%s"
                % (self.physical, self.margin,
                   np.array2string(self.symplectic_eigenvalues, precision=6)))


def validate_cm(v):
    """Check V + (i/2) Omega >= 0 and report the symplectic spectrum.

    Never raises; positivity violations below -PHYSICALITY_TOL are flagged in
    the returned report.
    """
    m = _as_matrix(v)
    omega = symplectic_form(m.shape[0] // 2)
    herm = m + 0.5j * omega
    margin = float(np.linalg.eigvalsh(herm).min())
    report = PhysicalityReport(
        symplectic_eigenvalues=symplectic_eigenvalues(m),
        margin=margin,
        physical=bool(margin >= -PHYSICALITY_TOL))
    return report
