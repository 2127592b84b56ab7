"""Drift and diffusion matrices of the linearized fluctuation dynamics.

Quadrature basis, fixed everywhere in this package:

    (dX_te, dY_te, dX_tm, dY_tm, dq, dp)

with vacuum variance 1/2. Matrices are assembled in units of the mechanical
frequency (all rates divided by omega_m); the covariance matrix solved from
them is invariant under that common rescaling.

The two modes share one cavity denominator, so G_te = G cos(theta) and
G_tm = G sin(theta): the mechanics couples only to the bright mode
b = cos(theta) a_te + sin(theta) a_tm, and the dark mode stays in vacuum.
The evaluation routes solve the 4x4 system (dX_b, dY_b, dq, dp) of
bright_drift_diffusion and rotate the result to TE/TM; the 6x6
drift_matrix is the model's definition, against which that is checked.
"""

from dataclasses import dataclass

import numpy as np

BASIS_LABELS = ("x_te", "y_te", "x_tm", "y_tm", "q", "p")

# "Stable" demands max Re(eigenvalue) < -STABILITY_MARGIN in omega_m units;
# the Lyapunov solve downstream is ill-conditioned at marginal stability.
STABILITY_MARGIN = 1e-10


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift matrix A and diffusion matrix D, in omega_m units."""

    drift: np.ndarray       # 6x6 real, or 4x4 for the bright-mode system
    diffusion: np.ndarray   # real diagonal, same shape


def assemble_drift(cavity_decay, detuning, coupling_te, coupling_tm,
                   mech_damping, mech_freq=1.0):
    """Build the 6x6 drift matrix from scalar rates (any consistent units).

    coupling_te/tm are the complex effective couplings G = G^x + i G^y.
    """
    k = float(cavity_decay)
    d = float(detuning)
    g = float(mech_damping)
    w = float(mech_freq)
    gtx, gty = complex(coupling_te).real, complex(coupling_te).imag
    ghx, ghy = complex(coupling_tm).real, complex(coupling_tm).imag
    return np.array([
        [-k,    d,   0.0,  0.0, -gty, 0.0],
        [-d,   -k,   0.0,  0.0,  gtx, 0.0],
        [0.0,  0.0, -k,    d,   -ghy, 0.0],
        [0.0,  0.0, -d,   -k,    ghx, 0.0],
        [0.0,  0.0,  0.0,  0.0,  0.0, w],
        [gtx,  gty,  ghx,  ghy, -w,  -g],
    ])


# (X_b, Y_b, q, p) inside the 6x6 basis, where the bright mode is TE when
# all of the drive is in TE
_BRIGHT = np.ix_((0, 1, 4, 5), (0, 1, 4, 5))


def assemble_bright_drift(cavity_decay, detuning, coupling, mech_damping,
                          mech_freq=1.0):
    """Build the 4x4 drift of (X_b, Y_b, q, p) from scalar rates.

    It is assemble_drift with the whole coupling on TE and the undriven TM
    rows and columns dropped, so the two share one formula.
    """
    return assemble_drift(cavity_decay, detuning, coupling, 0.0,
                          mech_damping, mech_freq)[_BRIGHT]


def drift_matrix(ss, dp):
    """Drift matrix for a solved steady state, in omega_m units.

    Uses the effective detuning (radiation-pressure shifted), not Delta_c.
    """
    w = dp.mech_freq
    return assemble_drift(dp.cavity_decay / w, ss.detuning / w,
                          ss.coupling_te / w, ss.coupling_tm / w,
                          dp.mech_damping / w, 1.0)


def diffusion_matrix(dp):
    """Markovian diffusion matrix Diag[k, k, k, k, 0, gamma_m (2 n_m + 1)], omega_m units."""
    w = dp.mech_freq
    k = dp.cavity_decay / w
    g = dp.mech_damping / w
    return np.diag([k, k, k, k, 0.0, g * (2.0 * dp.thermal_occupancy + 1.0)])


def drift_diffusion(ss, dp):
    return DriftDiffusion(drift=drift_matrix(ss, dp), diffusion=diffusion_matrix(dp))


def bright_drift_diffusion(ss, dp):
    """Drift and diffusion of (X_b, Y_b, q, p), 4x4, in omega_m units.

    The optical diffusion is isotropic, so the rotation to the bright/dark
    frame leaves it diagonal: Diag[k, k, 0, gamma_m (2 n_m + 1)].
    """
    w = dp.mech_freq
    drift = assemble_bright_drift(dp.cavity_decay / w, ss.detuning / w,
                                  ss.coupling / w, dp.mech_damping / w)
    return DriftDiffusion(drift=drift, diffusion=diffusion_matrix(dp)[_BRIGHT])


def spectral_abscissa(a):
    """Largest real part of the eigenvalues of a."""
    return float(np.linalg.eigvals(np.asarray(a, dtype=float)).real.max())


def is_stable_eigen(a, margin=STABILITY_MARGIN):
    """Eigenvalue stability test: max Re(eig) < -margin.

    spectral_abscissa() gives the margin itself when the number is needed.
    Raises numpy.linalg.LinAlgError if the eigensolver fails to converge.
    """
    return spectral_abscissa(a) < -margin


def characteristic_polynomial(a):
    """Monic characteristic polynomial coefficients, descending powers.

    Faddeev-LeVerrier recurrence: trace-based, no eigendecomposition, so the
    Routh-Hurwitz test below stays independent of the eigenvalue route.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    m = np.eye(n)
    for k in range(1, n + 1):
        am = a @ m
        coeffs[k] = -np.trace(am) / k
        m = am + coeffs[k] * np.eye(n)
    return coeffs


# Threshold below which a Routh entry counts as an exact zero (marginal
# case) rather than a small number. Rows are rescaled to unit max before the
# comparison, so this is effectively a relative tolerance.
_ROUTH_ZERO = 1e-13


def is_stable_routh_hurwitz(a):
    """Routh-Hurwitz stability verdict from the characteristic polynomial.

    Returns True (all roots in the open left half-plane), False (some root
    with positive real part), or None when a zero pivot or zero row makes the
    array indeterminate (e.g. a pure imaginary eigenvalue pair gives a zero
    row). Agrees with is_stable_eigen on every non-marginal input.
    """
    coeffs = characteristic_polynomial(a)
    degree = len(coeffs) - 1
    row_prev = np.array(coeffs[0::2], dtype=float)
    row_cur = np.array(coeffs[1::2], dtype=float)
    if row_cur.size < row_prev.size:
        row_cur = np.append(row_cur, 0.0)
    # Multiplying any row by a positive constant leaves every verdict
    # unchanged, so rows are normalized to unit max as they are produced.
    row_prev = row_prev / np.max(np.abs(row_prev))
    first_column = [1.0]  # sign of the monic leading coefficient
    for _ in range(degree):
        peak = np.max(np.abs(row_cur))
        if peak <= _ROUTH_ZERO:
            return None  # zero row: root pair symmetric about the origin
        row_cur = row_cur / peak
        pivot = row_cur[0]
        if abs(pivot) <= _ROUTH_ZERO:
            return None  # zero first-column pivot: indeterminate
        first_column.append(pivot)
        nxt = np.empty_like(row_cur)
        nxt[:-1] = (pivot * row_prev[1:] - row_prev[0] * row_cur[1:]) / pivot
        nxt[-1] = 0.0
        row_prev, row_cur = row_cur, nxt
    # Monic polynomial: stable iff the whole first column is positive.
    return bool(all(c > 0 for c in first_column))
