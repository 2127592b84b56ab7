"""Classical operating point: mean fields, static mirror displacement, couplings.

Eliminating the mean optical fields from the fixed-point conditions leaves a
cubic in the static displacement q_s. At strong drive the cubic can have
three real roots (optical bistability); the root that makes the drift
matrix stable is selected, with the smallest q_s as tie-break.

The branch is chosen on the 4x4 bright-mode drift (see dynamics): the dark
mode's eigenvalues -kappa +- i Delta are always stable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (STABILITY_MARGIN, assemble_bright_drift,
                       spectral_abscissa)
from .params import polarization_split


class UnstableOperatingPointError(RuntimeError):
    """No real root of the steady-state cubic yields a stable drift matrix."""

    def __init__(self, roots):
        self.roots = tuple(float(r) for r in roots)
        super().__init__(
            "unstable operating point: no stable branch among the steady-state "
            "displacement roots q_s = %s" % (list(self.roots),))


@dataclass(frozen=True)
class SteadyState:
    """Mean-field operating point about which the dynamics is linearized.

    The two modes share one cavity denominator, so the per-polarization
    amplitudes and couplings are the bright-mode ones times the snapped
    (cos theta, sin theta) of polarization_split: exactly zero for the
    undriven mode at multiples of pi/2.
    """

    alpha: complex         # dimensionless intracavity amplitude, bright mode
    q_s: float             # dimensionless static displacement
    p_s: float             # dimensionless static momentum, identically 0
    detuning: float        # rad/s, effective detuning Delta = Delta_c - g0 q_s
    coupling: complex      # rad/s, bright-mode coupling G = sqrt(2) g0 alpha
    cos_theta: float       # TE share of the drive amplitude
    sin_theta: float       # TM share of the drive amplitude
    root_count: int = 1    # number of distinct real roots of the cubic

    alpha_te = property(lambda self: self.cos_theta * self.alpha)
    alpha_tm = property(lambda self: self.sin_theta * self.alpha)
    coupling_te = property(lambda self: self.cos_theta * self.coupling)
    coupling_tm = property(lambda self: self.sin_theta * self.coupling)


def _cubic_real_roots(delta_c, kappa, rhs):
    """Real roots of x[(delta_c - x)^2 + kappa^2] = rhs, ascending.

    All quantities dimensionless (omega_m units); x is the displacement in
    units of omega_m / g0. Companion-matrix roots polished by Newton.
    """
    c2, c1 = -2.0 * delta_c, delta_c * delta_c + kappa * kappa
    roots = np.roots([1.0, c2, c1, -rhs])
    span = max(1.0, np.max(np.abs(roots)))
    real = sorted(r.real for r in roots if abs(r.imag) <= 1e-8 * span)
    fscale = abs(rhs) + 1e-300
    polished = []
    for x in real:
        for _ in range(60):
            f = ((x + c2) * x + c1) * x - rhs
            if abs(f) <= 1e-14 * (fscale + abs(x) * (x * x + abs(c2) * abs(x) + c1)):
                break
            df = (3.0 * x + 2.0 * c2) * x + c1
            if df == 0.0:
                break
            step = f / df
            x -= step
            if abs(step) <= 1e-16 * max(1.0, abs(x)):
                break
        polished.append(x)
    # collapse near-identical roots (double root at a bifurcation point)
    distinct = []
    for x in sorted(polished):
        if not distinct or abs(x - distinct[-1]) > 1e-8 * span:
            distinct.append(x)
    return distinct


def solve_steady_state(dp, p):
    """Solve the self-consistent operating point for derived params dp.

    Raises UnstableOperatingPointError (carrying all real displacement roots)
    when no root gives a stable drift matrix.
    """
    w = p.mech_freq
    g0 = p.single_photon_coupling
    kappa_bar = dp.cavity_decay / w
    delta_c_bar = p.cavity_detuning / w
    gamma_bar = dp.mech_damping / w
    s_total = dp.drive_amplitude

    cos_theta, sin_theta = polarization_split(1.0, p.polarization_angle)
    if s_total == 0.0:
        return SteadyState(alpha=0j, q_s=0.0, p_s=0.0,
                           detuning=p.cavity_detuning, coupling=0j,
                           cos_theta=cos_theta, sin_theta=sin_theta)

    # x = g0 q_s / omega_m solves x[(Dc - x)^2 + k^2] = 2 k g0^2 S^2 / omega_m^3
    rhs = 2.0 * kappa_bar * (g0 * g0) * (s_total * s_total) / w**3
    roots = _cubic_real_roots(delta_c_bar, kappa_bar, rhs)

    candidates = []
    for x in roots:
        detuning = (delta_c_bar - x) * w
        denom = 1j * detuning + dp.cavity_decay
        alpha = math.sqrt(2.0 * dp.cavity_decay) * s_total / denom
        candidates.append(SteadyState(
            alpha=alpha, q_s=x * w / g0, p_s=0.0, detuning=detuning,
            coupling=math.sqrt(2.0) * g0 * alpha, cos_theta=cos_theta,
            sin_theta=sin_theta, root_count=len(roots)))

    for ss in candidates:  # ascending q_s, so the first stable is the smallest
        drift = assemble_bright_drift(kappa_bar, ss.detuning / w,
                                      ss.coupling / w, gamma_bar)
        if spectral_abscissa(drift) < -STABILITY_MARGIN:
            return ss
    raise UnstableOperatingPointError([ss.q_s for ss in candidates])
