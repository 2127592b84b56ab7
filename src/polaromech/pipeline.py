"""One-call workflows from physical parameters to entanglement numbers.

Both routes evaluate the 4x4 bright-mode system (see dynamics) and return
the 6x6 (te, tm, mech) covariance through polarization_cm.
"""

from .dynamics import bright_drift_diffusion
from .gaussian import log_negativity, reduce_bipartite
from .lyapunov import polarization_cm, solve_lyapunov
from .outputfield import FilterSpec, output_cm
from .params import derive_constants
from .steadystate import solve_steady_state

PAIRS = (("te", "mech"), ("tm", "mech"), ("te", "tm"))


def operating_point(params):
    """Derived constants plus the selected stable steady state."""
    dp = derive_constants(params)
    ss = solve_steady_state(dp, params)
    return dp, ss


def _covariance(dp, ss, where, epsilon, omega_over_omega_m):
    """Covariance (te, tm, mech) at an operating point already solved.

    where "output" gives the filtered output of output_cm_at, else intracavity.
    """
    if where == "output":
        spec = FilterSpec.from_epsilon(epsilon, omega_over_omega_m * dp.mech_freq,
                                       dp.mech_freq)
        return output_cm(ss, dp, spec)
    dd = bright_drift_diffusion(ss, dp)
    v = solve_lyapunov(dd.drift, dd.diffusion)
    return polarization_cm(v, ss.cos_theta, ss.sin_theta)


def intracavity_cm(params):
    """Stationary intracavity covariance (te, tm, mech), Lyapunov route."""
    dp, ss = operating_point(params)
    return _covariance(dp, ss, "intracavity", None, None), dp, ss


def output_cm_at(params, epsilon, omega_over_omega_m):
    """Filtered-output covariance at the operating point of params.

    Both output modes are read through one filter: window length
    tau = epsilon / omega_m, centered on Omega = omega_over_omega_m * omega_m.
    """
    dp, ss = operating_point(params)
    return _covariance(dp, ss, "output", epsilon, omega_over_omega_m), dp, ss


def entanglement(params, pair=("te", "mech"), where="intracavity",
                 epsilon=10.0, omega_over_omega_m=-1.0):
    """Logarithmic negativity of one mode pair, intracavity or at the output."""
    if tuple(pair) not in PAIRS:
        raise ValueError("unknown mode pair %r; expected one of %r"
                         % (pair, PAIRS))
    if where not in ("intracavity", "output"):
        raise ValueError("where must be 'intracavity' or 'output', got %r" % where)
    dp, ss = operating_point(params)
    v = _covariance(dp, ss, where, epsilon, omega_over_omega_m)
    return log_negativity(reduce_bipartite(v, pair))
