"""Canned parameter grids for the standard result figures.

FIGURES maps each figure id to a plain spec that the sweep grid loop
evaluates; rerunning a figure writes byte-identical output. The grid
sizes, and so the cost, of each figure are the axes of its spec. A spec
holds the description, the fixed overrides of the baseline parameter set,
the axes in row order (last axis fastest) with their value arrays, the
output columns as (header, cell) pairs, and, for some output figures, the
fixed filter knobs stored in the metadata. A cell is a target, whose value
fills the column, or a (target, diagnostic) pair. Every row also carries
stable and error; with two targets, the first decides stable and the
second runs only on stable rows.

The detection-frequency axis is Omega/omega_m; the filter inverse
bandwidth is epsilon = omega_m * tau.
"""

import math

import numpy as np

from .config import PAPER_BASELINE
from .sweep import ResultTable, _grid

_EPSILONS = [1.0, 2.0, 5.0, 10.0, 20.0]
_FIG2A_THETAS = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
_THETA_CIRCLE = np.linspace(0.0, 2 * math.pi, 201, endpoint=False)
_Q_CAVITY = np.logspace(6.0, 9.0, 61)
_TEMPERATURES = np.linspace(0.02, 3.0, 41)
_DETUNING_BY_ANGLE = (("delta_c_over_omega_m", np.linspace(0.5, 1.5, 101)),
                      ("theta_rad", np.linspace(0.0, math.pi / 2, 101)))

_BOTH_INTRACAVITY = (("en_te_mech", "EN_TE_mech_intracavity"),
                     ("en_tm_mech", "EN_TM_mech_intracavity"))
_TE_OUTPUT = (("en_te_mech_output", "EN_TE_mech_output"),)

FIGURES = {
    "fig2a": {
        "description": "Intracavity E_N of both polarizations vs detuning, "
                       "at five polarization angles.",
        "overrides": {},
        "axes": (("theta_rad", _FIG2A_THETAS),
                 ("delta_c_over_omega_m", np.linspace(0.5, 1.5, 201))),
        "columns": _BOTH_INTRACAVITY,
    },
    "fig2b": {
        "description": "Intracavity E_N of both polarizations over the full "
                       "polarization circle at delta_c = omega_m.",
        "overrides": {"delta_c_over_omega_m": 1.0},
        "axes": (("theta_rad", _THETA_CIRCLE),),
        "columns": _BOTH_INTRACAVITY,
    },
    "fig2c": {
        "description": "Intracavity E_N maps over detuning and polarization "
                       "angle.",
        "overrides": {},
        "axes": _DETUNING_BY_ANGLE,
        "columns": _BOTH_INTRACAVITY,
    },
    "fig2d": {
        "description": "Effective TE coupling magnitude |G_te|/omega_m over "
                       "detuning and polarization angle.",
        "overrides": {},
        "axes": _DETUNING_BY_ANGLE,
        "columns": (("coupling_mag_te_over_omega_m",
                     ("coupling_magnitude_TE",
                      "coupling_mag_te_over_omega_m")),),
    },
    "fig3a": {
        "description": "Filtered-output E_N (TE, Stokes sideband) over the "
                       "polarization circle, for five filter bandwidths.",
        "overrides": {"delta_c_over_omega_m": 1.0},
        "axes": (("epsilon", _EPSILONS), ("theta_rad", _THETA_CIRCLE)),
        "columns": _TE_OUTPUT,
        "filter": {"omega_over_omega_m": -1.0},
    },
    "fig3b": {
        "description": "Filtered-output E_N maps over detection frequency "
                       "and polarization angle, for five filter bandwidths.",
        "overrides": {"delta_c_over_omega_m": 1.0},
        "axes": (("epsilon", _EPSILONS),
                 ("omega_over_omega_m", np.linspace(-2.0, 0.0, 31)),
                 ("theta_rad", np.linspace(0.0, math.pi / 2, 21))),
        "columns": _TE_OUTPUT,
    },
    "fig4a": {
        "description": "Filtered-output E_N over bath temperature and "
                       "polarization angle (epsilon = 10, Stokes sideband).",
        "overrides": {"delta_c_over_omega_m": 1.0},
        "axes": (("temperature_k", _TEMPERATURES),
                 ("theta_rad", np.linspace(0.0, math.pi / 2, 41))),
        "columns": _TE_OUTPUT,
        "filter": {"epsilon": 10.0, "omega_over_omega_m": -1.0},
    },
    "fig4b": {
        "description": "Filtered-output E_N over detection frequency and "
                       "bath temperature (epsilon = 10, theta = 0).",
        "overrides": {"delta_c_over_omega_m": 1.0},
        "axes": (("omega_over_omega_m", np.linspace(-2.0, 0.0, 41)),
                 ("temperature_k", _TEMPERATURES)),
        "columns": _TE_OUTPUT,
        "filter": {"epsilon": 10.0},
    },
    "fig4c": {
        "description": "Intracavity E_N over polarization angle and cavity "
                       "quality factor at delta_c = 0.6 omega_m.",
        "overrides": {"delta_c_over_omega_m": 0.6},
        "axes": (("theta_rad", np.linspace(0.0, math.pi / 2, 61)),
                 ("q_cavity", _Q_CAVITY)),
        "columns": _BOTH_INTRACAVITY,
    },
    "fig4d": {
        "description": "Intracavity TE E_N over detuning and cavity quality "
                       "factor at theta = 0.",
        "overrides": {"theta_rad": 0.0},
        "axes": (("delta_c_over_omega_m", np.linspace(0.5, 1.5, 61)),
                 ("q_cavity", _Q_CAVITY)),
        "columns": (("en_te_mech", "EN_TE_mech_intracavity"),),
    },
}


def reproduce_figure(fig_id, out_path=None, fmt="csv"):
    """Evaluate one canned figure grid; optionally write it to out_path.

    Unknown ids raise ValueError listing the valid ones. Output is
    deterministic: rerunning produces byte-identical files.
    """
    try:
        spec = FIGURES[fig_id]
    except KeyError:
        raise ValueError("unknown figure id %r; valid ids: %s"
                         % (fig_id, ", ".join(sorted(FIGURES)))) from None
    knobs = spec.get("filter", {})
    headers, cells = zip(*spec["columns"])
    rows = _grid({**PAPER_BASELINE, **spec["overrides"], **knobs},
                 spec["axes"], cells + ("stable", "error"))
    meta = {"figure": fig_id, "description": spec["description"],
            "base_parameters": dict(PAPER_BASELINE),
            "overrides": dict(spec["overrides"]), **knobs}
    columns = (tuple(name for name, _ in spec["axes"]) + headers
               + ("stable", "error"))
    table = ResultTable(columns=columns, rows=tuple(rows), meta=meta)
    if out_path is not None:
        table.write(out_path, fmt=fmt)
    return table
