"""Canned parameter grids for the standard result figures.

Each figure id maps to a deterministic grid evaluation returning a
ResultTable; rerunning a figure writes byte-identical output. Grid
densities balance plot smoothness against runtime. Measured on one core
of a 2-core Linux VM, two runs: an intracavity row (both polarizations)
costs about 0.5 ms (fig2c: 10201 rows in 5.2-6.2 s); a filtered-output
point costs about 10 ms (fig4b: 1681 points in 14.6-17.2 s) and up to
about 0.15 s at the overdamped corner (Q_c = 1e6, T = 20 mK, epsilon = 5).

All grids start from the baseline parameter set and state their deviations
explicitly. The detection-frequency axis is Omega/omega_m; the filter
inverse bandwidth is epsilon = omega_m * tau.
"""

import math

import numpy as np

from .config import PAPER_BASELINE
from .sweep import ResultTable, _evaluate_point


def _intracavity_rows(points, columns_of):
    """Evaluate (record, axis_values) pairs for both intracavity pairs."""
    rows = []
    for axis_values, record in points:
        en_te, stable, _, err = _evaluate_point(
            record, 10.0, -1.0, "EN_TE_mech_intracavity")
        if stable:
            en_tm, _, _, err2 = _evaluate_point(
                record, 10.0, -1.0, "EN_TM_mech_intracavity")
            err = err or err2
        else:
            en_tm = en_te
        rows.append(axis_values + columns_of(en_te, en_tm, stable, err))
    return rows


def _records(base_overrides, axis_items):
    """Yield (axis_values, record) for the cartesian product, last axis fastest."""
    base = dict(PAPER_BASELINE)
    base.update(base_overrides)
    names = [name for name, _ in axis_items]
    grids = [grid for _, grid in axis_items]

    def rec(prefix, depth):
        if depth == len(grids):
            record = dict(base)
            for name, value in zip(names, prefix):
                if name in record:
                    record[name] = value
            yield tuple(prefix), record
            return
        for v in grids[depth]:
            yield from rec(prefix + [float(v)], depth + 1)

    yield from rec([], 0)


def _figure_table(fig_id, description, columns, rows, overrides, eps=None, om=None):
    meta = {"figure": fig_id, "description": description,
            "base_parameters": dict(PAPER_BASELINE), "overrides": overrides}
    if eps is not None:
        meta["epsilon"] = eps
    if om is not None:
        meta["omega_over_omega_m"] = om
    return ResultTable(columns=tuple(columns), rows=tuple(rows), meta=meta)


def _fig2a():
    thetas = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
    deltas = np.linspace(0.5, 1.5, 201)
    points = _records({}, [("theta_rad", thetas),
                           ("delta_c_over_omega_m", deltas)])
    rows = _intracavity_rows(points, lambda te, tm, s, e: (te, tm, s, e))
    return _figure_table(
        "fig2a", "Intracavity E_N of both polarizations vs detuning, at "
        "five polarization angles.",
        ("theta_rad", "delta_c_over_omega_m", "en_te_mech", "en_tm_mech",
         "stable", "error"), rows, {"theta_rad": thetas})


def _fig2b():
    thetas = np.linspace(0.0, 2 * math.pi, 201, endpoint=False)
    points = _records({"delta_c_over_omega_m": 1.0}, [("theta_rad", thetas)])
    rows = _intracavity_rows(points, lambda te, tm, s, e: (te, tm, s, e))
    return _figure_table(
        "fig2b", "Intracavity E_N of both polarizations over the full "
        "polarization circle at delta_c = omega_m.",
        ("theta_rad", "en_te_mech", "en_tm_mech", "stable", "error"),
        rows, {"delta_c_over_omega_m": 1.0})


def _fig2c():
    deltas = np.linspace(0.5, 1.5, 101)
    thetas = np.linspace(0.0, math.pi / 2, 101)
    points = _records({}, [("delta_c_over_omega_m", deltas),
                           ("theta_rad", thetas)])
    rows = _intracavity_rows(points, lambda te, tm, s, e: (te, tm, s, e))
    return _figure_table(
        "fig2c", "Intracavity E_N maps over detuning and polarization angle.",
        ("delta_c_over_omega_m", "theta_rad", "en_te_mech", "en_tm_mech",
         "stable", "error"), rows, {})


def _fig2d():
    deltas = np.linspace(0.5, 1.5, 101)
    thetas = np.linspace(0.0, math.pi / 2, 101)
    rows = []
    for axis_values, record in _records({}, [("delta_c_over_omega_m", deltas),
                                             ("theta_rad", thetas)]):
        _, stable, diags, err = _evaluate_point(
            record, 10.0, -1.0, "coupling_magnitude_TE")
        rows.append(axis_values
                    + (diags["coupling_mag_te_over_omega_m"], stable, err))
    return _figure_table(
        "fig2d", "Effective TE coupling magnitude |G_te|/omega_m over "
        "detuning and polarization angle.",
        ("delta_c_over_omega_m", "theta_rad", "coupling_mag_te_over_omega_m",
         "stable", "error"), rows, {})


def _output_rows(points, eps_of, om_of):
    rows = []
    for axis_values, record in points:
        eps = eps_of(axis_values)
        om = om_of(axis_values)
        en, stable, _, err = _evaluate_point(record, eps, om,
                                             "EN_TE_mech_output")
        rows.append(axis_values + (en, stable, err))
    return rows


def _fig3a():
    epsilons = [1.0, 2.0, 5.0, 10.0, 20.0]
    thetas = np.linspace(0.0, 2 * math.pi, 201, endpoint=False)
    points = [((eps,) + av, rec)
              for eps in epsilons
              for av, rec in _records({"delta_c_over_omega_m": 1.0},
                                      [("theta_rad", thetas)])]
    rows = _output_rows(points, lambda av: av[0], lambda av: -1.0)
    return _figure_table(
        "fig3a", "Filtered-output E_N (TE, Stokes sideband) over the "
        "polarization circle, for five filter bandwidths.",
        ("epsilon", "theta_rad", "en_te_mech_output", "stable", "error"),
        rows, {"delta_c_over_omega_m": 1.0}, om=-1.0)


def _fig3b():
    epsilons = [1.0, 2.0, 5.0, 10.0, 20.0]
    omegas = np.linspace(-2.0, 0.0, 31)
    thetas = np.linspace(0.0, math.pi / 2, 21)
    points = [((eps, float(om)) + av, rec)
              for eps in epsilons
              for om in omegas
              for av, rec in _records({"delta_c_over_omega_m": 1.0},
                                      [("theta_rad", thetas)])]
    rows = _output_rows(points, lambda av: av[0], lambda av: av[1])
    return _figure_table(
        "fig3b", "Filtered-output E_N maps over detection frequency and "
        "polarization angle, for five filter bandwidths.",
        ("epsilon", "omega_over_omega_m", "theta_rad", "en_te_mech_output",
         "stable", "error"), rows, {"delta_c_over_omega_m": 1.0})


def _fig4a():
    temps = np.linspace(0.02, 3.0, 41)
    thetas = np.linspace(0.0, math.pi / 2, 41)
    points = _records({"delta_c_over_omega_m": 1.0},
                      [("temperature_k", temps), ("theta_rad", thetas)])
    rows = _output_rows(points, lambda av: 10.0, lambda av: -1.0)
    return _figure_table(
        "fig4a", "Filtered-output E_N over bath temperature and "
        "polarization angle (epsilon = 10, Stokes sideband).",
        ("temperature_k", "theta_rad", "en_te_mech_output", "stable",
         "error"), rows, {"delta_c_over_omega_m": 1.0}, eps=10.0, om=-1.0)


def _fig4b():
    omegas = np.linspace(-2.0, 0.0, 41)
    temps = np.linspace(0.02, 3.0, 41)
    points = [((float(om),) + av, rec)
              for om in omegas
              for av, rec in _records({"delta_c_over_omega_m": 1.0},
                                      [("temperature_k", temps)])]
    rows = _output_rows(points, lambda av: 10.0, lambda av: av[0])
    return _figure_table(
        "fig4b", "Filtered-output E_N over detection frequency and bath "
        "temperature (epsilon = 10, theta = 0).",
        ("omega_over_omega_m", "temperature_k", "en_te_mech_output",
         "stable", "error"), rows, {"delta_c_over_omega_m": 1.0}, eps=10.0)


def _fig4c():
    thetas = np.linspace(0.0, math.pi / 2, 61)
    qs = np.logspace(6.0, 9.0, 61)
    points = _records({"delta_c_over_omega_m": 0.6},
                      [("theta_rad", thetas), ("q_cavity", qs)])
    rows = _intracavity_rows(points, lambda te, tm, s, e: (te, tm, s, e))
    return _figure_table(
        "fig4c", "Intracavity E_N over polarization angle and cavity "
        "quality factor at delta_c = 0.6 omega_m.",
        ("theta_rad", "q_cavity", "en_te_mech", "en_tm_mech", "stable",
         "error"), rows, {"delta_c_over_omega_m": 0.6})


def _fig4d():
    deltas = np.linspace(0.5, 1.5, 61)
    qs = np.logspace(6.0, 9.0, 61)
    points = _records({"theta_rad": 0.0},
                      [("delta_c_over_omega_m", deltas), ("q_cavity", qs)])
    rows = []
    for axis_values, record in points:
        en, stable, _, err = _evaluate_point(
            record, 10.0, -1.0, "EN_TE_mech_intracavity")
        rows.append(axis_values + (en, stable, err))
    return _figure_table(
        "fig4d", "Intracavity TE E_N over detuning and cavity quality "
        "factor at theta = 0.",
        ("delta_c_over_omega_m", "q_cavity", "en_te_mech", "stable",
         "error"), rows, {"theta_rad": 0.0})


FIGURES = {
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig2c": _fig2c,
    "fig2d": _fig2d,
    "fig3a": _fig3a,
    "fig3b": _fig3b,
    "fig4a": _fig4a,
    "fig4b": _fig4b,
    "fig4c": _fig4c,
    "fig4d": _fig4d,
}


def reproduce_figure(fig_id, out_path=None, fmt="csv"):
    """Evaluate one canned figure grid; optionally write it to out_path.

    Unknown ids raise ValueError listing the valid ones. Output is
    deterministic: rerunning produces byte-identical files.
    """
    try:
        builder = FIGURES[fig_id]
    except KeyError:
        raise ValueError("unknown figure id %r; valid ids: %s"
                         % (fig_id, ", ".join(sorted(FIGURES)))) from None
    table = builder()
    if out_path is not None:
        table.write(out_path, fmt=fmt)
    return table
