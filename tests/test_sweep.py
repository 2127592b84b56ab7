import json
import math
import sys

import pytest

from polaromech import (FIGURES, PAPER_BASELINE, Axis, ResultTable,
                        SweepSpec, min_symplectic_pt, reproduce_figure,
                        run_sweep, solve_steady_state)
from polaromech.sweep import _evaluate_point


def _en_vs_detuning(count=5, low=0.8, high=1.2):
    spec = SweepSpec(axis1=Axis("delta_c_over_omega_m", low, high, count),
                     target="EN_TE_mech_intracavity")
    return run_sweep(spec)


# --- validation ---

def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("no_such_knob", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        Axis("theta_rad", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Axis("theta_rad", 1.0, 1.0, 5)


def test_sweep_spec_validation():
    ax = Axis("theta_rad", 0.0, 1.5, 4)
    with pytest.raises(ValueError):
        SweepSpec(axis1=ax, target="EN_of_everything")
    with pytest.raises(ValueError):
        SweepSpec(axis1=ax, axis2=Axis("theta_rad", 0.0, 1.0, 3),
                  target="EN_TE_mech_intracavity")
    with pytest.raises(ValueError):
        SweepSpec(axis1=ax, target="EN_TE_mech_intracavity",
                  overrides={"bogus_key": 1.0})


# --- shape and ordering ---

def test_row_count_and_columns_1d():
    t = _en_vs_detuning(count=5)
    assert len(t.rows) == 5
    assert t.columns[0] == "delta_c_over_omega_m"
    assert t.columns[1] == "EN_TE_mech_intracavity"
    assert t.columns[2] == "stable"
    assert t.columns[-1] == "error"
    assert all(len(r) == len(t.columns) for r in t.rows)


def test_axis2_varies_fastest():
    spec = SweepSpec(axis1=Axis("delta_c_over_omega_m", 0.9, 1.1, 3),
                     axis2=Axis("theta_rad", 0.0, 0.6, 4),
                     target="coupling_magnitude_TE")
    t = run_sweep(spec)
    assert len(t.rows) == 12
    outer = [r[0] for r in t.rows]
    inner = [r[1] for r in t.rows]
    assert outer[:4] == [0.9] * 4
    assert inner[:4] == pytest.approx([0.0, 0.2, 0.4, 0.6])
    assert inner[4:8] == inner[:4]


def test_deterministic_reruns():
    a = _en_vs_detuning(count=4).to_csv()
    b = _en_vs_detuning(count=4).to_csv()
    assert a == b


def test_mass_axis_is_inert():
    # the oscillator mass never enters the dynamics; results must not move
    spec = SweepSpec(axis1=Axis("mass_kg", 1e-12, 1e-9, 4),
                     target="EN_TE_mech_intracavity")
    t = run_sweep(spec)
    values = [r[1] for r in t.rows]
    assert len(set(r[0] for r in t.rows)) == 4
    assert all(v == values[0] for v in values)
    assert values[0] > 0.0


# --- unstable points ---

def test_unstable_rows_are_sentinels():
    spec = SweepSpec(axis1=Axis("delta_c_over_omega_m", -1.0, 1.0, 5),
                     target="EN_TE_mech_intracavity")
    t = run_sweep(spec)
    by_axis = {round(r[0], 12): r for r in t.rows}
    blue = by_axis[-1.0]
    assert blue[1] is None and blue[2] is False
    assert blue[-1] == "unstable"
    red = by_axis[1.0]
    assert red[2] is True and red[1] > 0.0 and red[-1] == ""
    csv = t.to_csv()
    assert "unstable" in csv.splitlines()[1]


def test_stability_flag_target():
    spec = SweepSpec(axis1=Axis("delta_c_over_omega_m", -1.0, 1.0, 5),
                     target="stability_flag")
    t = run_sweep(spec)
    flags = {round(r[0], 12): r[1] for r in t.rows}
    assert flags[-1.0] == 0.0 and flags[1.0] == 1.0
    # instability is the measured answer here, not an error
    assert all(r[-1] == "" for r in t.rows)


# --- work per point ---

def _replace(monkeypatch, func, stand_in):
    """Replace func in every polaromech module that holds it."""
    for name, module in list(sys.modules.items()):
        if name == "polaromech" or name.startswith("polaromech."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, stand_in)


def _count_calls(monkeypatch, func):
    """Replace func in every polaromech module that holds it; returns a tally."""
    tally = []

    def spy(*args, **kwargs):
        tally.append(1)
        return func(*args, **kwargs)

    _replace(monkeypatch, func, spy)
    return tally


def _stable_counts(table):
    col = table.columns.index("stable")
    stable = sum(1 for r in table.rows if r[col])
    return stable, len(table.rows) - stable


def test_sweep_solves_each_row_once(monkeypatch):
    solves = _count_calls(monkeypatch, solve_steady_state)
    nus = _count_calls(monkeypatch, min_symplectic_pt)
    t = run_sweep(SweepSpec(axis1=Axis("delta_c_over_omega_m", -1.0, 1.5, 4),
                            axis2=Axis("power_w", 0.005, 0.02, 2),
                            target="EN_TE_mech_intracavity"))
    stable, unstable = _stable_counts(t)
    assert stable > 0 and unstable > 0
    assert len(solves) == len(t.rows)
    assert len(nus) == stable


def test_figure_rows_solve_once_per_polarization(monkeypatch):
    solves = _count_calls(monkeypatch, solve_steady_state)
    nus = _count_calls(monkeypatch, min_symplectic_pt)
    t = reproduce_figure("fig2b")
    stable, unstable = _stable_counts(t)
    assert stable > 0
    assert len(solves) == 2 * stable + unstable
    assert len(nus) == 2 * stable


# --- serialization ---

def test_csv_full_precision():
    t = _en_vs_detuning(count=3)
    line = t.to_csv().splitlines()[2]
    cells = line.split(",")
    assert cells[0] == "%.17g" % 1.0
    value = float(cells[1])
    assert value == t.rows[1][1]  # round-trips exactly at 17 digits


def test_structured_payload():
    t = _en_vs_detuning(count=3)
    doc = t.to_structured()
    assert doc["format"] == "polaromech.sweep.v1"
    assert doc["columns"] == list(t.columns)
    assert doc["meta"]["target"] == "EN_TE_mech_intracavity"
    assert doc["meta"]["axes"][0]["count"] == 3
    assert "g0_rad_s" in doc["meta"]["base_parameters"]
    json.dumps(doc)  # fully serializable


def test_structured_nan_becomes_null():
    spec = SweepSpec(axis1=Axis("delta_c_over_omega_m", -1.0, -0.5, 2),
                     target="EN_TE_mech_intracavity")
    doc = run_sweep(spec).to_structured()
    assert doc["rows"][0][1] is None


def test_write_csv_and_structured(tmp_path):
    t = _en_vs_detuning(count=3)
    p_csv = tmp_path / "out.csv"
    t.write(p_csv, "csv")
    assert p_csv.read_text() == t.to_csv()
    p_json = tmp_path / "out.json"
    t.write(p_json, "structured")
    assert json.loads(p_json.read_text()) == t.to_structured()
    with pytest.raises(ValueError):
        t.write(tmp_path / "out.xml", "xml")


# --- figure data builders ---

def test_unknown_figure_id():
    with pytest.raises(ValueError) as err:
        reproduce_figure("fig99")
    assert "fig2a" in str(err.value)


def test_figure_registry():
    assert set(FIGURES) == {"fig2a", "fig2b", "fig2c", "fig2d",
                            "fig3a", "fig3b", "fig4a", "fig4b", "fig4c",
                            "fig4d"}


_TE = "EN_TE_mech_intracavity"
_TM = "EN_TM_mech_intracavity"
_OUT = {"en_te_mech_output": "EN_TE_mech_output"}
_CIRCLE_END = 2 * math.pi * 200 / 201

# per figure: axes in row order, output header -> cell, fixed overrides,
# filter knobs in the metadata, row count, first and last axis values
FIGURE_GRIDS = {
    "fig2a": (("theta_rad", "delta_c_over_omega_m"),
              {"en_te_mech": _TE, "en_tm_mech": _TM},
              {}, {}, 1005,
              (0.0, 0.5), (math.pi / 2, 1.5)),
    "fig2b": (("theta_rad",), {"en_te_mech": _TE, "en_tm_mech": _TM},
              {"delta_c_over_omega_m": 1.0}, {}, 201,
              (0.0,), (_CIRCLE_END,)),
    "fig2c": (("delta_c_over_omega_m", "theta_rad"),
              {"en_te_mech": _TE, "en_tm_mech": _TM}, {}, {}, 10201,
              (0.5, 0.0), (1.5, math.pi / 2)),
    "fig2d": (("delta_c_over_omega_m", "theta_rad"),
              {"coupling_mag_te_over_omega_m":
               ("coupling_magnitude_TE", "coupling_mag_te_over_omega_m")},
              {}, {}, 10201, (0.5, 0.0), (1.5, math.pi / 2)),
    "fig3a": (("epsilon", "theta_rad"), _OUT, {"delta_c_over_omega_m": 1.0},
              {"omega_over_omega_m": -1.0}, 1005,
              (1.0, 0.0), (20.0, _CIRCLE_END)),
    "fig3b": (("epsilon", "omega_over_omega_m", "theta_rad"), _OUT,
              {"delta_c_over_omega_m": 1.0}, {}, 3255,
              (1.0, -2.0, 0.0), (20.0, 0.0, math.pi / 2)),
    "fig4a": (("temperature_k", "theta_rad"), _OUT,
              {"delta_c_over_omega_m": 1.0},
              {"epsilon": 10.0, "omega_over_omega_m": -1.0}, 1681,
              (0.02, 0.0), (3.0, math.pi / 2)),
    "fig4b": (("omega_over_omega_m", "temperature_k"), _OUT,
              {"delta_c_over_omega_m": 1.0}, {"epsilon": 10.0}, 1681,
              (-2.0, 0.02), (0.0, 3.0)),
    "fig4c": (("theta_rad", "q_cavity"),
              {"en_te_mech": _TE, "en_tm_mech": _TM},
              {"delta_c_over_omega_m": 0.6}, {}, 3721,
              (0.0, 1e6), (math.pi / 2, 1e9)),
    "fig4d": (("delta_c_over_omega_m", "q_cavity"), {"en_te_mech": _TE},
              {"theta_rad": 0.0}, {}, 3721, (0.5, 1e6), (1.5, 1e9)),
}

_PROBED = ("theta_rad", "delta_c_over_omega_m", "temperature_k", "q_cavity")


def _stub_point(record, epsilon, omega_over_omega_m, target):
    # echoes what reached the evaluation: the target, the filter knobs and
    # the config keys any figure varies
    assert set(record) == set(PAPER_BASELINE)
    value = ((target, epsilon, omega_over_omega_m)
             + tuple(record[k] for k in _PROBED))
    diags = {"coupling_mag_te_over_omega_m": ("diagnostic of", target)}
    return value, True, diags, ""


def _expected_cells(cells, overrides, knobs, axes, axis_values):
    point = {**PAPER_BASELINE, "epsilon": 10.0, "omega_over_omega_m": -1.0,
             **overrides, **knobs, **dict(zip(axes, axis_values))}
    echo = tuple(point[k] for k in ("epsilon", "omega_over_omega_m")
                 + _PROBED)
    return tuple((target,) + echo if isinstance(target, str)
                 else ("diagnostic of", target[0]) for target in cells)


def test_every_figure_grid(monkeypatch):
    _replace(monkeypatch, _evaluate_point, _stub_point)
    assert set(FIGURE_GRIDS) == set(FIGURES)
    total = 0
    for fig, grid in FIGURE_GRIDS.items():
        axes, outputs, overrides, knobs, count, first, last = grid
        t = reproduce_figure(fig)
        total += len(t.rows)
        assert t.columns == axes + tuple(outputs) + ("stable", "error"), fig
        assert len(t.rows) == count, fig
        n = len(axes)
        assert t.rows[0][:n] == pytest.approx(first, rel=1e-15), fig
        assert t.rows[-1][:n] == pytest.approx(last, rel=1e-15), fig
        # the last axis varies fastest
        assert t.rows[1][:n - 1] == t.rows[0][:n - 1], fig
        assert t.rows[1][n - 1] > t.rows[0][n - 1], fig
        for row in (t.rows[0], t.rows[-1]):
            cells = _expected_cells(outputs.values(), overrides, knobs, axes,
                                    row[:n])
            assert row[n:] == cells + (True, ""), fig
        assert t.meta == {"figure": fig, "description": t.meta["description"],
                          "base_parameters": PAPER_BASELINE,
                          "overrides": overrides, **knobs}, fig
        assert t.meta["description"], fig
    assert total == 36672


def test_fig2b_shape_and_symmetry():
    t = reproduce_figure("fig2b")
    assert len(t.rows) == 201
    cols = list(t.columns)
    i_th = cols.index("theta_rad")
    i_te = cols.index("en_te_mech")
    i_tm = cols.index("en_tm_mech")
    by_theta = {r[i_th]: r for r in t.rows}
    # polarization swap symmetry on the circle
    a = by_theta[min(by_theta, key=lambda x: abs(x - 0.4))]
    b = by_theta[min(by_theta, key=lambda x: abs(x - (math.pi / 2 - 0.4)))]
    assert a[i_te] == pytest.approx(b[i_tm], abs=2e-3)
    assert t.meta["figure"] == "fig2b"


def test_figure_rerun_is_byte_identical(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    reproduce_figure("fig2b", out_path=p1)
    reproduce_figure("fig2b", out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()
