"""Parameter sweeps over stability and entanglement.

A sweep varies one or two axes over a dense grid and evaluates a single
scalar target at every point. Unstable operating points are data, not
errors: the row is kept with its stability flag cleared and the target
withheld (``unstable`` in CSV, null in the structured format). Every row
also carries the operating-point diagnostics that make an entanglement
number interpretable after the fact. The canned figures run through the
same grid loop, over up to three axes and two targets.
"""

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import CONFIG_KEYS, PAPER_BASELINE, build_params, params_record
from .gaussian import _negativity_of_nu, min_symplectic_pt, reduce_bipartite
from .lyapunov import LyapunovError
from .params import ParameterError
from .pipeline import _covariance, operating_point
from .steadystate import UnstableOperatingPointError

TARGETS = (
    "EN_TE_mech_intracavity",
    "EN_TM_mech_intracavity",
    "EN_TE_TM_intracavity",
    "EN_TE_mech_output",
    "coupling_magnitude_TE",
    "coupling_magnitude_TM",
    "stability_flag",
)

# Sweepable axes: every config key plus the two filter knobs.
AXIS_NAMES = CONFIG_KEYS + ("epsilon", "omega_over_omega_m")

_TARGET_PAIR = {
    "EN_TE_mech_intracavity": ("te", "mech"),
    "EN_TM_mech_intracavity": ("tm", "mech"),
    "EN_TE_TM_intracavity": ("te", "tm"),
    "EN_TE_mech_output": ("te", "mech"),
}

# operating-point diagnostics of every evaluation, NaN where not reached
_DIAGNOSTICS = ("q_s", "delta_eff_over_omega_m",
                "coupling_mag_te_over_omega_m",
                "coupling_mag_tm_over_omega_m", "nu_min")

FORMAT_TAG = "polaromech.sweep.v1"


@dataclass(frozen=True)
class Axis:
    """One sweep axis: evenly spaced grid of count points on [low, high]."""

    name: str
    low: float
    high: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError("unknown axis %r; expected one of %r"
                             % (self.name, AXIS_NAMES))
        if self.count < 2:
            raise ValueError("axis %r: count must be at least 2" % self.name)
        if not self.low < self.high:
            raise ValueError("axis %r: need low < high, got [%r, %r]"
                             % (self.name, self.low, self.high))

    def grid(self):
        return np.linspace(self.low, self.high, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: one or two axes, a target, and fixed overrides.

    overrides maps config keys (or the filter knobs) to fixed values layered
    over the base parameters before the axes are applied.
    """

    axis1: Axis
    target: str
    axis2: Axis | None = None
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError("unknown target %r; expected one of %r"
                             % (self.target, TARGETS))
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise ValueError("axis2 repeats axis1 (%r)" % self.axis1.name)
        for key in self.overrides:
            if key not in AXIS_NAMES:
                raise ValueError("unknown override key %r" % (key,))


@dataclass(frozen=True)
class ResultTable:
    """Column-named rows plus the metadata needed to rerun them."""

    columns: tuple
    rows: tuple
    meta: dict

    def to_csv(self):
        """Comma-separated text, floats at full precision.

        Withheld values (unstable points) appear as the sentinel string
        ``unstable``; numeric failures appear as ``nan``.
        """
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(x) for x in row))
        return "\n".join(lines) + "\n"

    def to_structured(self):
        """JSON-ready dict: metadata, columns, rows; non-finite values null."""
        return {
            "format": FORMAT_TAG,
            "meta": _jsonable(self.meta),
            "columns": list(self.columns),
            "rows": [[_jsonable(x) for x in row] for row in self.rows],
        }

    def write(self, path, fmt="csv"):
        if fmt == "csv":
            text = self.to_csv()
        elif fmt == "structured":
            text = json.dumps(self.to_structured(), indent=2, sort_keys=True) + "\n"
        else:
            raise ValueError("format must be 'csv' or 'structured', got %r" % fmt)
        with open(path, "w") as fh:
            fh.write(text)
        return path


def _csv_cell(x):
    if x is None:
        return "unstable"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    return "%.17g" % x


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, str)) or x is None:
        return x
    xf = float(x)
    return xf if math.isfinite(xf) else None


_NAN = float("nan")


def _evaluate_point(record, epsilon, omega_over_omega_m, target):
    """One grid point -> (value, stable, diagnostics dict, error code).

    value is None when withheld (unstable point under a non-stability
    target), NaN when a numeric step failed.
    """
    diags = dict.fromkeys(_DIAGNOSTICS, _NAN)
    try:
        params = build_params(record)
    except (ParameterError, ValueError) as err:
        return _NAN, False, diags, "config: %s" % err
    try:
        dp, ss = operating_point(params)
    except UnstableOperatingPointError:
        if target == "stability_flag":
            return 0.0, False, diags, ""
        return None, False, diags, "unstable"
    except ArithmeticError as err:
        return _NAN, False, diags, "numeric: %s" % err

    w = dp.mech_freq
    diags["q_s"] = ss.q_s
    diags["delta_eff_over_omega_m"] = ss.detuning / w
    diags["coupling_mag_te_over_omega_m"] = abs(ss.coupling_te) / w
    diags["coupling_mag_tm_over_omega_m"] = abs(ss.coupling_tm) / w

    if target == "stability_flag":
        return 1.0, True, diags, ""
    if target == "coupling_magnitude_TE":
        return abs(ss.coupling_te), True, diags, ""
    if target == "coupling_magnitude_TM":
        return abs(ss.coupling_tm), True, diags, ""

    where = "output" if target == "EN_TE_mech_output" else "intracavity"
    try:
        v = _covariance(dp, ss, where, epsilon, omega_over_omega_m)
        nu = min_symplectic_pt(reduce_bipartite(v, _TARGET_PAIR[target]))
        diags["nu_min"] = nu
        return _negativity_of_nu(nu), True, diags, ""
    except ParameterError as err:
        return _NAN, True, diags, "config: %s" % err
    except (LyapunovError, ArithmeticError, np.linalg.LinAlgError) as err:
        return _NAN, True, diags, "numeric: %s" % err


def _split_filter(settings):
    """(config record, epsilon, omega_over_omega_m) from one flat mapping.

    The filter knobs default to epsilon = 10 and the Stokes sideband
    Omega = -omega_m; every other key belongs to the config record.
    """
    record = dict(settings)
    return (record, float(record.pop("epsilon", 10.0)),
            float(record.pop("omega_over_omega_m", -1.0)))


def _grid(settings, axes, cells):
    """Rows over the cartesian product of axes, last axis fastest.

    settings maps every config key (and optionally the filter knobs) to its
    fixed value; axes are (name, values) pairs whose value replaces the
    setting at each point. A row holds the axis values, then one entry per
    cell: "stable", "error", a target (its value) or a (target, diagnostic)
    pair. The first target decides stable; later targets run only on a
    stable row and otherwise repeat the first; the first error wins.
    """
    targets = list(dict.fromkeys(
        c if isinstance(c, str) else c[0] for c in cells
        if c not in ("stable", "error")))
    names = [name for name, _ in axes]
    rows = []
    for values in itertools.product(*[[float(v) for v in grid]
                                      for _, grid in axes]):
        record, eps, om = _split_filter({**settings, **dict(zip(names, values))})
        first = _evaluate_point(record, eps, om, targets[0])
        got = {targets[0]: first}
        for target in targets[1:]:
            got[target] = (_evaluate_point(record, eps, om, target)
                           if first[1] else first)
        named = {target: g[0] for target, g in got.items()}
        named["stable"] = first[1]
        named["error"] = next((g[3] for g in got.values() if g[3]), "")
        rows.append(values + tuple(named[c] if isinstance(c, str)
                                   else got[c[0]][2][c[1]] for c in cells))
    return rows


def run_sweep(spec, base=None):
    """Evaluate spec.target on the full axis grid; axis2 varies fastest.

    base is a SystemParams supplying every non-swept parameter (the
    baseline set when omitted). The sweep always completes: per-point
    failures are recorded in the row's error column.
    """
    settings = dict(PAPER_BASELINE) if base is None else params_record(base)
    settings.update((k, float(v)) for k, v in spec.overrides.items())
    axes = [spec.axis1] + ([spec.axis2] if spec.axis2 is not None else [])
    cells = ((spec.target, "stable")
             + tuple((spec.target, c) for c in _DIAGNOSTICS) + ("error",))
    rows = _grid(settings, [(a.name, a.grid()) for a in axes], cells)
    record, eps, om = _split_filter(settings)
    meta = {
        "target": spec.target,
        "axes": [{"name": a.name, "low": a.low, "high": a.high,
                  "count": a.count} for a in axes],
        "base_parameters": record,
        "epsilon": eps,
        "omega_over_omega_m": om,
        "overrides": dict(spec.overrides),
    }
    columns = (tuple(a.name for a in axes) + (spec.target, "stable")
               + _DIAGNOSTICS + ("error",))
    return ResultTable(columns=columns, rows=tuple(rows), meta=meta)
