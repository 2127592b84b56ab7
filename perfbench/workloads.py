"""The benchmark's workloads.

Each workload turns a seed into inputs, runs one round of timed public
polaromech calls at a time, checks the round's outputs against reference.py
and properties of the model, and shows once per run that every check
rejects a known-wrong input. Rounds repeat the same operations, so every
round of a run attempts the same work.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from reference import CheckFailed, expect_close

HALF_PI = math.pi / 2

# Program vs Kronecker solve and eigenvalue-route E_N; 1.6e-13 observed.
INTRACAVITY_EN_TOL = 1e-9
# TE at theta vs TM at pi/2 - theta; 6.5e-15 observed.
SWAP_TOL = 1e-11
# Static displacement of the selected branch, relative.
Q_S_RTOL = 1e-8
# A reference abscissa this close to the stability margin decides nothing.
ABSCISSA_SLACK = 1e-9
# Filtered output vs the Van Loan route, relative to E_N + 1e-3. The routes
# differ by the coloured-vs-Markovian mirror bath; 4e-4 observed at 3 K.
OUTPUT_EN_RTOL = 5e-3
PHYSICALITY_TOL = 1e-9
# Point-call inputs stay this far inside the stable region.
POINT_MARGIN = 1e-6


@dataclass
class Round:
    """One round: seconds and latencies at reference speed, wall in plain seconds."""

    ops: int
    seconds: float = 0.0
    wall: float = 0.0
    failed: int = 0
    latencies: list = field(default_factory=list)
    outputs: object = None
    csv_bytes: int = 0
    errors: list = field(default_factory=list)

    def add_step(self, elapsed, speed, latencies=()):
        """Account a timed step and rescale it by the speed probe around it."""
        factor = speed.scale(elapsed)
        self.wall += elapsed
        self.seconds += elapsed * factor
        self.latencies += [t * factor for t in latencies]


def run_calls(calls, call, speed, per_call):
    """Time call(*args) for each args in calls; a failed call is counted, not fatal.

    The speed probe runs after every call when per_call is true, else once
    after the round.
    """
    rnd = Round(ops=len(calls), outputs=[])
    clock = time.perf_counter
    step, ok = 0.0, []
    for args in calls:
        start = clock()
        try:
            value = call(*args)
        except Exception as err:
            value = None
            rnd.failed += 1
            rnd.errors.append("%s: %s" % (type(err).__name__, err))
        elapsed = clock() - start
        step += elapsed
        if value is not None:
            ok.append(elapsed)
        rnd.outputs.append(value)
        if per_call:
            rnd.add_step(step, speed, ok)
            step, ok = 0.0, []
    if not per_call:
        rnd.add_step(step, speed, ok)
    return rnd


def rejects(check, *args):
    """True when check(*args) raises CheckFailed."""
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def check_exact_zero(label, value):
    if value != 0.0:
        raise CheckFailed("%s: dark mode reads %r, not exactly 0.0" % (label, value))


def check_unstable(label, rec):
    """The reference finds no root of the cubic with a stable drift."""
    for x, abscissa, _ in ref.operating_branches(ref.scaled_model(rec)):
        if abscissa < -(ref.STABILITY_MARGIN + ABSCISSA_SLACK):
            raise CheckFailed("%s: program reports unstable, reference root "
                              "x=%.17g has abscissa %.3g" % (label, x, abscissa))


def check_intracavity(label, rec, values):
    """values maps a mode pair to the program's E_N at the record."""
    v = ref.intracavity_cm(rec)
    if v is None:
        raise CheckFailed("%s: program reports a stable point, reference "
                          "finds no stable root" % label)
    for pair, got in values.items():
        want = ref.log_negativity_eig(ref.pair_block(v, pair))
        expect_close("%s %s-%s" % (label, *pair), got, want, INTRACAVITY_EN_TOL)


def record_of(pm, **keys):
    rec = dict(pm.PAPER_BASELINE)
    rec.update(keys)
    return rec


def overrides_of(rec):
    """paper_params keyword overrides reproducing a config record."""
    return {
        "optical_quality": rec["q_cavity"],
        "temperature": rec["temperature_k"],
        "polarization_angle": rec["theta_rad"],
        "cavity_detuning": rec["delta_c_over_omega_m"] * rec["omega_m_rad_s"],
        "drive_power": rec["power_w"],
    }


def pick_stable(rng, draw, margin):
    """Redraw until the reference puts the point inside the stable region."""
    while True:
        rec = draw(rng)
        for _, abscissa, _ in ref.operating_branches(ref.scaled_model(rec)):
            if abscissa < -margin:
                return rec


class IntracavityMaps:
    """Canned intracavity figures and a detuning x power sweep.

    An operation is one grid point. fig2a and fig4c solve both
    polarizations per point; fig4c reaches the overdamped Q_c = 1e6 corner.
    The sweep crosses from blue detuning, where every point is unstable,
    into the three-root window at strong red-detuned drive.
    """

    FIGURES = ("fig2a", "fig4c")
    # deviations from the baseline that are not axis columns of the table
    FIGURE_SETTINGS = {"fig2a": {}, "fig4c": {"delta_c_over_omega_m": 0.6}}
    GRID = (41, 25)
    # figure rows checked against the reference in the first round / later
    # rounds; every sweep row is checked in the first round
    FIRST_SAMPLE_ROWS = 400
    SAMPLE_ROWS = 60

    def __init__(self, pm, seed):
        self.pm = pm
        rng = np.random.default_rng(seed)
        self.delta_range = (-0.5 + rng.uniform(-0.05, 0.05),
                            2.5 + rng.uniform(-0.05, 0.05))
        self.power_range = (0.01 * rng.uniform(0.9, 1.1),
                            0.5 * rng.uniform(0.95, 1.05))
        self.theta = float(rng.uniform(0.0, math.pi / 4))
        self.spec = pm.SweepSpec(
            axis1=pm.Axis("delta_c_over_omega_m", *self.delta_range, self.GRID[0]),
            axis2=pm.Axis("power_w", *self.power_range, self.GRID[1]),
            target="EN_TE_mech_intracavity",
            overrides={"theta_rad": self.theta})
        self.sample_rng = np.random.default_rng([seed, 1])
        self.first_csv = None
        self.shares = {}

    def warm_up(self):
        self.pm.run_sweep(self.pm.SweepSpec(
            axis1=self.pm.Axis("delta_c_over_omega_m", 1.0, 1.1, 2),
            target="EN_TE_mech_intracavity"))

    def run_round(self, speed):
        pm = self.pm
        steps = [lambda f=f: pm.reproduce_figure(f) for f in self.FIGURES]
        steps.append(lambda: pm.run_sweep(self.spec))
        rnd = Round(ops=0, outputs=([], []))
        tables, csv = rnd.outputs
        for step in steps:
            start = time.perf_counter()
            table = step()
            text = table.to_csv()
            rnd.add_step(time.perf_counter() - start, speed)
            tables.append(table)
            csv.append(text)
        rnd.ops = sum(len(t.rows) for t in tables)
        rnd.csv_bytes = sum(len(c) for c in csv)
        for t in tables:
            err = t.columns.index("error")
            for row in t.rows:
                if row[err] not in ("", "unstable"):
                    rnd.failed += 1
                    rnd.errors.append(row[err])
        return rnd

    # -- figure rows ---------------------------------------------------

    def _figure_rows(self, fig, table):
        cols = table.columns
        axes = [c for c in cols if c in self.pm.PAPER_BASELINE]
        rows = []
        for row in table.rows:
            named = dict(zip(cols, row))
            rec = record_of(self.pm, **self.FIGURE_SETTINGS[fig])
            rec.update({a: named[a] for a in axes})
            rows.append((rec, named))
        return axes, rows

    def _check_figure(self, fig, table, full):
        axes, rows = self._figure_rows(fig, table)
        grid = [sorted({r[0][a] for r in rows}) for a in axes]
        if len(rows) != math.prod(len(g) for g in grid):
            raise CheckFailed("%s: %d rows for a %s grid"
                              % (fig, len(rows), [len(g) for g in grid]))
        thetas = grid[axes.index("theta_rad")]
        mirror = dict(zip(thetas, reversed(thetas)))
        for t in thetas:
            if abs(t + mirror[t] - HALF_PI) > 1e-12:
                raise CheckFailed("%s: theta grid is not symmetric about pi/4" % fig)
        by_key = {tuple(r[0][a] for a in axes): r for r in rows}
        for rec, named in rows:
            label = "%s %s" % (fig, {a: rec[a] for a in axes})
            if not named["stable"]:
                check_unstable(label, rec)
                continue
            if rec["theta_rad"] == 0.0:
                check_exact_zero(label + " tm-mech", named["en_tm_mech"])
            if rec["theta_rad"] == HALF_PI:
                check_exact_zero(label + " te-mech", named["en_te_mech"])
            twin = by_key[tuple(mirror[rec[a]] if a == "theta_rad" else rec[a]
                                for a in axes)][1]
            expect_close(label + " TE(theta) vs TM(pi/2 - theta)",
                         named["en_te_mech"], twin["en_tm_mech"], SWAP_TOL)
        size = self.FIRST_SAMPLE_ROWS if full else self.SAMPLE_ROWS
        picked = [rows[i] for i in self.sample_rng.choice(len(rows), size, replace=False)]
        for rec, named in picked:
            if named["stable"]:
                check_intracavity("%s %s" % (fig, {a: rec[a] for a in axes}), rec,
                                  {("te", "mech"): named["en_te_mech"],
                                   ("tm", "mech"): named["en_tm_mech"]})

    # -- sweep rows ----------------------------------------------------

    def _sweep_record(self, named):
        return record_of(self.pm, theta_rad=self.theta,
                         delta_c_over_omega_m=named["delta_c_over_omega_m"],
                         power_w=named["power_w"])

    def _check_sweep_row(self, rec, named):
        label = "sweep %.6g x %.6g W" % (named["delta_c_over_omega_m"], named["power_w"])
        if not named["stable"]:
            check_unstable(label, rec)
            if named[self.spec.target] is not None:
                raise CheckFailed("%s: unstable row carries a value" % label)
            return
        m = ref.scaled_model(rec)
        branch = ref.stable_branch(m)
        if branch is None:
            raise CheckFailed("%s: reference finds no stable root" % label)
        q_s = branch[0] * m["w"] / m["g0"]
        if not abs(named["q_s"] - q_s) <= Q_S_RTOL * abs(q_s):
            raise CheckFailed("%s: q_s %.17g, reference branch %.17g"
                              % (label, named["q_s"], q_s))
        check_intracavity(label, rec, {("te", "mech"): named[self.spec.target]})

    def _check_sweep(self, table, full):
        cols = table.columns
        rows = [dict(zip(cols, r)) for r in table.rows]
        if len(rows) != self.GRID[0] * self.GRID[1]:
            raise CheckFailed("sweep: %d rows, expected %d"
                              % (len(rows), self.GRID[0] * self.GRID[1]))
        picked = rows if full else [rows[i] for i in self.sample_rng.choice(
            len(rows), self.SAMPLE_ROWS, replace=False)]
        for named in picked:
            self._check_sweep_row(self._sweep_record(named), named)
        if full:
            roots = [len(ref.operating_branches(ref.scaled_model(self._sweep_record(n))))
                     for n in rows]
            self.shares = {
                "sweep_rows": len(rows),
                "unstable_share": sum(not n["stable"] for n in rows) / len(rows),
                "three_root_share": sum(r == 3 for r in roots) / len(rows),
                "three_root_stable_share":
                    sum(r == 3 and n["stable"] for r, n in zip(roots, rows)) / len(rows),
            }

    def check(self, rnd):
        tables, csv = rnd.outputs
        if self.first_csv is None:
            # the first round is checked most closely, later rounds must
            # reproduce it byte for byte and are spot-checked
            self.first_csv = csv
            full = True
        else:
            if csv != self.first_csv:
                raise CheckFailed("a repeated round produced different CSV text")
            full = False
        for fig, table in zip(self.FIGURES, tables):
            self._check_figure(fig, table, full)
        self._check_sweep(tables[-1], full)

    def negative_controls(self, rnd):
        tables, _ = rnd.outputs
        _, rows = self._figure_rows("fig4c", tables[1])
        stable = [(rec, n) for rec, n in rows if n["stable"]]
        rec, named = max(stable, key=lambda r: r[1]["en_te_mech"])
        shifted = dict(rec, delta_c_over_omega_m=rec["delta_c_over_omega_m"] * 1.001)
        first_theta = min(r[0]["theta_rad"] for r in stable if r[0]["theta_rad"] > 0.0)
        near_dark = max((r for r in stable if r[0]["theta_rad"] == first_theta),
                        key=lambda r: r[1]["en_tm_mech"])
        sweep = [dict(zip(tables[2].columns, r)) for r in tables[2].rows]
        good = [n for n in sweep if n["stable"] and n[self.spec.target] > 1e-3]
        bad = max(good, key=lambda n: n["power_w"])
        return {
            "intracavity_reference_shifted_detuning": rejects(
                check_intracavity, "control", shifted,
                {("te", "mech"): named["en_te_mech"]}),
            "swap_symmetry_same_theta": rejects(
                expect_close, "control", named["en_te_mech"], named["en_tm_mech"],
                SWAP_TOL),
            "dark_zero_near_dark_row": rejects(
                check_exact_zero, "control", near_dark[1]["en_tm_mech"]),
            "unstable_confirmation_stable_row": rejects(check_unstable, "control", rec),
            "sweep_branch_shifted_power": rejects(
                self._check_sweep_row,
                dict(self._sweep_record(bad), power_w=bad["power_w"] * 1.001), bad),
        }

    def describe(self):
        return {"delta_range": self.delta_range, "power_range": self.power_range,
                "theta_rad": self.theta, "grid": self.GRID, **self.shares}


class OutputScan:
    """Single filtered-output entanglement() calls.

    epsilon, Q_c and T are pinned per cell and the seed draws Omega/omega_m
    in [-2, 0] and theta in [0, pi/2]: the quadrature's cost jumps 2-10x
    when a point crosses a panel-doubling threshold, and the seeded cells
    are ones whose node count does not move under that draw, so the cost
    mix is the same for every seed. Three anchors are fixed.
    """

    # (epsilon, Q_c, T [K], pair)
    CELLS = (
        (1.0, 1e6, 0.02, "te"),
        (1.0, 1e6, 3.0, "tm"),
        (2.0, 1e6, 3.0, "te"),
        (10.0, 3e6, 0.4, "tm"),
        (20.0, 3e6, 3.0, "te"),
        (1.0, 1e7, 3.0, "tm"),
        (5.0, 1e7, 0.02, "te"),
        (20.0, 1e7, 0.02, "tm"),
        (10.0, 1e7, 3.0, "te"),
        (10.0, 1e8, 0.4, "te"),
        (2.0, 1e8, 3.0, "tm"),
        (20.0, 1e8, 0.02, "te"),
        (1.0, 1e9, 0.4, "te"),
        (5.0, 1e9, 1.0, "tm"),
        (20.0, 1e9, 0.02, "te"),
    )

    def __init__(self, pm, seed):
        self.pm = pm
        rng = np.random.default_rng(seed)
        self.points = []     # (record, epsilon, Omega/omega_m, pair)
        for eps, q, temp, mode in self.CELLS:
            om = float(rng.uniform(-2.0, 0.0))
            theta = float(rng.uniform(0.0, HALF_PI))
            self.points.append((record_of(pm, q_cavity=q, temperature_k=temp,
                                          theta_rad=theta), eps, om, (mode, "mech")))
        # fixed anchors: the overdamped corner, where the quadrature needs
        # about 90k nodes and the node count jumps with Omega and theta; the
        # README quick-start point; and its dark twin
        self.points.append((record_of(pm, q_cavity=1e6, temperature_k=0.02, theta_rad=0.0),
                            5.0, -1.0, ("te", "mech")))
        self.bright = len(self.points)
        self.points.append((record_of(pm, theta_rad=0.0), 10.0, -1.0, ("te", "mech")))
        self.dark = len(self.points)
        self.points.append((record_of(pm, theta_rad=HALF_PI), 10.0, -1.0, ("te", "mech")))
        self.calls = [(overrides_of(rec), eps, om, pair)
                      for rec, eps, om, pair in self.points]
        self.expected = [None] * len(self.points)
        self.rounds_checked = int(rng.integers(len(self.points)))

    def warm_up(self):
        # the anchors include the largest quadrature grids, whose first
        # allocation is slower than any later one
        for args in self.calls[-3:]:
            self.call(*args)

    def call(self, ov, eps, om, pair):
        pm = self.pm
        return pm.entanglement(pm.paper_params(**ov), pair=pair, where="output",
                               epsilon=eps, omega_over_omega_m=om)

    def run_round(self, speed):
        return run_calls(self.calls, self.call, speed, per_call=True)

    def _reference(self, i, flip=False):
        rec, eps, om, pair = self.points[i]
        v = ref.output_cm(rec, eps, -om if flip else om)
        return ref.log_negativity_eig(ref.pair_block(v, pair))

    def _check_point(self, i, got, flip=False):
        want = self._reference(i, flip)
        rec, eps, om, pair = self.points[i]
        expect_close("output eps=%g Omega=%.6g Q_c=%.3g T=%g theta=%.6g %s-%s"
                     % (eps, om, rec["q_cavity"], rec["temperature_k"],
                        rec["theta_rad"], *pair),
                     got, want, OUTPUT_EN_RTOL * (abs(want) + 1e-3))

    def _check_physical(self, i, v, got):
        margin = ref.physicality_margin(v)
        if not margin >= -PHYSICALITY_TOL:
            raise CheckFailed("output point %d: V + i Omega/2 has eigenvalue %.3g" % (i, margin))
        pair = self.points[i][3]
        expect_close("output point %d: E_N of the returned CM" % i, got,
                     ref.log_negativity_eig(ref.pair_block(v, pair)), INTRACAVITY_EN_TOL)

    def check(self, rnd):
        for i, got in enumerate(rnd.outputs):
            if got is None:
                continue
            if self.expected[i] is None:
                self._check_point(i, got)
                self.expected[i] = got
            elif got != self.expected[i]:
                raise CheckFailed("output point %d: %r, earlier round %r"
                                  % (i, got, self.expected[i]))
        check_exact_zero("output theta = pi/2 te-mech", rnd.outputs[self.dark])
        # physicality of one point per round, cycling through the set
        i = self.rounds_checked % len(self.points)
        self.rounds_checked += 1
        if rnd.outputs[i] is not None:
            self._check_physical(i, self._output_cm(i), rnd.outputs[i])

    def _output_cm(self, i):
        ov, eps, om, _ = self.calls[i]
        v, _, _ = self.pm.output_cm_at(self.pm.paper_params(**ov), eps, om)
        return np.array(np.asarray(v))

    def negative_controls(self, rnd):
        i = self.bright
        squeezed = self._output_cm(i)
        squeezed[:2, :2] *= 0.5
        return {
            "van_loan_reference_flipped_omega": rejects(
                self._check_point, self.bright, rnd.outputs[self.bright], True),
            "dark_zero_bright_point": rejects(
                check_exact_zero, "control", rnd.outputs[self.bright]),
            "physicality_halved_te_block": rejects(
                self._check_physical, i, squeezed, rnd.outputs[i]),
        }

    def describe(self):
        return {"points": [{"epsilon": eps, "omega_over_omega_m": om,
                            "q_cavity": rec["q_cavity"],
                            "temperature_k": rec["temperature_k"],
                            "theta_rad": rec["theta_rad"], "pair": "-".join(pair)}
                           for rec, eps, om, pair in self.points]}


class PointCalls:
    """Single intracavity entanglement() calls over all three mode pairs.

    Each operating point is drawn from the seed inside the stable region
    (red detuning, up to 80 mW); one point in four sits at theta = 0 or
    pi/2, where one polarization is dark.
    """

    POINTS = 256
    PAIRS = (("te", "mech"), ("tm", "mech"), ("te", "tm"))

    def __init__(self, pm, seed):
        self.pm = pm
        rng = np.random.default_rng(seed)
        self.records = []
        for i in range(self.POINTS):
            theta = {0: 0.0, 4: HALF_PI}.get(i % 8)

            def draw(r, theta=theta):
                return record_of(
                    pm, delta_c_over_omega_m=float(r.uniform(0.5, 1.5)),
                    power_w=float(r.uniform(0.005, 0.08)),
                    q_cavity=float(10.0 ** r.uniform(6.5, 9.0)),
                    temperature_k=float(r.uniform(0.02, 1.0)),
                    theta_rad=float(r.uniform(0.0, HALF_PI)) if theta is None else theta)

            self.records.append(pick_stable(rng, draw, POINT_MARGIN))
        self.calls = [(overrides_of(rec), pair) for rec in self.records
                      for pair in self.PAIRS]
        self.expected = None

    def warm_up(self):
        self.pm.entanglement(self.pm.paper_params())

    def call(self, ov, pair):
        pm = self.pm
        return pm.entanglement(pm.paper_params(**ov), pair=pair)

    def run_round(self, speed):
        return run_calls(self.calls, self.call, speed, per_call=False)

    @staticmethod
    def _check_record(label, rec, values):
        check_intracavity(label, rec, {p: v for p, v in values.items() if v is not None})
        dark = {0.0: "tm", HALF_PI: "te"}.get(rec["theta_rad"])
        if dark is not None:
            for pair, v in values.items():
                if dark in pair and v is not None:
                    check_exact_zero("%s %s-%s" % (label, *pair), v)

    def _values(self, rnd, k):
        n = len(self.PAIRS)
        return dict(zip(self.PAIRS, rnd.outputs[k * n:(k + 1) * n]))

    def check(self, rnd):
        if self.expected is None:
            for k, rec in enumerate(self.records):
                self._check_record("point %d" % k, rec, self._values(rnd, k))
            self.expected = list(rnd.outputs)
        elif rnd.outputs != self.expected:
            raise CheckFailed("a repeated round returned different values")

    def negative_controls(self, rnd):
        k = max(range(self.POINTS),
                key=lambda k: self._values(rnd, k)[("te", "mech")] or 0.0)
        values = self._values(rnd, k)
        shifted = dict(self.records[k])
        shifted["delta_c_over_omega_m"] *= 1.001
        return {
            "intracavity_reference_shifted_detuning": rejects(
                self._check_record, "control", shifted, values),
            "dark_zero_bright_pair": rejects(
                check_exact_zero, "control", values[("te", "mech")]),
        }

    def describe(self):
        recs = self.records
        return {"points": len(recs), "calls_per_round": len(self.calls),
                "dark_points": sum(r["theta_rad"] in (0.0, HALF_PI) for r in recs)}


WORKLOADS = {
    "intracavity_maps": IntracavityMaps,
    "output_scan": OutputScan,
    "point_calls": PointCalls,
}
