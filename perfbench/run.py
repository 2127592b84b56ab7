"""polaromech benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload intracavity_maps --seed 1 \
        --seconds 30 --trace 0

Run from the root of a polaromech checkout; the package is imported from
its src/ directory. The run

  1. times SETUP_REPEATS fresh interpreters from start through the import to
     the first completed operation (perfbench/probe.py), each rescaled to
     reference speed like a timed step, and keeps the median;
  2. builds the workload's inputs from --seed, warms up, then repeats whole
     rounds of timed public calls until they add up to about --seconds of
     wall time; each timed step is rescaled to reference speed by the
     calibration pass of perfbench/speed.py that follows it;
  3. checks every round's outputs (perfbench/reference.py) and, once, that
     each check rejects a known-wrong input;
  4. prints {"correct", "attempted", "failed", "metrics"} as its last line.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics of perfbench/tracer.py, per
round, with the traced-minus-untraced round time as trace.overhead_s. BLAS
runs on one thread in both. Raw samples go to perfbench/results/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 60


def probe_setup(workload):
    """Seconds from starting a fresh interpreter to its first completed operation."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "done" or proc.returncode != 0:
        raise RuntimeError("set-up probe for %s failed (exit %s)"
                           % (workload, proc.returncode))
    return elapsed


def import_package():
    if not (SRC / "polaromech" / "__init__.py").is_file():
        raise SystemExit("perfbench: no polaromech sources under %s; run from "
                         "the root of a polaromech checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import polaromech
    if SRC not in Path(polaromech.__file__).resolve().parents:
        raise SystemExit("perfbench: imported polaromech from %s, not from %s"
                         % (polaromech.__file__, SRC))
    return polaromech


def per_layer(tracer, rnd):
    """Per-layer numbers of one traced round."""
    calls = tracer.calls
    busy = {layer: float(tracer.busy[layer]) for layer in LAYERS}
    own = {layer: float(tracer.self_time[layer]) for layer in LAYERS}
    out_calls = calls["outputfield.output_cm"]
    return {
        "steadystate.calls_per_point": calls["steadystate.solve_steady_state"] / rnd.ops,
        "steadystate.busy_s": busy["steadystate"],
        "config.build_params.calls_per_point": calls["config.build_params"] / rnd.ops,
        "config.busy_s": busy["config"],
        "params.busy_s": busy["params"],
        "dynamics.spectral_abscissa.calls_per_point":
            calls["dynamics.spectral_abscissa"] / rnd.ops,
        "dynamics.busy_s": busy["dynamics"],
        "lyapunov.solve_lyapunov.calls_per_point": calls["lyapunov.solve_lyapunov"] / rnd.ops,
        "lyapunov.busy_s": busy["lyapunov"],
        "gaussian.min_symplectic_pt.calls_per_point":
            calls["gaussian.min_symplectic_pt"] / rnd.ops,
        "gaussian.busy_s": busy["gaussian"],
        "outputfield.busy_s": busy["outputfield"],
        # filter_fourier sees each node four times: +w and -w, TE and TM
        "outputfield.nodes_per_call": tracer.nodes / 4 / out_calls if out_calls else 0.0,
        "pipeline.self_s": own["pipeline"],
        "sweep.self_s": own["sweep"],
        "figures.self_s": own["figures"],
        "sweep.to_csv_s": float(tracer.call_time["sweep.ResultTable.to_csv"]),
        "sweep.csv_bytes": rnd.csv_bytes,
    }


def traced_round(wl, tracer, speed):
    tracer.reset()
    tracer.install()
    try:
        return wl.run_round(speed)
    finally:
        tracer.uninstall()


UNITS = {"_s": "s", "calls_per_point": "calls/point", "nodes_per_call": "nodes/call",
         "csv_bytes": "bytes"}


def unit_of(name):
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pm = import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))

    # one core for this process and its set-up probes, so that the speed
    # passes run where the measured code runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = SpeedProbe()
    speed.start()
    setup_wall = []
    setup = []
    for _ in range(SETUP_REPEATS):
        setup_wall.append(probe_setup(args.workload))
        setup.append(setup_wall[-1] * speed.scale(setup_wall[-1]))
    wl = workloads.WORKLOADS[args.workload](pm, args.seed)
    wl.warm_up()
    speed.start()

    tracer = Tracer() if args.trace else None

    problems = []
    rounds, traced, layer_rows, overheads = [], [], [], []
    measured = 0.0
    # whole rounds only; stop where the timed wall time lands closest to --seconds
    while not rounds or measured + measured / len(rounds) / 2 < args.seconds:
        if tracer is None:
            rnd = wl.run_round(speed)
            done = [rnd]
        else:
            # alternate which round of a pair goes first, so that a drift in
            # machine speed does not read as tracing overhead
            if len(rounds) % 2:
                trnd = traced_round(wl, tracer, speed)
                rnd = wl.run_round(speed)
            else:
                rnd = wl.run_round(speed)
                trnd = traced_round(wl, tracer, speed)
            traced.append(trnd)
            layer_rows.append(per_layer(tracer, trnd))
            overheads.append(trnd.wall - rnd.wall)
            done = [rnd, trnd]
        rounds.append(rnd)
        measured += sum(r.wall for r in done)
        for r in done:
            try:
                wl.check(r)
            except workloads.CheckFailed as err:
                problems.append(str(err))
    controls = wl.negative_controls(rounds[0])
    problems += ["check accepted a known-wrong input: %s" % name
                 for name, rejected in controls.items() if not rejected]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = rounds + traced
    attempted = sum(r.ops for r in every)
    failed = sum(r.failed for r in every)
    rates = [r.ops / r.seconds for r in rounds]
    latencies = [t for r in rounds for t in r.latencies]
    if latencies:
        p50_us = statistics.median(latencies) * 1e6
    else:
        # grid points are not separately callable: the time per point of a round
        p50_us = statistics.median(r.seconds / r.ops for r in rounds) * 1e6

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "points_per_s": (statistics.median(rates), "1/s"),
            "latency_p50_us": (p50_us, "us"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {name: (statistics.median(row[name] for row in layer_rows), unit_of(name))
                   for name in layer_rows[0]}
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_s": setup, "setup_wall_s": setup_wall,
        "round_seconds": [r.seconds for r in rounds],
        "round_wall_s": [r.wall for r in rounds],
        "round_ops": [r.ops for r in rounds],
        "traced_round_wall_s": [r.wall for r in traced],
        "wall_points_per_s": statistics.median(r.ops / r.wall for r in rounds),
        "speed_passes_s": speed.passes,
        "latency_us_quartiles": [q * 1e6 for q in statistics.quantiles(latencies, n=4)]
        if len(latencies) > 1 else None,
        "latency_count": len(latencies),
        "negative_controls": controls, "problems": problems,
        "errors": sorted({e for r in every for e in r.errors}),
        "inputs": wl.describe(),
        "metrics": {k: v[0] for k, v in metrics.items()},
    }
    if tracer is not None:
        details["calls_per_traced_round"] = dict(sorted(tracer.calls.items()))
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(details, indent=1, default=list) + "\n")

    for p in problems[:20]:
        print("CHECK FAILED: " + p, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
