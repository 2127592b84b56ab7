"""Set-up probe: a fresh interpreter imports polaromech and completes one operation.

    python3 perfbench/probe.py <workload>

run.py starts this script several times and times each start until the
"done" line arrives; that interval is the benchmark's setup_s. The
operation is the first one its workload would run, at a fixed point.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import polaromech as pm  # noqa: E402


def first_grid_point():
    pm.run_sweep(pm.SweepSpec(axis1=pm.Axis("delta_c_over_omega_m", 1.0, 1.1, 2),
                              target="EN_TE_mech_intracavity"))


def first_output_call():
    pm.entanglement(pm.paper_params(), where="output", epsilon=10.0,
                    omega_over_omega_m=-1.0)


def first_point_call():
    pm.entanglement(pm.paper_params())


FIRST_OPERATION = {
    "intracavity_maps": first_grid_point,
    "output_scan": first_output_call,
    "point_calls": first_point_call,
}

if __name__ == "__main__":
    FIRST_OPERATION[sys.argv[1]]()
    print("done", flush=True)
