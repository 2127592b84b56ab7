"""The machine's speed at a moment, from a fixed calibration pass.

On a shared virtual machine the speed of one core wanders by 2-3x over
seconds to minutes, and whole runs of the same code have read up to 25 %
apart on their medians. The benchmark therefore times a fixed pass of the
reference solver after every timed step and scales the step's wall time by
REFERENCE_PASS_S / (the mean pass time around it). Times are so given at the
speed at which the pass takes REFERENCE_PASS_S, which is about its median
on the machine the README's figures were taken on.

The pass is fixed: its inputs are written out here and it runs
reference.py only, so no change to polaromech changes it.
"""

import math
import time

import numpy as np

import reference as ref

PASS_POINTS = 64
REFERENCE_PASS_S = 0.018
SAMPLE_SHARE = 0.05

# the README baseline table; fixed here so that the pass never changes
_BASE = {
    "mass_kg": 5e-12, "wavelength_m": 810e-9, "omega_m_rad_s": 2e7 * np.pi,
    "g0_rad_s": 242.4, "q_cavity": 1e8, "q_mech": 1e5, "temperature_k": 0.4,
    "power_w": 0.05, "delta_c_over_omega_m": 1.0, "theta_rad": 0.0,
}


class SpeedProbe:
    """Calibration passes of PASS_POINTS reference solves at fixed points."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.records = [dict(_BASE, delta_c_over_omega_m=float(rng.uniform(0.6, 1.4)),
                             theta_rad=float(rng.uniform(0.0, 1.5)),
                             q_cavity=float(10.0 ** rng.uniform(7.0, 9.0)))
                        for _ in range(PASS_POINTS)]
        self.last = None
        self.passes = []

    def measure(self):
        start = time.perf_counter()
        for rec in self.records:
            ref.intracavity_cm(rec)
        self.passes.append(time.perf_counter() - start)
        return self.passes[-1]

    def start(self):
        self.last = self.measure()

    def scale(self, elapsed):
        """Factor that turns a step of elapsed wall seconds, just ended, into reference time.

        A single pass jitters by about 20 %, so a step is followed by enough
        passes to last SAMPLE_SHARE of it, and their mean is its speed.
        """
        count = max(1, math.ceil(SAMPLE_SHARE * elapsed / REFERENCE_PASS_S))
        before, self.last = self.last, sum(self.measure() for _ in range(count)) / count
        return 2.0 * REFERENCE_PASS_S / (before + self.last)
