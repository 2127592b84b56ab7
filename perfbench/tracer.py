"""Per-layer spans for the traced benchmark run.

The layers are the modules of polaromech. Installing a Tracer replaces every
module-level reference to a public function of a layer (and every public
method of a layer's public classes) with a timing wrapper. References are
found by identity in every loaded polaromech module, so a call that one
module makes into another, such as pipeline.solve_lyapunov or
steadystate.spectral_abscissa, is counted as well as the benchmark's own
calls. uninstall() puts the originals back, so untraced rounds run the
unwrapped program.

For each layer the tracer keeps:
  busy: wall time inside the layer's outermost spans (a span nested in
        another span of the same layer is not counted twice), including the
        time of the other layers it calls;
  self: wall time of the layer's spans minus the time of their child spans.
It also keeps the call count and inclusive time of each wrapped function,
and the number of frequency nodes passed to outputfield.filter_fourier.
"""

import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("config", "params", "steadystate", "dynamics", "lyapunov",
          "gaussian", "outputfield", "pipeline", "sweep", "figures")

NODE_COUNTER = "outputfield.filter_fourier"


class Tracer:
    def __init__(self):
        self.busy = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.call_time = Counter()
        self.nodes = 0
        self._stack = []            # [layer, child seconds] per open span
        self._depth = Counter()
        self._patched = []          # (owner, attribute, original)
        self._wrappers = {}         # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module("polaromech." + layer)
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
                elif inspect.isclass(obj):
                    for attr, meth in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(meth):
                            qual = "%s.%s" % (name, attr)
                            self._wrappers[id(meth)] = (meth, self._wrap(meth, layer, qual))

    def reset(self):
        self.busy.clear()
        self.self_time.clear()
        self.calls.clear()
        self.call_time.clear()
        self.nodes = 0

    def _wrap(self, func, layer, name):
        key = "%s.%s" % (layer, name)
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if key == NODE_COUNTER:
                self.nodes += int(np.size(args[1] if len(args) > 1 else kwargs["omega"]))
            frame = [layer, 0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[layer] -= 1
                self.self_time[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if depth[layer] == 0:
                    self.busy[layer] += elapsed
                self.calls[key] += 1
                self.call_time[key] += elapsed

        traced.__wrapped__ = func
        return traced

    def install(self):
        owners = [m for n, m in list(sys.modules.items())
                  if n == "polaromech" or n.startswith("polaromech.")]
        owners += [obj for m in owners for obj in vars(m).values()
                   if inspect.isclass(obj)
                   and getattr(obj, "__module__", "").startswith("polaromech")]
        seen = set()
        for owner in owners:
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            for attr, value in list(vars(owner).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self._patched.append((owner, attr, value))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
