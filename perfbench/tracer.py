"""Per-layer tracing from outside the program.

Each traced function of a spinreadout module is wrapped once; `install`
rebinds every name in every loaded spinreadout namespace that refers to the
original (for example `spinreadout.cli.sweep_grid` and
`spinreadout.error_analysis.avg_abs_error`), and `uninstall` puts the
originals back.  The wrappers keep, per function, the call count, the
inclusive time and the self time (inclusive minus the time of traced callees),
plus the first `SPAN_CAP` spans for the trace dump; names in `COUNT_ONLY`
get their calls counted and nothing else.

Only layer boundaries are wrapped.  Leaves such as `core.basis_index` run
hundreds of times per operation and a wrapper there would cost more than the
call itself.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = {
    "cli": ("main", "grid_to_csv"),
    "error_analysis": (
        "sweep_grid",
        "panel_axes",
        "avg_abs_error",
        "probabilities_closed_form",
        "extremal_error",
        "measurement_error",
    ),
    "protocol": ("run_readout", "noisy_sequence"),
    "core": ("compose", "apply"),
    "montecarlo": ("sample_readout",),
    "quadrature": ("integrate_adaptive",),
}

# Functions whose calls are only counted: they run ~100 times per operation,
# and timing each call would inflate the times of their callers.
COUNT_ONLY = {"error_analysis.measurement_error"}

SPAN_CAP = 5_000


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive ns, self ns]
        self.stats: dict[str, list[int]] = {}
        # (operation index, depth, name, start ns, end ns)
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.op_index = 0
        self._stack: list[int] = []
        self._wrapper_by_id = {}  # id of an original function -> its wrapper
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"spinreadout.{module_name}")
            for name in names:
                original = getattr(module, name)
                self._wrapper_by_id[id(original)] = self._wrap(f"{module_name}.{name}", original)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stats[0] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                if len(spans) < SPAN_CAP:
                    spans.append((self.op_index, len(stack), name, start, start + elapsed))

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "spinreadout" or n.startswith("spinreadout."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrapper_by_id.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def inclusive_ns(self, name: str) -> int:
        return self.stats[name][1]

    def self_ns(self, name: str) -> int:
        return self.stats[name][2]

    def dump(self) -> dict:
        return {
            "layers": {
                name: {"calls": c, "inclusive_ns": inc, "self_ns": own}
                for name, (c, inc, own) in self.stats.items()
            },
            "span_fields": ["op", "depth", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
