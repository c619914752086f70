"""Outside-in tracing of fluxq's public functions.

Every public function of the six pipeline modules, and the method
`QuadraticLagrangian.assignment_row`, is replaced by a wrapper that records
a span (name, pass, start, end, parent span, raised).  The wrapper is bound
in every fluxq namespace that holds the function, including module-level
dicts such as the CLI's command table, so calls between fluxq functions
nest as child spans.  Nothing in fluxq itself is edited.  Spans stay in
memory; `layer_metrics` reduces them when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("netlist", "topology", "lagrangian", "quantize", "simulate", "cli")
EIGENSOLVE = "quantize.normal_modes"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.pass_index = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (key, self.pass_index, start, end, parent, raised)

        return traced

    def install(self) -> None:
        wrappers = {}  # id(original) -> wrapper; the modules keep originals alive
        for name in MODULES:
            module = importlib.import_module(f"fluxq.{name}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{name}.{attr}", obj)
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "fluxq"]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._rebind(module, attr, obj, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrappers:
                            obj[k] = wrappers[id(v)]
                            self._undo.append((obj.__setitem__, k, v))
        from fluxq.lagrangian import QuadraticLagrangian

        method = QuadraticLagrangian.assignment_row
        self._rebind(
            QuadraticLagrangian,
            "assignment_row",
            method,
            self._wrap("lagrangian.assignment_row", method),
        )

    def _rebind(self, namespace, attr: str, original, wrapper) -> None:
        setattr(namespace, attr, wrapper)
        self._undo.append((functools.partial(setattr, namespace), attr, original))

    def uninstall(self) -> None:
        for restore, key, original in reversed(self._undo):
            restore(key, original)
        self._undo.clear()


def layer_metrics(
    tracer: Tracer, ops_per_pass: int, pass_scale: list[float]
) -> dict[str, float]:
    """Per-operation medians over the traced passes.

    `<key>.self_s` is span time minus the time its child spans cover,
    multiplied by the pass's factor to reference speed in `pass_scale`;
    `<key>.calls` and `<key>.raised` are counts; `<module>.self_s` sums a
    module's functions; `quantize.normal_modes.floor_ratio` is the largest
    function self time over the eigensolve's."""
    per_pass: dict[int, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(lambda: [0.0, 0, 0])
    )
    child_time = defaultdict(float)
    for index, (key, pass_index, start, end, parent, raised) in enumerate(tracer.spans):
        if parent >= 0:
            child_time[parent] += end - start
    for index, (key, pass_index, start, end, parent, raised) in enumerate(tracer.spans):
        acc = per_pass[pass_index][key]
        acc[0] += (end - start - child_time[index]) * pass_scale[pass_index]
        acc[1] += 1
        acc[2] += raised
    keys = {key for stats in per_pass.values() for key in stats}
    metrics: dict[str, float] = {}

    def median(values) -> float:
        return statistics.median(v / ops_per_pass for v in values)

    passes = list(per_pass.values())
    for key in keys:
        for i, stat in enumerate(("self_s", "calls", "raised")):
            metrics[f"{key}.{stat}"] = median(p[key][i] if key in p else 0 for p in passes)
    for module in MODULES:
        metrics[f"{module}.self_s"] = median(
            sum(v[0] for k, v in p.items() if k.split(".")[0] == module) for p in passes
        )
    self_times = {k: metrics[f"{k}.self_s"] for k in keys}
    eigensolve = self_times.get(EIGENSOLVE, 0.0)
    metrics[f"{EIGENSOLVE}.floor_ratio"] = (
        max(self_times.values()) / eigensolve if eigensolve > 0 else 0.0
    )
    return metrics
