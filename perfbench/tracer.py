"""Per-layer spans for one traced CLI call, installed from outside the package.

Every public function of every switchcap module gets one wrapper, bound in
each module namespace that binds the original: ``from .qmat import tensor``
gives ``oracle`` a binding of its own, so patching ``qmat`` alone would miss
its callers. ``DensityMatrix`` validation is wrapped at the class level. The
private ``_chi_pure`` and ``_transfer_matrix`` are optional hooks: when a
later version drops them, their metrics are left out instead of failing.

A span records calls, inclusive time and self time (inclusive time minus the
wrapped spans it called). With ``memory`` on, a span also records its
tracemalloc peak above the memory traced at entry, as the largest over the
calls that ran under tracemalloc (see ``MEMORY_STRIDE``). tracemalloc slows a
call several times over, so times are taken from a call with it off.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

MODULES = ("qmat", "channels", "switch", "capacity", "oracle", "cli")

# (defining module, function) -> span name, where it differs from "module.function"
RENAMED = {
    ("capacity", "_chi_pure"): "capacity.chi_eval",
    ("capacity", "_transfer_matrix"): "capacity.transfer_matrix",
    ("cli", "render_csv"): "cli.render",
    ("cli", "render_json"): "cli.render",
}
OPTIONAL_HOOKS = {("capacity", "_chi_pure"), ("capacity", "_transfer_matrix")}

# Spans reported as per-layer metrics; every one but the hooks must exist.
REPORTED = (
    "qmat.density_matrix",
    "channels.depolarizing_channel",
    "switch.switch_with_fixed_control",
    "switch.switched_depolarizing_analytic",
    "capacity.optimize_ensemble",
    "capacity.chi_eval",
    "capacity.transfer_matrix",
    "capacity.holevo_analytic",
    "oracle.brute_force_switch_output",
    "cli.run_sweep",
    "cli.render",
)

# Exact counts; they must repeat exactly from run to run.
COUNTS = (
    "channels.n_kraus",
    "switch.n_kraus",
    "oracle.kraus_pairs",
    "capacity.optimizer.chi_evals",
    "capacity.optimizer.refine_steps",
)

COMPLEX_BYTES = 16
# With memory on, a reported span that is not already inside a traced region
# starts tracemalloc for one call in MEMORY_STRIDE: tracing everything would
# slow the oracle-bound workload about sixfold.
MEMORY_STRIDE = 10


class _Span:
    __slots__ = ("calls", "s", "self_s", "peak")

    def __init__(self):
        self.calls, self.s, self.self_s, self.peak = 0, 0.0, 0.0, 0


class _Frame:
    __slots__ = ("t0", "child_s", "mem0", "seen", "started")

    def __init__(self, mem0, started):
        self.child_s, self.mem0, self.seen, self.started = 0.0, mem0, mem0, started
        self.t0 = time.perf_counter()


class Tracer:
    """Collects spans and counts; ``install`` patches the imported package."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = defaultdict(_Span)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.kraus_mb = 0.0
        self.gap_max = None
        self.installed = set()
        self._stack = []

    # -- spans ------------------------------------------------------------
    def _enter(self, name: str) -> _Frame:
        started = (self.memory and not tracemalloc.is_tracing() and name in REPORTED
                   and self.spans[name].calls % MEMORY_STRIDE == 0)
        if started:
            tracemalloc.start()
        mem0 = None
        if self.memory and tracemalloc.is_tracing():
            mem0, peak = tracemalloc.get_traced_memory()
            if self._stack and self._stack[-1].mem0 is not None:
                parent = self._stack[-1]
                parent.seen = max(parent.seen, peak)
            tracemalloc.reset_peak()
        frame = _Frame(mem0, started)
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: _Frame):
        dt = time.perf_counter() - frame.t0
        self._stack.pop()
        span = self.spans[name]
        span.calls += 1
        span.s += dt
        span.self_s += dt - frame.child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += dt
        if frame.mem0 is None:
            return
        seen = max(frame.seen, tracemalloc.get_traced_memory()[1])
        span.peak = max(span.peak, seen - frame.mem0)
        if frame.started:
            tracemalloc.stop()
            return
        if parent is not None:
            parent.seen = max(parent.seen, seen)
        tracemalloc.reset_peak()

    def _wrap(self, name: str, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # -- counts -----------------------------------------------------------
    def _count_kraus(self, layer: str):
        def hook(args, kwargs, result):
            ops = getattr(result, "kraus_ops", None)
            if ops:
                self.counts[f"{layer}.n_kraus"] += len(ops)
                if layer == "switch":
                    self.kraus_mb += len(ops) * ops[0].size * COMPLEX_BYTES / 1e6

        return hook

    def _count_optimizer(self, args, kwargs, result):
        self.counts["capacity.optimizer.chi_evals"] += 1 + result.trials_run + result.refine_steps
        self.counts["capacity.optimizer.refine_steps"] += result.refine_steps

    def _count_pairs(self, args, kwargs, result):
        d = args[0] if args else kwargs["d"]
        self.counts["oracle.kraus_pairs"] += (d * d + 1) ** 2

    def _gap(self, args, kwargs, rows):
        for r in rows:
            if r.chi_analytic is not None:
                gap = r.chi_analytic - r.chi_numeric
                self.gap_max = gap if self.gap_max is None else max(self.gap_max, gap)

    def _hook_for(self, module: str, name: str):
        if module in ("channels", "switch"):
            return self._count_kraus(module)
        return {
            "capacity.optimize_ensemble": self._count_optimizer,
            "oracle.brute_force_switch_output": self._count_pairs,
            "cli.run_sweep": self._gap,
        }.get(name)

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap the functions of the already importable ``switchcap`` package."""
        package = importlib.import_module("switchcap")
        modules = [package] + [importlib.import_module(f"switchcap.{m}") for m in MODULES]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj) and obj.__module__.startswith("switchcap.")):
                    continue
                home = obj.__module__.rsplit(".", 1)[1]
                key = (home, obj.__name__)
                if attr.startswith("_") and key not in OPTIONAL_HOOKS:
                    continue
                if obj not in wrappers:
                    name = RENAMED.get(key, f"{home}.{obj.__name__}")
                    wrappers[obj] = self._wrap(name, obj, self._hook_for(home, name))
                    self.installed.add(name)
                setattr(module, attr, wrappers[obj])

        density = importlib.import_module("switchcap.qmat").DensityMatrix
        density.__post_init__ = self._wrap(
            "qmat.density_matrix", density.__post_init__, None
        )
        self.installed.add("qmat.density_matrix")

        hooks = {RENAMED[key] for key in OPTIONAL_HOOKS}
        missing = set(REPORTED) - self.installed - hooks
        if missing:
            raise RuntimeError(f"layers not found in switchcap: {sorted(missing)}")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; spans of absent optional hooks are left out."""
        out = {}
        for name in REPORTED:
            if name not in self.installed:
                continue
            span = self.spans.get(name, _Span())
            out[f"{name}.calls"] = span.calls
            out[f"{name}.s"] = span.s
            out[f"{name}.self_s"] = span.self_s
            out[f"{name}.peak_mb"] = span.peak / 1e6
        out.update(self.counts)
        out["switch.kraus_mb"] = self.kraus_mb
        out["capacity.optimizer.gap_max"] = self.gap_max or 0.0
        return out
