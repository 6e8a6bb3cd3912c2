"""Spans and work counters recorded from outside the package.

The tracer rebinds the public functions and methods of each layer module
(and a few private hot spots: the density kernel, scipy ``quad`` and the
``smalln`` survival table) to wrappers that time them and count calls.
Nothing in ``src/`` is edited; ``uninstall`` puts every original back, so
untraced passes run the pristine package.

Self time of a module is the time spent inside its wrapped functions that
is not covered by a wrapped callee.  Time in unwrapped helpers (closures,
private functions) is charged to the nearest wrapped caller.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("density", "quadrature", "ratefn", "sampler", "paths", "variational",
          "smalln", "conditions", "cli")

# Per-class method allow/deny lists for hot numeric primitives.  Exponent
# models expose only ``g`` (a counter); the other exponent methods and the
# perturbation terms run inside the kernel and are charged to it.
_EXPONENT_METHODS = ("g",)
_SKIPPED_METHODS = {"PerturbedDensity": {"q", "exponent_value"}}


@dataclass
class CallStats:
    calls: int = 0
    outer_calls: int = 0
    outer_s: float = 0.0
    points: int = 0

    def mean_ms(self) -> float:
        return 1000.0 * self.outer_s / self.outer_calls if self.outer_calls else 0.0


class Tracer:
    """Nested spans around the package's layer boundaries.

    Spans are kept in memory as ``(job, span, parent, name, start_s, end_s)``
    rows; the hot leaves (kernel, ``g``, ``quad``) are aggregated only.
    """

    def __init__(self):
        self.stats: dict[str, CallStats] = {}
        self.self_s = {m: 0.0 for m in LAYERS}
        self.entry_calls = {m: 0 for m in LAYERS}
        self.entry_s = {m: 0.0 for m in LAYERS}
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.active = False
        self.record_spans = False
        self.job = -1
        self._stack: list[list] = []  # [module, child_s, span_id]
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- instrumentation -------------------------------------------------

    def _wrap(self, fn, key: str, module: str, leaf: bool, count_points: bool = False):
        stats = self.stats.setdefault(key, CallStats())
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            depth = tracer._depth.get(key, 0)
            tracer._depth[key] = depth + 1
            stats.calls += 1
            if count_points:
                stats.points += getattr(args[-1], "size", 1)
            span_id = -1
            if tracer.record_spans and not leaf:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            frame = [module, 0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                dur = end - start
                stack.pop()
                tracer._depth[key] = depth
                tracer.self_s[module] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if parent is None or parent[0] != module:
                    tracer.entry_calls[module] += 1
                    tracer.entry_s[module] += dur
                if depth == 0:
                    stats.outer_calls += 1
                    stats.outer_s += dur
                if span_id >= 0:
                    tracer.spans[span_id] = (
                        tracer.job, span_id, parent[2] if parent else -1, key,
                        round(start - tracer._t0, 7), round(end - tracer._t0, 7))

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, replacement) -> None:
        """Point every package namespace that binds ``original`` at ``replacement``."""
        for name, mod in list(sys.modules.items()):
            if not (name == "stretchwalk" or name.startswith("stretchwalk.")):
                continue
            ns = vars(mod)
            for attr, value in list(ns.items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap_class(self, cls, module: str) -> None:
        from stretchwalk.density import ExponentModel

        if issubclass(cls, ExponentModel):
            allowed = _EXPONENT_METHODS
        else:
            allowed = None
        skipped = _SKIPPED_METHODS.get(cls.__name__, set())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or attr in skipped:
                continue
            if allowed is not None and attr not in allowed:
                continue
            key = f"{module}.{cls.__name__}.{attr}"
            if allowed is not None:
                key = f"{module}.{attr}"
            leaf = allowed is not None
            if isinstance(raw, classmethod):
                self._patch_attr(cls, attr, classmethod(
                    self._wrap(raw.__func__, key, module, leaf)))
            elif isinstance(raw, staticmethod):
                self._patch_attr(cls, attr, staticmethod(
                    self._wrap(raw.__func__, key, module, leaf)))
            elif inspect.isfunction(raw):
                self._patch_attr(cls, attr, self._wrap(raw, key, module, leaf))

    def install(self) -> None:
        """Wrap every layer's public functions plus the counted hot spots."""
        if self._patches:
            return
        for module in LAYERS:
            mod = importlib.import_module(f"stretchwalk.{module}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._rebind(obj, self._wrap(obj, f"{module}.{name}", module, False))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, module)
        self._hook("density", "PerturbedDensity", "_log_kernel", "density.kernel",
                   count_points=True)
        self._hook("quadrature", None, "quad", "quadrature.quad")
        self._hook("smalln", "_LogSurvival", "__init__", "smalln.survival_build")

    def _hook(self, module: str, cls_name: str | None, attr: str, key: str,
              count_points: bool = False) -> None:
        """Wrap one private hot spot; a missing name is recorded, not fatal."""
        mod = importlib.import_module(f"stretchwalk.{module}")
        owner = getattr(mod, cls_name, None) if cls_name else mod
        if owner is None or attr not in vars(owner):
            self.stats.setdefault(key, CallStats())
            self.missing.append(key)
            return
        self._patch_attr(owner, attr, self._wrap(vars(owner)[attr], key, module, True,
                                                 count_points))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- readout ---------------------------------------------------------

    def get(self, key: str) -> CallStats:
        return self.stats.get(key) or CallStats()
