"""Spans and counters around the library's layers, from outside the library.

The traced run rebinds the module attributes through which the library's
own calls travel (``entailment.signature_rows``, ``lp.solve``, ...) to
wrappers that record a span per call: name, start, end and the index of the
enclosing span.  Counters are taken at the same boundaries.  The bindings
are swapped in only while a traced operation runs; the untraced run imports
and calls the library unmodified.  Spans stay in memory and are reduced to
per-layer figures once, at the end.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Any, Callable

# (module, attribute, span name).  One layer is bound under several names
# when modules import it with ``from ... import``; every module-level
# binding a library call can reach is listed, so calls made through
# ``threshold`` or ``cli`` are counted too, and so are the package-level
# names the benchmark itself calls.
BINDINGS = (
    ("pientail.entailment", "signature_rows", "entailment.signature_rows"),
    ("pientail.threshold", "signature_rows", "entailment.signature_rows"),
    ("pientail.lp", "solve", "lp.solve"),
    ("pientail.threshold", "critical_threshold", "threshold.critical_threshold"),
    ("pientail.cli", "critical_threshold", "threshold.critical_threshold"),
    ("pientail.threshold", "decide_general", "threshold.decide_general"),
    ("pientail.threshold", "feasible_at", "threshold.feasible_at"),
    ("pientail.threshold", "_feasible", "threshold._feasible"),
    ("pientail.entailment", "decide", "entailment.decide"),
    ("pientail.cli", "decide", "entailment.decide"),
    ("pientail", "decide", "entailment.decide"),
    ("pientail.entailment", "decide_lp", "entailment.decide_lp"),
    ("pientail.entailment", "enforces_homogeneity", "homogeneity.enforces_homogeneity"),
    ("pientail.homogeneity", "enforces_homogeneity", "homogeneity.enforces_homogeneity"),
    ("pientail.cli", "enforces_homogeneity", "homogeneity.enforces_homogeneity"),
    ("pientail.entailment", "satisfies", "model.satisfies"),
    ("pientail.model", "satisfies", "model.satisfies"),
    ("pientail.entailment", "check_certificate", "entailment.check_certificate"),
    ("pientail", "check_certificate", "entailment.check_certificate"),
    ("pientail.entailment", "prune", "entailment.prune"),
    ("pientail.cli", "prune_rules", "entailment.prune"),
    ("pientail", "prune", "entailment.prune"),
    ("pientail.cli", "run", "cli.run"),
)

# Bisection probes are counted without a span of their own, so that their
# set-up time stays in the self time of ``critical_threshold``.
COUNTED_ONLY = ("threshold._feasible",)
# Layers reported with a self time (``entailment.prune`` is reported by calls
# and decides only).
TIMED_LAYERS = (
    "entailment.signature_rows",
    "lp.solve",
    "threshold.critical_threshold",
    "threshold.decide_general",
    "threshold.feasible_at",
    "entailment.decide",
    "entailment.decide_lp",
    "homogeneity.enforces_homogeneity",
    "model.satisfies",
    "entailment.check_certificate",
    "cli.run",
)
REGIMES = (
    "tautology",
    "one-premise",
    "two-premise",
    "low-gamma",
    "high-gamma",
    "general-gamma-star",
    "lp-direct",
)
OUTCOMES = ("optimal", "unbounded", "infeasible")


class Tracer:
    """Records spans and counters while installed (``with tracer: ...``)."""

    def __init__(self, modules: dict[str, Any]) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: Counter[str] = Counter()
        self._open: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._wrappers: list[tuple[Any, str, Callable]] = []
        wrapped: dict[int, Callable] = {}
        for module_name, attr, span in BINDINGS:
            module = modules[module_name]
            original = getattr(module, attr)
            if id(original) not in wrapped:
                wrap = self._wrap_counted if span in COUNTED_ONLY else self._wrap
                wrapped[id(original)] = wrap(span, original)
            self._wrappers.append((module, attr, wrapped[id(original)]))

    def __enter__(self) -> Tracer:
        for module, attr, wrapper in self._wrappers:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span[2] = time.perf_counter()
            self._count(name, args, result)
            return result

        return traced

    def _wrap_counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(name, args, result)
            return result

        return counted

    def _count(self, name: str, args: tuple, result: Any) -> None:
        counters = self.counters
        counters[name + ".calls"] += 1
        if name == "entailment.signature_rows":
            counters[name + ".rows"] += len(result)
        elif name == "lp.solve":
            program = args[0]
            counters[name + ".cells"] += len(program.constraints) * program.num_vars
            counters[f"lp.solve.outcome.{type(result).__name__.lower()}"] += 1
        elif name == "entailment.decide":
            counters[f"entailment.decide.regime.{result.regime.value}"] += 1
            if self._inside("entailment.prune"):
                counters["entailment.prune.decides"] += 1
        elif name == "threshold._feasible" and self._inside(
            "threshold.critical_threshold"
        ):
            counters["threshold.critical_threshold.probes"] += 1

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, less the time of each span's children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = Counter()
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[name] += end - start - children
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer figure, zero where the layer was not reached."""
        selfs = self.self_times()
        c = self.counters
        out: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            out[layer + ".calls"] = c[layer + ".calls"]
            out[layer + ".self_s"] = selfs.get(layer, 0.0)
        out["entailment.signature_rows.rows"] = c["entailment.signature_rows.rows"]
        out["lp.solve.cells"] = c["lp.solve.cells"]
        for outcome in OUTCOMES:
            out[f"lp.solve.outcome.{outcome}"] = c[f"lp.solve.outcome.{outcome}"]
        out["threshold.critical_threshold.probes"] = c["threshold.critical_threshold.probes"]
        for regime in REGIMES:
            out[f"entailment.decide.regime.{regime}"] = c[f"entailment.decide.regime.{regime}"]
        out["entailment.prune.calls"] = c["entailment.prune.calls"]
        out["entailment.prune.decides"] = c["entailment.prune.decides"]
        return out
