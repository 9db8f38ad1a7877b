"""Spans around calls into each fusionrules layer, recorded from outside the package.

``Recorder.installed()`` replaces each function in ``WRAPPED`` on every
``fusionrules`` module that binds it (for example ``core.validate``,
``cli.validate`` and the package-level ``fusionrules.validate``) and restores
the originals on exit.  A span holds its name, start, end, parent, the trace it
belongs to (one set-up or one pass) and counts taken from the call's arguments
or result.  Spans stay in memory until ``dump`` writes them at the end of a run.

A generator function gets one span per resumption, so its spans cover the work
done to produce each item and not the consumer's work in between.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

# The dense defect holds rank**4 int64 values; core switches to per-i BLAS
# blocks above this rank.  Spans of core._associativity_defects are named by
# the side of this branch their rule falls on.
DENSE_RANK_MAX = 40


def _assoc_name(args, kwargs) -> str:
    rank = args[0].shape[0]
    return "core.assoc_dense" if rank <= DENSE_RANK_MAX else "core.assoc_blocked"


def _assoc_defect_counts(args, kwargs, result) -> dict:
    r = args[0].shape[0]
    # lhs and rhs each take r**5 multiply-adds; lhs, rhs and their difference
    # are r**4 int64 arrays.  Both figures are computed, not measured.
    return {"ops_computed": 2 * r**5, "bytes_computed": 3 * r**4 * 8}


def _prepare_counts(args, kwargs, plan) -> dict:
    if plan is None:
        return {"orbits": 0, "quads": 0}
    return {"orbits": len(plan.orbit_a), "quads": len(plan.quads)}


# (module, function, counts taken from (args, kwargs, result), span name)
WRAPPED = [
    ("groups", "builtin_group", None, None),
    ("groups", "character_table", None, None),
    ("groups", "is_nilpotent", None, None),
    ("generators", "drinfeld_double", lambda a, k, r: {"labels_out": r.rank}, None),
    ("explorer", "survey", None, None),
    ("explorer", "enumerate_rules", None, None),
    ("explorer", "_prepare", _prepare_counts, None),
    ("_kernels", "search_tensors", lambda a, k, r: {"solutions": len(r)}, None),
    ("_kernels", "assoc_defect", _assoc_defect_counts, None),
    ("_kernels", "power_radius", lambda a, k, r: {"iterations": int(r[2])}, None),
    ("core", "validate", lambda a, k, r: {"violations": len(r.violations)}, None),
    ("core", "_associativity_defects", None, _assoc_name),
    ("core", "fp_dimensions", None, None),
    ("core", "product", None, None),
    ("acyclicity", "is_acyclic", None, None),
    ("acyclicity", "find_cycle", None, None),
    ("acyclicity", "check_theorem", None, None),
    ("nilpotency", "central_series", lambda a, k, r: {"chain_len": len(r.chain)}, None),
    ("io", "parse_rule", lambda a, k, r: {"bytes_in": len(a[0].encode("utf-8"))}, None),
    ("io", "dump_rule", lambda a, k, r: {"bytes_out": len(r.encode("utf-8"))}, None),
    ("cli", "main", None, None),
]

LAYERS = ("groups", "generators", "explorer", "_kernels", "core",
          "acyclicity", "nilpotency", "io", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    trace: str
    name: str
    call: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.trace = "untraced"
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._calls = 0

    # --- recording ---------------------------------------------------------

    def _open(self, name: str, call: int) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, trace=self.trace, name=name,
                    call=call, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counts, name_of):
        recorder = self

        def wrapper(*args, **kwargs):
            recorder._calls += 1
            span = recorder._open(name_of(args, kwargs) if name_of else name, recorder._calls)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        def gen_wrapper(*args, **kwargs):
            recorder._calls += 1
            call = recorder._calls
            span_name = name_of(args, kwargs) if name_of else name
            gen = fn(*args, **kwargs)
            try:
                while True:
                    span = recorder._open(span_name, call)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        recorder._close(span)
                    span.counts = {"items": 1}
                    yield item
            finally:
                gen.close()

        return gen_wrapper if inspect.isgeneratorfunction(fn) else wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in ``WRAPPED`` wherever fusionrules binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fusionrules" or n.startswith("fusionrules.")]
        restore = []
        self.missing = []
        try:
            for module_name, func, counts, name_of in WRAPPED:
                home = sys.modules.get(f"fusionrules.{module_name}")
                original = getattr(home, func, None)
                if original is None:
                    self.missing.append(f"{module_name}.{func}")
                    continue
                wrapper = self._wrap(original, f"{module_name}.{func}", counts, name_of)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            restore.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    # --- analysis ----------------------------------------------------------

    def trace_spans(self, trace: str) -> list[Span]:
        return [s for s in self.spans if s.trace == trace]

    def dump(self, path, record: dict) -> None:
        doc = {"run": record, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s, self_s and the summed counts."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    calls: dict[str, set[int]] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"busy_s": 0.0, "self_s": 0.0})
        entry["busy_s"] += s.duration
        entry["self_s"] += own[s.id]
        calls.setdefault(s.name, set()).add(s.call)
        for key, value in s.counts.items():
            entry[key] = entry.get(key, 0) + value
    for name, entry in out.items():
        entry["calls"] = len(calls[name])
    return out


def layer_self(spans: list[Span]) -> dict[str, float]:
    """Self seconds per package module, keyed by the module name."""
    own = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s.name.split(".", 1)[0]] += own[s.id]
    return out


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}
