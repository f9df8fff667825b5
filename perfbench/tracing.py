"""Timing spans around galloc's layer functions, installed from outside.

``install`` replaces each traced function in every ``galloc.*`` module
global that holds it (most are imported by name into several modules),
wraps ``ChoiceEvaluator.__call__`` on the class, and wraps
``edmonds_karp`` where ``galloc.poset`` binds it.  Nothing under the
package changes on disk; ``uninstall`` puts every binding back.

Each wrapped call opens a span with its parent's id.  Spans stay in
memory until the run ends.  Choice evaluations are too many to keep one
by one: each adds its duration to the innermost open span's ``leaf``
time instead, so self times still add up exactly.  A span's self time
is its duration minus the part of it covered by child spans and minus
its leaf time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import Any, Callable

from galloc.choice import ChoiceEvaluator
from galloc.rotation import weight_budget


class Span:
    """One traced call: name, parent span id, start and end times.

    ``leaf`` is the time spent in choice evaluations made directly
    inside this span; ``misses`` is the number of evaluator memo misses
    (oracle calls) made anywhere inside it.
    """

    __slots__ = ("id", "parent", "name", "start", "end", "leaf", "misses")

    def __init__(self, id: int, parent: int | None, name: str, start: float = 0.0,
                 end: float = 0.0, leaf: float = 0.0, misses: int = 0) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.leaf = leaf
        self.misses = misses

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


@dataclass
class Peak:
    """The largest ratio of use to its bound seen, with both parts."""

    ratio: float = 0.0
    use: int = 0
    base: int = 0

    def offer(self, use: int, base: int) -> None:
        if base and use / base > self.ratio:
            self.ratio, self.use, self.base = use / base, use, base


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.evals = 0
        self.misses = 0
        self.choice_s = 0.0
        self.counts: Counter[str] = Counter()
        self.peaks: dict[str, Peak] = {}
        self.points: set[tuple[int, tuple[int, ...]]] = set()

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, name, misses=self.misses)
        self.spans.append(span)
        self.stack.append(span)
        span.start = self.clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        top = self.stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        span.misses = self.misses - span.misses

    def innermost(self, name: str) -> Span | None:
        for span in reversed(self.stack):
            if span.name == name:
                return span
        return None

    def peak(self, name: str) -> Peak:
        return self.peaks.setdefault(name, Peak())


def self_times(spans: list[Span]) -> Counter[str]:
    """Self time per span name.

    A span's self time is its duration minus the union of its children's
    intervals (clipped to its own) and minus its leaf time.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: Counter[str] = Counter()
    for s in spans:
        covered = 0.0
        lo = hi = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if a > hi:
                covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered += hi - lo
        out[s.name] += (s.end - s.start) - covered - s.leaf
    return out


# -- what each traced function records beyond its span --------------------

Hook = Callable[[Tracer, Span, tuple, dict, Any], None]


def _arg(args: tuple, kwargs: dict, i: int, name: str) -> Any:
    return args[i] if len(args) > i else kwargs[name]


def _on_search(t: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    build = t.innermost("poset.build")
    if build is not None:
        t.counts["poset.rotation_search.calls"] += 1
        t.points.add((build.id, _arg(args, kwargs, 1, "x").values))


def _on_weight(t: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    inst, rot = _arg(args, kwargs, 0, "inst"), _arg(args, kwargs, 2, "rot")
    t.counts["rotation.weight.oracle_calls"] += span.misses
    t.peak("rotation.weight.budget").offer(span.misses, weight_budget(inst, rot))


def _on_capred(t: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    inst = _arg(args, kwargs, 0, "inst")
    t.counts["lattice.capred.rounds"] += result.iterations
    # The round bound xmin_by_capacity_reduction monitors.
    t.peak("lattice.capred.rounds").offer(
        result.iterations, max(1, len(inst.edges) * max(inst.b_max, 1))
    )


def _on_route(t: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    inst = _arg(args, kwargs, 0, "inst")
    steps = len(result.steps)
    t.counts["lattice.route.steps"] += steps
    # The length monitor build_full_route applies.
    e2 = max(1, len(inst.edges)) ** 2
    if kwargs.get("assume_gapless"):
        bound = (len(inst.workers) + len(inst.firms)) * e2
    else:
        bound = max(1, inst.b_max) * e2
    t.peak("lattice.route.steps").offer(steps, bound)


def _on_enumerate(t: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    inst = _arg(args, kwargs, 0, "inst")
    t.counts["oracle.enumerate.cells"] += prod(e.capacity + 1 for e in inst.edges)
    t.counts["oracle.enumerate.stable"] += len(result)


# (home module, function, span name, hook)
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("galloc.model", "load_instance", "model.load", None),
    ("galloc.stability", "check_stability", "stability.check", None),
    ("galloc.rotation", "applicable_rotations", "rotation.search", _on_search),
    ("galloc.rotation", "build_auxiliary", "rotation.aux", None),
    ("galloc.rotation", "clean", "rotation.clean", None),
    ("galloc.rotation", "extract_rotations", "rotation.extract", None),
    ("galloc.rotation", "max_feasible_weight", "rotation.weight", _on_weight),
    ("galloc.rotation", "apply_rotation", "rotation.apply", None),
    ("galloc.lattice", "xmin_by_capacity_reduction", "lattice.capred", _on_capred),
    ("galloc.lattice", "build_full_route", "lattice.route", _on_route),
    ("galloc.poset", "build_poset_gapless", "poset.build", None),
    ("galloc.poset", "build_poset_general", "poset.build", None),
    ("galloc.poset", "edmonds_karp", "poset.mincut", None),
    ("galloc.poset", "enumerate_closed_functions", "poset.closed", None),
    ("galloc.poset", "from_closed_function", "poset.closed", None),
    ("galloc.oracle", "enumerate_stable", "oracle.enumerate", _on_enumerate),
    ("galloc.oracle", "verify_lattice_properties", "oracle.props", None),
)


def _span_wrapper(t: Tracer, name: str, fn: Callable, hook: Hook | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = t.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            t.close(span)
        if hook is not None:
            hook(t, span, args, kwargs, result)
        return result

    return traced


def _traced_call(t: Tracer, call: Callable) -> Callable:
    clock = t.clock

    @functools.wraps(call)
    def __call__(self, z):
        before = self.call_count
        start = clock()
        try:
            return call(self, z)
        finally:
            took = clock() - start
            t.evals += 1
            t.misses += self.call_count - before
            t.choice_s += took
            if t.stack:
                t.stack[-1].leaf += took

    return __call__


def galloc_modules() -> list[Any]:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "galloc" or name.startswith("galloc."))
    ]


def install(t: Tracer) -> list[tuple[Any, str, Any]]:
    """Install the wrappers; return the replaced bindings for ``uninstall``.

    Every ``galloc.*`` module global that holds a traced function is
    replaced, wherever the function was imported under any name.
    """
    replaced: list[tuple[Any, str, Any]] = []
    modules = galloc_modules()
    for home, attr, name, hook in TARGETS:
        fn = getattr(sys.modules[home], attr)
        traced = _span_wrapper(t, name, fn, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, traced)
                    replaced.append((m, key, fn))
    call = ChoiceEvaluator.__call__
    ChoiceEvaluator.__call__ = _traced_call(t, call)
    replaced.append((ChoiceEvaluator, "__call__", call))
    return replaced


def uninstall(replaced: list[tuple[Any, str, Any]]) -> None:
    for owner, key, value in reversed(replaced):
        setattr(owner, key, value)


# -- per-layer metrics -----------------------------------------------------

# Self times of layers that some workloads never enter (route-dense runs
# no poset, poset-rings no cut, only oracle-corpus the oracle).  They
# read 0 on every run there, so they go into the report line only and
# are not part of the per-layer metric set.
REPORT_ONLY = frozenset(
    {
        "poset.build.self_s",
        "poset.mincut.self_s",
        "poset.closed.self_s",
        "oracle.enumerate.self_s",
        "oracle.props.self_s",
    }
)


def layer_metrics(t: Tracer, pass_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass, as name -> (value, unit).

    ``pass_s`` is the traced pass's wall time; the self times of all
    spans plus the choice evaluations' time should account for it.
    """
    selfs = self_times(t.spans)
    calls = Counter(s.name for s in t.spans)
    c = t.counts
    distinct = len(t.points)
    budget = t.peak("rotation.weight.budget")
    out: dict[str, tuple[float, str]] = {
        "model.load.calls": (calls["model.load"], "count"),
        "model.load.self_s": (selfs["model.load"], "s"),
        "choice.evals": (t.evals, "count"),
        "choice.calls": (t.misses, "count"),
        "choice.hit_ratio": ((t.evals - t.misses) / t.evals if t.evals else 0.0, "ratio"),
        "choice.self_s": (t.choice_s, "s"),
        "stability.check.calls": (calls["stability.check"], "count"),
        "stability.check.self_s": (selfs["stability.check"], "s"),
        "rotation.aux.calls": (calls["rotation.aux"], "count"),
        "rotation.aux.self_s": (selfs["rotation.aux"], "s"),
        "rotation.clean.self_s": (selfs["rotation.clean"], "s"),
        "rotation.extract.self_s": (selfs["rotation.extract"], "s"),
        "rotation.weight.calls": (calls["rotation.weight"], "count"),
        "rotation.weight.self_s": (selfs["rotation.weight"], "s"),
        "rotation.weight.oracle_calls": (c["rotation.weight.oracle_calls"], "count"),
        "rotation.weight.budget_use_max": (budget.ratio, "ratio"),
        "rotation.weight.budget_at_max": (budget.base, "count"),
        "rotation.apply.calls": (calls["rotation.apply"], "count"),
        "rotation.apply.self_s": (selfs["rotation.apply"], "s"),
        "lattice.capred.self_s": (selfs["lattice.capred"], "s"),
        "lattice.capred.rounds": (c["lattice.capred.rounds"], "count"),
        "lattice.capred.rounds_use": (t.peak("lattice.capred.rounds").ratio, "ratio"),
        "lattice.route.self_s": (selfs["lattice.route"], "s"),
        "lattice.route.steps": (c["lattice.route.steps"], "count"),
        "lattice.route.monitor_use": (t.peak("lattice.route.steps").ratio, "ratio"),
        "poset.build.self_s": (selfs["poset.build"], "s"),
        "poset.rotation_search.calls": (c["poset.rotation_search.calls"], "count"),
        "poset.rotation_search.distinct": (distinct, "count"),
        "poset.revisit_ratio": (
            c["poset.rotation_search.calls"] / distinct if distinct else 0.0, "ratio"
        ),
        "poset.mincut.self_s": (selfs["poset.mincut"], "s"),
        "poset.closed.self_s": (selfs["poset.closed"], "s"),
        "oracle.enumerate.self_s": (selfs["oracle.enumerate"], "s"),
        "oracle.enumerate.cells": (c["oracle.enumerate.cells"], "count"),
        "oracle.enumerate.stable": (c["oracle.enumerate.stable"], "count"),
        "oracle.props.self_s": (selfs["oracle.props"], "s"),
        "cli.self_s": (selfs["cli"], "s"),
        "trace.pass_s": (pass_s, "s"),
        "trace.accounted_share": (
            (sum(selfs.values()) + t.choice_s) / pass_s if pass_s else 0.0, "ratio"
        ),
    }
    return out
