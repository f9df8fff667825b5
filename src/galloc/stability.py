"""Acceptability, blocking edges, stability, and the two side orders.

An assignment is acceptable when every vertex's choice function keeps
its restriction unchanged.  An edge with spare capacity is interesting
for an endpoint if one more unit there would change what that endpoint
keeps.  A blocking edge is interesting for both endpoints; a stable
assignment is acceptable and free of blocking edges.

Acceptable assignments are compared sidewise: x is below y on the firm
side when every firm, offered the union, keeps exactly its share of y.
The worker-side order is defined the same way over workers.  Comparisons
ask the choice rule itself, so the brute-force oracle, which orders its
elements with them, never reads the closed-form probes of linear
evaluators.

A check builds each vertex's local vector and its interest predicate
once, and probes every edge at most twice: the worker side, then the
firm side only when the worker is interested.
"""

from __future__ import annotations

from dataclasses import dataclass

from .choice import evaluator_for, join
from .errors import GallocError
from .model import Assignment, Instance


def _local_vectors(inst: Instance, x: Assignment) -> dict[str, tuple[int, ...]]:
    """Every vertex's local vector, workers then firms."""
    return {v: inst.local_values(x, v) for v in inst.workers + inst.firms}


def _unacceptable(inst: Instance, local: dict[str, tuple[int, ...]]) -> tuple[str, ...]:
    return tuple(v for v, z in local.items() if not evaluator_for(inst, v).accepts(z))


def _blocking(inst: Instance, local: dict[str, tuple[int, ...]]) -> tuple[str, ...]:
    wants = {v: evaluator_for(inst, v).interest(z) for v, z in local.items()}
    out = []
    for e in inst.edges:
        w, f, eid = e.worker, e.firm, e.id
        if wants[w](inst.local_pos(w, eid)) and wants[f](inst.local_pos(f, eid)):
            out.append(eid)
    return tuple(out)


def unacceptable_vertices(inst: Instance, x: Assignment) -> tuple[str, ...]:
    return _unacceptable(inst, _local_vectors(inst, x))


def is_interesting(inst: Instance, x: Assignment, v: str, eid: str) -> bool:
    """Whether vertex v would keep one more unit on edge eid.

    Saturated edges are never interesting.  The restriction of x to v
    must be accepted by v's choice function.
    """
    wants = evaluator_for(inst, v).interest(inst.local_values(x, v))
    return wants(inst.local_pos(v, eid))


def blocking_edges(inst: Instance, x: Assignment) -> tuple[str, ...]:
    """Edges interesting for both endpoints, canonical order."""
    return _blocking(inst, _local_vectors(inst, x))


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a stability check.

    Attributes:
        stable: acceptable and no blocking edge.
        unacceptable_vertices: vertices rejecting their restriction.
        blocking: blocking edge ids; only computed when acceptable.
    """

    stable: bool
    unacceptable_vertices: tuple[str, ...]
    blocking: tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"unacceptable={list(self.unacceptable_vertices)} "
            f"blocking={list(self.blocking)}"
        )


def check_stability(inst: Instance, x: Assignment) -> StabilityReport:
    local = _local_vectors(inst, x)
    bad = _unacceptable(inst, local)
    if bad:
        return StabilityReport(False, bad, ())
    blocking = _blocking(inst, local)
    return StabilityReport(not blocking, (), blocking)


def _side_compare(inst: Instance, x: Assignment, y: Assignment, vertices) -> str:
    below = above = False
    for v in vertices:
        zx = inst.local_values(x, v)
        zy = inst.local_values(y, v)
        if zx == zy:
            continue
        cf = evaluator_for(inst, v)
        if cf(zx) != zx or cf(zy) != zy:
            raise GallocError(f"comparison needs accepted restrictions at {v}")
        j = cf(join(zx, zy))
        if j == zx:
            above = True
        elif j == zy:
            below = True
        else:
            return "incomparable"
        if below and above:
            return "incomparable"
    if below:
        return "less"
    if above:
        return "greater"
    return "equal"


def compare_F(inst: Instance, x: Assignment, y: Assignment) -> str:
    """Position of x against y in the firm-side order.

    Returns "less", "greater", "equal", or "incomparable".  Both
    assignments must be acceptable.
    """
    return _side_compare(inst, x, y, inst.firms)


def compare_W(inst: Instance, x: Assignment, y: Assignment) -> str:
    """Position of x against y in the worker-side order."""
    return _side_compare(inst, x, y, inst.workers)
