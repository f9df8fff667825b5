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

Every check and probe at a point reads one view of it (``PointView``):
every vertex's local vector and interest predicate, built once.  The
probes of :mod:`galloc.rotation` and :mod:`galloc.lattice` take the view
alone, since it holds the instance and the point.  A stability check
asks each worker where one more unit is interesting, which for a
worker at its quota is the prefix of its order before its last
supported edge (Baïou & Balinski's greedy rule), and asks the far firm
on those edges only.  A view built from the view of another stable
point recomputes only the dirty vertices, the endpoints of the edges
whose values differ between the two points.  Every other vertex keeps
its vector, so it stays accepted and its edges to other clean vertices
stay non-blocking: checking acceptance at the dirty vertices, and
blocking on the edges of the dirty workers and of the workers of dirty
firms, gives exactly the full report.
Rotation searches carry one view from each point they search to the
next, and store in it each filled worker's admissible move and the
rotations found, which the next search keeps where nothing moved (see
:mod:`galloc.rotation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .choice import evaluator_for, join
from .errors import GallocError
from .model import Assignment, Instance


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


class PointView:
    """What a stability check and a rotation search read at one point.

    ``local`` and ``wants`` hold every vertex's local vector and interest
    predicate.  ``PointView(inst, x)`` builds them for every vertex;
    ``PointView(inst, x, parent)`` copies the parent's and rebuilds only
    ``dirty``, the endpoints of the edges whose values differ between the
    parent's point and ``x``, however far apart the two points are.  The
    full build is the same code with every vertex dirty, and ``dirty`` is
    then None.

    The stability ``report`` is computed on first use.  When the parent's
    report was stable it checks acceptance at the dirty vertices and
    blocking at the workers they touch only, which gives the full
    report; otherwise it checks everything.

    A rotation search stores its results in the view: ``moves``, each
    filled worker's admissible move; ``changed``, the searched workers
    whose move differs from the parent's, a list also when there is no
    parent to carry from, which counts as one with no moves; and
    ``rotations``, the search's answer.  ``parent`` is the stable
    parent's view, kept only until the search has read its moves and
    rotations, so that no chain of views stays alive.
    """

    __slots__ = (
        "inst", "x", "local", "wants", "dirty", "_scope", "_report",
        "parent", "moves", "changed", "rotations",
    )

    def __init__(self, inst: Instance, x: Assignment, parent: PointView | None = None) -> None:
        self.inst = inst
        self.x = x
        vertices = inst.workers + inst.firms
        dirty: set[str] | None = None
        if parent is not None:
            edges = inst.edges
            dirty = set()
            for e, a, b in zip(edges, parent.x.values, x.values):
                if a != b:
                    dirty.add(e.worker)
                    dirty.add(e.firm)
            if len(dirty) == len(vertices):
                dirty = None  # the full build, without copying the parent first
        self.dirty = dirty
        local: dict[str, tuple[int, ...]] = {} if dirty is None else dict(parent.local)
        wants: dict[str, Callable[[int], bool]] = {} if dirty is None else dict(parent.wants)
        for v in vertices if dirty is None else dirty:
            z = inst.local_values(x, v)
            local[v] = z
            wants[v] = evaluator_for(inst, v).interest(z)
        self.local, self.wants = local, wants
        stable = parent is not None and parent._report is not None and parent._report.stable
        self._scope = dirty if stable else None
        self._report: StabilityReport | None = None
        self.parent = parent if stable and dirty is not None else None
        self.moves: dict | None = None
        self.changed: list[str] | None = None
        self.rotations: tuple | None = None

    @property
    def report(self) -> StabilityReport:
        if self._report is None:
            bad = self._unacceptable()
            if bad:
                self._report = StabilityReport(False, bad, ())
            else:
                blocking = self._blocking()
                self._report = StabilityReport(not blocking, (), blocking)
        return self._report

    def _unacceptable(self) -> tuple[str, ...]:
        """Vertices (in scope) rejecting their local vector, canonical order."""
        inst, local, scope = self.inst, self.local, self._scope
        vertices = inst.workers + inst.firms
        if scope is not None:
            vertices = [v for v in vertices if v in scope]
        return tuple(v for v in vertices if not evaluator_for(inst, v).accepts(local[v]))

    def _blocking(self) -> tuple[str, ...]:
        """Blocking edges (with an endpoint in scope), canonical order.

        Each stale worker lists the positions where it wants one more
        unit, and only the far firms of those edges are asked.  The stale
        workers are every worker, or in scope the dirty workers and the
        workers of dirty firms: that covers every edge with an endpoint
        in scope, and their other edges join two clean vertices.
        """
        inst, local, wants, scope = self.inst, self.local, self.wants, self._scope
        edges = inst.edges
        found = []
        for w in inst.workers if scope is None else _stale_workers(inst, scope):
            ids = inst.edge_indices(w)
            for pos in evaluator_for(inst, w).interesting_positions(local[w]):
                e = edges[ids[pos]]
                if wants[e.firm](inst.local_pos(e.firm, e.id)):
                    found.append(ids[pos])
        return tuple([edges[i].id for i in sorted(found)])


def _stale_workers(inst: Instance, dirty: set[str]) -> list[str]:
    """The workers in ``dirty`` and the workers of its firms, canonical order."""
    stale: set[str] = set()
    for v in dirty:
        if inst.is_worker(v):
            stale.add(v)
        else:
            stale.update(inst.edges[i].worker for i in inst.edge_indices(v))
    return sorted(stale, key=inst.worker_index.__getitem__)


def check_stability(inst: Instance, x: Assignment) -> StabilityReport:
    return PointView(inst, x).report


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
