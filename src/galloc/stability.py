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
every vertex's local vector, its shape (what the closed-form probes of
:mod:`galloc.choice` read of it) and its interest predicate, built once.
The probes of :mod:`galloc.rotation` and :mod:`galloc.lattice` take the
view alone, since it holds the instance and the point, and pass each
vertex's shape from it to the evaluator; the weight search of a step
out of the point reads the firms' vectors from it.  A stability check
asks each worker where one more unit is interesting, which for a
worker at its quota is the prefix of its order before its last
supported edge (Baïou & Balinski's greedy rule), and asks the far firm
on those edges only, through the worker's row of far ends
(``Instance.far_ends``).  A view built from the view of another stable
point recomputes only the dirty vertices, the endpoints of the edges
whose values differ between the two points, and checks acceptance at
those only: every other vertex keeps its vector and its shape, so it
stays accepted.
Blocking follows a delta rule, applied firm by firm.  Stable points
form a lattice along which firms weakly gain and workers weakly lose
(Alkan & Gale 2003), and a firm that weakly prefers its new share does
not newly want an edge whose value did not change (the lemma, proved at
``PointView._blocking``).  One closed-form probe per dirty firm tells
whether it does; those that do not are the view's ``losing`` firms.
Every worker of a losing firm is scanned as above, and every other
dirty worker is asked only about its moved edges and the positions it
newly wants; for a linear worker those lie between its old cut and its
new one.  Without a stable parent every worker is scanned.
A rotation search at the minimum reads the view with which capacity
reduction certified it.  Every other search starts from the view of the
point one step below, the point its step left, so only that step's
rotation is dirty and, going up the lattice, no firm is losing.  The
search stores in the view each filled worker's admissible move and the
rotations found, which a search from it keeps where nothing moved (see
:mod:`galloc.rotation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count
from operator import ne
from typing import Callable, Iterable

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

    ``local``, ``shapes`` and ``wants`` hold every vertex's local vector,
    its shape (what the closed-form probes read of it, measured once by
    its evaluator's ``_shape``; None outside the box) and its interest
    predicate.  ``PointView(inst, x)`` builds them for every vertex;
    ``PointView(inst, x, parent)`` copies the parent's and rebuilds only
    ``dirty``, the endpoints of ``moved``, the edges whose values differ
    between the parent's point and ``x``, however far apart the two
    points are.  ``dirty_workers`` and ``dirty_firms`` list them in
    canonical order.  The full build is the same code with every vertex
    dirty, and ``dirty`` is then None.  ``boxed`` records that every
    value lies between 0 and its capacity: the full build tests the whole
    point, a carried view its parent's answer and its moved edges.  Only
    then do the evaluators skip their own box test on the local vectors;
    otherwise a vector outside its box raises, as the rule does, when the
    report is read.

    The stability ``report`` is computed on first use.  Under a parent
    whose report was stable it checks acceptance at the dirty vertices
    only, and blocking by the delta rule (see ``_blocking``); otherwise
    it checks everything.  Every probe of the check, of the move search
    (``admissible_move``) and of a weight search given the view
    (``max_feasible_weight``) reads its vectors and shapes here, and the
    check reads the parent's as the old ones.

    A rotation search stores its results in the view: ``moves``, each
    filled worker's admissible move; ``changed``, the searched workers
    whose move differs from the parent's, a list also when there is no
    parent to carry from, which counts as one with no moves; and
    ``rotations``, the search's answer.  ``parent`` is the stable
    parent's view, kept only until the search has read its moves and
    rotations, so that no chain of views stays alive.  ``losing``, set by
    a check under a stable parent, lists the dirty firms that do not
    weakly prefer their share of ``x`` to the parent's, and
    ``losing_workers`` holds the workers with an edge at one of them.
    """

    __slots__ = (
        "inst", "x", "local", "shapes", "wants", "dirty", "dirty_workers", "dirty_firms",
        "moved", "boxed", "losing", "losing_workers", "_report", "parent", "moves",
        "changed", "rotations",
    )

    def __init__(self, inst: Instance, x: Assignment, parent: PointView | None = None) -> None:
        self.inst = inst
        self.x = x
        workers, firms = inst.workers, inst.firms
        dirty: set[str] | None = None
        moved: list[int] = []
        if parent is not None:
            edges = inst.edges
            moved = list(compress(count(), map(ne, parent.x.values, x.values)))
            dirty_workers = {edges[i].worker for i in moved}
            dirty_firms = {edges[i].firm for i in moved}
            # When every vertex moved, this is the full build, without copying the parent.
            if len(dirty_workers) + len(dirty_firms) < len(workers) + len(firms):
                dirty = dirty_workers | dirty_firms
                workers = sorted(dirty_workers, key=inst.worker_index.__getitem__)
                firms = sorted(dirty_firms, key=inst._firm_index.__getitem__)
        if dirty is None:
            boxed = inst.in_box(x)
            local: dict[str, tuple[int, ...]] = {}
            shapes: dict[str, tuple | None] = {}
            wants: dict[str, Callable[[int], bool]] = {}
        else:
            vals, edges = x.values, inst.edges
            boxed = parent.boxed and all(0 <= vals[i] <= edges[i].capacity for i in moved)
            local, shapes, wants = dict(parent.local), dict(parent.shapes), dict(parent.wants)
        self.dirty, self.moved, self.boxed = dirty, moved, boxed
        self.dirty_workers, self.dirty_firms = workers, firms
        for v in chain(workers, firms):
            z = local[v] = inst.local_values(x, v)
            ev = evaluator_for(inst, v)
            shape = shapes[v] = ev._shape(z, boxed)
            wants[v] = ev.interest(z, shape)
        self.local, self.shapes, self.wants = local, shapes, wants
        stable = parent is not None and parent._report is not None and parent._report.stable
        self.parent = parent if stable else None
        self.losing: list[str] | None = None
        self.losing_workers: set[str] | None = None
        self._report: StabilityReport | None = None
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
        """Vertices (dirty ones under a stable parent) rejecting their
        local vector, canonical order."""
        inst, local, shapes = self.inst, self.local, self.shapes
        if self.parent is None:
            vertices = chain(inst.workers, inst.firms)
        else:
            vertices = chain(self.dirty_workers, self.dirty_firms)
        return tuple(
            [v for v in vertices if not evaluator_for(inst, v).accepts(local[v], shapes[v])]
        )

    def _blocking(self) -> tuple[str, ...]:
        """Blocking edges at an acceptable point, canonical order.

        Without a stable parent every worker lists the positions where it
        wants one more unit, and only the far firms of those edges are
        asked.  Under a stable parent only the workers of the ``losing``
        firms are scanned that way; every other dirty worker is asked only
        about its moved edges and the positions it newly wants.  The
        lemma: take a vertex with accepted local vectors u and v and
        C(u ∨ v) = v, and a position p with u[p] = v[p]; if one more unit
        at p is not interesting at u, it is not at v.  Substitutability
        with u + e_p ≤ (u ∨ v) + e_p gives C((u ∨ v) + e_p)[p] ≤ u[p], and
        with u ∨ v it gives C((u ∨ v) + e_p) ≤ v off p; so
        C((u ∨ v) + e_p) ≤ v + e_p ≤ (u ∨ v) + e_p, and consistence gives
        C(v + e_p) = C((u ∨ v) + e_p), which keeps no extra unit at p.
        So take an unmoved edge that blocks here and whose worker was not
        scanned.  Its firm did not move, or moved and is not losing; either
        way, by the lemma in the second case, the firm already wanted it
        at the parent.  The parent being stable, its worker did not, so
        the worker moved and newly wants the edge.
        """
        inst, local, shapes, parent = self.inst, self.local, self.shapes, self.parent
        edges = inst.edges
        found: list[int] = []
        scanned, asks = inst.workers, []  # asks: (worker, positions to ask)
        if parent is not None:
            old, olds, wants = parent.local, parent.shapes, self.wants
            self.losing = [
                f for f in self.dirty_firms
                if not evaluator_for(inst, f).prefers(old[f], local[f], olds[f], shapes[f])
            ]
            scanned = self.losing_workers = _workers_of(inst, self.losing)
            worker_pos, firm_pos = inst._worker_pos, inst._firm_pos
            for i in self.moved:
                _, w, f, _ = edges[i]
                if w not in scanned and wants[w](worker_pos[i]) and wants[f](firm_pos[i]):
                    found.append(i)
            for w in self.dirty_workers:
                if w not in scanned:
                    newly = evaluator_for(inst, w).newly_interesting(
                        old[w], local[w], olds[w], shapes[w]
                    )
                    if newly:
                        asks.append((w, newly))
        asks += [
            (w, evaluator_for(inst, w).interesting_positions(local[w], shapes[w]))
            for w in scanned
        ]
        for w, positions in asks:
            rest = iter(positions)
            while positions and (end := self.wanted_end(w, rest)) is not None:
                found.append(end[0])
        return tuple([edges[i].id for i in sorted(found)])

    def wanted_end(self, w: str, positions: Iterable[int]) -> tuple[int, str, int] | None:
        """The far end (see ``Instance.far_ends``) of the first of the
        worker's ``positions`` whose firm wants one more unit there, or
        None.  It reads ``positions`` only up to that end, so a caller
        that passes an iterator can ask again for the next one."""
        ends, wants = self.inst.far_ends(w), self.wants
        for pos in positions:
            end = ends[pos]
            if wants[end[1]](end[2]):
                return end
        return None


def _workers_of(inst: Instance, firms) -> set[str]:
    """The workers with an edge at one of ``firms``.

    The firms left once the set holds every worker are not read.
    """
    edges, everyone = inst.edges, len(inst.workers)
    out: set[str] = set()
    for f in firms:
        out.update([edges[i].worker for i in inst.edge_indices(f)])
        if len(out) == everyone:
            break
    return out


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
