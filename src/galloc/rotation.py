"""Rotations at a stable assignment.

At a stable assignment each filled worker has at most one admissible
move: its admissible edge, paired with the edge that one more unit on
it displaces at the far firm (none when the firm absorbs the unit).
Pointing each worker at the worker of its displaced edge gives a map in
which every worker has at most one successor.  A rotation is one cycle
of that map, read as an alternating cycle of edges.  Shifting weight
around it (add on the worker-chosen edges, subtract on the displaced
partners) moves to another stable assignment, higher on the firm side.

The construction follows three steps: build the moves, clean them down
to the workers on cycles, then read off the cycles, as for
stable-marriage rotations (Gusfield & Irving 1989, section 2.5).  The
probes take the point's view (:class:`galloc.stability.PointView`)
alone, read the moves from it and store them in it; only
``applicable_rotations`` builds a view when none is given.  A search
at the minimum reads capacity reduction's view of it, and every other
search carries the view of the point one step below, which the step
left, as Gusfield & Irving's search advances from the matching it has
just left (section 3.3).  Only the workers a shift moved, those whose
move starts at a firm it moved, and those of the firms that do not
weakly prefer their new share (the check's ``losing`` firms) search for
their move again (see ``_searched_again``); every other worker keeps
the move it had, as Gusfield & Irving's all-rotations search keeps the
pointers it has already advanced.  The cycles are carried the same way:
a cycle of the point below none of whose workers changed its move is
still a cycle, and the new ones are read only from the walks out of
the workers that did (Gusfield & Irving keep the rotations already
found, section 3.3).  There is one search: a point with no searched
parent, or whose every vertex moved, is searched as the child of a
point with no moves and no cycles, so every move is changed and every
cycle is read.  The maximal
shiftable weight is found per displacement pair by binary search; the
number of fresh choice-function evaluations it spends is metered against
a hard budget.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .choice import evaluator_for, total_fresh_evaluations
from .errors import GallocError, InvariantViolation
from .model import Assignment, Instance, shift, shift_room
from .stability import PointView


class Tandem(NamedTuple):
    """At ``firm``, one extra unit on ``plus`` displaces one unit of ``minus``.

    ``minus`` is None when the firm absorbs the unit outright.
    """

    firm: str
    plus: str
    minus: str | None


@dataclass(frozen=True)
class Rotation:
    """An alternating cycle of admissible edges.

    ``key`` lists edge ids: worker-chosen, displaced, worker-chosen,
    displaced, ...  It is rotated so the first entry belongs to the
    worker with the smallest canonical index, which makes it a usable
    identity key.  Workers occur at most once; firms may repeat.
    """

    key: tuple[str, ...]

    @property
    def plus_edges(self) -> tuple[str, ...]:
        return self.key[0::2]

    @property
    def minus_edges(self) -> tuple[str, ...]:
        return self.key[1::2]


@dataclass(frozen=True)
class Event:
    """Why a full-weight shift cannot go further.

    Kinds: "negative-exhausted" (a subtracted edge hit zero),
    "positive-saturated" (an added edge hit capacity), or
    "tandem-destroyed" (a displacement pair stopped answering with a
    swap while both edges still had room).
    """

    kind: str
    edge: str
    partner: str | None = None


def admissible_move(view: PointView, w: str) -> Tandem | None:
    """The displacement pair the worker's admissible edge starts.

    The admissible edge is the first edge, scanning the worker's order
    from its least preferred supported edge on down (its whole order when
    it holds nothing), that the far firm finds interesting.  The pair's
    ``minus`` is None when the far firm absorbs the extra unit outright;
    the result is None when the worker has no admissible edge.
    """
    inst, local, shapes = view.inst, view.local, view.shapes
    ev = evaluator_for(inst, w)
    end = view.wanted_end(w, ev.order[ev.last_rank(local[w], shapes[w]) :])
    if end is None:
        return None
    i, f, fpos = end
    a = inst.edges[i].id
    verdict, c_pos = evaluator_for(inst, f).unit_response(local[f], fpos, shapes[f])
    if verdict == "same":
        raise InvariantViolation(f"admissible edge {a} is not interesting for {f}")
    return Tandem(f, a, None if verdict == "absorb" else inst.edges_of(f)[c_pos])


def build_auxiliary(view: PointView) -> dict[str, Tandem]:
    """Each worker's admissible move at a stable point.

    Maps every worker at a positive quota that it fills and that has an
    admissible edge to the displacement pair the edge starts, whose
    ``minus`` is None when the far firm absorbs the unit outright.  Not
    in canonical worker order: a carried search adds the moves that
    appear last.

    The stability check and the moves are read from the view, which may
    be built from the view of another stable point, and the moves are
    stored in it; the result is ``view.moves`` itself.  The moves start
    as a copy of a stable parent's whose rotations were searched, and
    only the workers ``_searched_again`` names are searched again.  Any
    other parent, or one from which every vertex moved, is dropped and
    every worker is searched, from no moves.  The searched workers whose
    move differs from the parent's, gained or lost included, are stored
    as ``view.changed``, in canonical order.
    """
    report = view.report
    if not report.stable:
        raise GallocError(f"auxiliary structure needs a stable assignment; {report}")
    if view.moves is None:
        inst, parent = view.inst, view.parent
        old: dict[str, Tandem] = {}
        stale = inst.workers
        searched = parent is not None and parent.rotations is not None
        if searched and view.dirty is not None:
            old, stale = parent.moves, _searched_again(view)
        else:
            view.parent = None  # nothing to carry: never searched, or all moved
        moves = dict(old)
        changed: list[str] = []
        shapes = view.shapes  # a shape starts with its vector's total
        for w in stale:
            quota = inst.quota(w)
            filled = quota and shapes[w][0] == quota
            move = admissible_move(view, w) if filled else None
            if move is None:
                moves.pop(w, None)
            else:
                moves[w] = move
            if moves.get(w) != old.get(w):
                changed.append(w)
        view.moves, view.changed = moves, changed
    return view.moves


def _searched_again(view: PointView) -> list[str]:
    """The workers whose move may differ from the stable parent's.

    A worker keeps its move when it did not move, nor did the firm of its
    added edge, and none of its firms is losing (``view.losing``): the
    edges its scan skipped joined it to firms that did not want them, and
    by the lemma of the delta rule (see ``PointView._blocking``) a firm
    that is not losing still does not, while the firm of its added edge
    still wants it and answers as it did.  So three sets of workers are
    searched again: the dirty workers, the workers whose move starts at a
    dirty firm, and every worker of a losing firm (``view.losing_workers``,
    which the check built).  Canonical order.
    """
    inst, dirty = view.inst, view.dirty
    stale = set(view.dirty_workers)
    stale.update(view.losing_workers)
    stale.update(w for w, t in view.parent.moves.items() if t.firm in dirty)
    return sorted(stale, key=inst.worker_index.__getitem__)


def _successor(inst: Instance, t: Tandem | None) -> str | None:
    """The worker of the edge a move displaces; None for an absorbed move."""
    return None if t is None or t.minus is None else inst.edge(t.minus).worker


def clean(inst: Instance, moves: dict[str, Tandem | None]) -> dict[str, Tandem]:
    """The moves of the workers on cycles of the successor map.

    A worker's successor is the worker of the edge its pair displaces;
    an absorbed move (no ``minus``, or None) has none.  Workers nothing
    points into are deleted and the deletion cascades.  As every worker
    has at most one successor, the survivors are exactly the cycle
    workers, each with one predecessor.  In the order of the moves.
    """
    succ = {w: _successor(inst, t) for w, t in moves.items()}
    indeg = Counter(succ.values())
    queue = [w for w in succ if not indeg[w]]
    while queue:
        v = succ.pop(queue.pop())
        indeg[v] -= 1
        if v in succ and not indeg[v]:
            queue.append(v)
    return {w: moves[w] for w in succ}


def extract_rotations(inst: Instance, active: dict[str, Tandem]) -> tuple[Rotation, ...]:
    """Read one rotation off each cycle of the cleaned moves."""
    left = dict(active)
    rotations: list[Rotation] = []
    for start in active:
        cycle: list[str] = []
        w = start
        while w in left:
            t = left.pop(w)
            cycle.extend((t.plus, t.minus))
            w = inst.edge(t.minus).worker
        if cycle:
            rotations.append(Rotation(_canonical_cycle(inst, tuple(cycle))))
    rotations.sort(key=lambda r: r.key)
    return tuple(rotations)


def _canonical_cycle(inst: Instance, cycle: tuple[str, ...]) -> tuple[str, ...]:
    def rank(i: int) -> int:
        return inst.worker_index[inst.edge(cycle[i]).worker]

    k = min(range(0, len(cycle), 2), key=rank)
    return cycle[k:] + cycle[:k]


def rotation_tandems(inst: Instance, rot: Rotation) -> tuple[Tandem, ...]:
    return tuple(
        Tandem(inst.edge(a).firm, a, c)
        for a, c in zip(rot.plus_edges, rot.minus_edges)
    )


def applicable_rotations(
    inst: Instance, x: Assignment, view: PointView | None = None
) -> tuple[Rotation, ...]:
    """All rotations applicable at a stable assignment, canonical order.

    ``view`` is the view of ``x``; this is the one search that builds
    one when none is given.  The answer is stored in the view.  Every
    search carries its parent's rotations (see ``_carried_rotations``);
    a view with no searched parent is searched as the child of a point
    with no moves and no rotations.
    """
    if view is None:
        view = PointView(inst, x)
    if view.rotations is None:
        build_auxiliary(view)
        view.rotations = _carried_rotations(view)
        view.parent = None
    return view.rotations


def _carried_rotations(view: PointView) -> tuple[Rotation, ...]:
    """The view's rotations, from its parent's and its changed workers.

    A parent rotation is kept exactly when its key shares no edge with
    the changed workers' old added edges.  The key holds only edges of
    its own workers, each one's old added edge among them, so that is
    when none of its workers changed its move, and the successor map
    differs from the parent's only at the changed workers.  Every new
    cycle passes one of them, so the new cycles are read by ``clean``
    and ``extract_rotations`` off the walks of the new map from the
    changed workers, which stop at a worker with no successor or one
    already walked.  A walk that runs into a kept cycle reads it again,
    from the same first edge, and the kept copy is dropped.  Below a
    parent with no moves every move is changed, so the moves are read
    whole.
    """
    inst, moves, changed, parent = view.inst, view.moves, view.changed, view.parent
    old, rotations = ({}, ()) if parent is None else (parent.moves, parent.rotations)
    gone = {old[w].plus for w in changed if w in old}
    walked: dict[str, Tandem] = moves
    if old:
        walked = {}
        for w in changed:
            while w not in walked and (t := moves.get(w)) is not None:
                walked[w] = t
                w = _successor(inst, t)
    new = extract_rotations(inst, clean(inst, walked)) if walked else ()
    if not gone and not new:
        return rotations
    firsts = {r.key[0] for r in new}
    kept = [r for r in rotations if gone.isdisjoint(r.key) and r.key[0] not in firsts]
    return tuple(sorted(kept + list(new), key=lambda r: r.key))


def weight_budget(inst: Instance, rot: Rotation) -> int:
    """Hard cap on fresh evaluations one weight search may spend."""
    b = max(inst.b_max, 1)
    return len(rot.plus_edges) * (b - 1).bit_length() + 2


def _swaps_at(
    inst: Instance, x: Assignment, t: Tandem, view: PointView | None = None
) -> Callable[[int], bool]:
    """Whether the pair still swaps at weight mu, as a predicate on mu.

    That is, whether the firm takes mu more units on ``t.plus`` by
    dropping mu units of ``t.minus``.  The firm's evaluator, its share of
    ``x`` (read from ``view``, the view of ``x``, when one is given) and
    the two positions are resolved once, not once per weight probed.
    """
    f = t.firm
    z = inst.local_values(x, f) if view is None else view.local[f]
    plus, minus = inst.local_pos(f, t.plus), inst.local_pos(f, t.minus)
    return functools.partial(evaluator_for(inst, f).swaps, z, plus, minus)


def largest_weight(nu: int, holds: Callable[[int], bool]) -> int:
    """The largest mu in [1, nu] where ``holds``, by bisection.

    ``holds`` must hold at 1 and on a prefix of the range; callers check
    the unit step themselves.
    """
    lo, hi = 1, nu
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def max_feasible_weight(
    inst: Instance, x: Assignment, rot: Rotation, view: PointView | None = None
) -> int:
    """The largest weight the rotation can shift in one move.

    Bounded by the capacity room on added edges and the load on
    subtracted edges; within that, each displacement pair must keep
    answering a weight-mu bump with a weight-mu swap.  Each pair's
    threshold is found by binary search, which keeps the number of fresh
    evaluations within ``weight_budget``.  ``view``, the view of ``x``
    when the caller holds one, gives the firms' local vectors; without
    it they are read off ``x``.  The answer is the same.
    """
    tau = shift_room(inst, x, rot.plus_edges, rot.minus_edges)
    if tau < 1:
        raise GallocError("rotation is not applicable: no room for a unit shift")
    before = total_fresh_evaluations(inst)
    for t in rotation_tandems(inst, rot):
        swaps = _swaps_at(inst, x, t, view)
        if not swaps(1):
            raise GallocError(
                f"rotation is not applicable: pair ({t.plus}, {t.minus}) "
                f"does not swap at {t.firm}"
            )
        tau = largest_weight(tau, swaps)
    spent = total_fresh_evaluations(inst) - before
    if spent > weight_budget(inst, rot):
        raise InvariantViolation(
            f"weight search spent {spent} evaluations, over its budget "
            f"{weight_budget(inst, rot)}"
        )
    return tau


def linear_scan_feasible_weight(
    inst: Instance, x: Assignment, rot: Rotation
) -> tuple[int, tuple[int, ...]]:
    """Reference scan for the maximal feasible weight.

    Tries every weight from 1 up to the capacity bound and returns the
    largest prefix of feasible weights, plus any weights that were
    feasible again after a failure (which would contradict the
    monotonicity the binary search relies on).
    """
    probes = [_swaps_at(inst, x, t) for t in rotation_tandems(inst, rot)]
    tau = 0
    gaps: list[int] = []
    failed = False
    for mu in range(1, shift_room(inst, x, rot.plus_edges, rot.minus_edges) + 1):
        if all(swaps(mu) for swaps in probes):
            if failed:
                gaps.append(mu)
            else:
                tau = mu
        else:
            failed = True
    return tau, tuple(gaps)


def apply_rotation(
    inst: Instance, x: Assignment, rot: Rotation, weight: int
) -> Assignment:
    """Shift ``weight`` around the rotation."""
    return shift(inst, x, rot.plus_edges, rot.minus_edges, weight)


def classify_events(
    inst: Instance, x: Assignment, rot: Rotation, tau: int
) -> tuple[Event, ...]:
    """Why the maximal weight stopped at ``tau``; at least one must hold."""
    idx = inst.edge_index
    out = apply_rotation(inst, x, rot, tau)
    events: list[Event] = []
    for c in rot.minus_edges:
        if x.values[idx[c]] == tau:
            events.append(Event("negative-exhausted", c))
    for a in rot.plus_edges:
        if x.values[idx[a]] + tau == inst.edge(a).capacity:
            events.append(Event("positive-saturated", a))
    for t in rotation_tandems(inst, rot):
        room = shift_room(inst, x, (t.plus,), (t.minus,))
        if tau < room and not _swaps_at(inst, out, t)(1):
            events.append(Event("tandem-destroyed", t.plus, t.minus))
    if not events:
        raise InvariantViolation(
            f"no stopping event explains weight {tau} of rotation {rot.key}"
        )
    return tuple(events)
