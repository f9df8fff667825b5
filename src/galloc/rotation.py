"""Rotations at a stable assignment.

A rotation is an alternating cycle found in the cleaned graph of
admissible edges.  Shifting weight around it (add on the worker-chosen
edges, subtract on the displaced partners) moves to another stable
assignment, higher on the firm side.

The construction follows three steps: build the admissible structure,
clean it until the degree equalities hold, then read off the cycles.
The maximal shiftable weight is found per displacement pair by binary
search; the number of fresh choice-function evaluations it spends is
metered against a hard budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .choice import evaluator_for, single_unit_response, total_choice_calls
from .errors import GallocError, InvariantViolation
from .model import Assignment, Instance, shift, shift_room
from .stability import check_stability, is_interesting


@dataclass(frozen=True)
class Tandem:
    """At ``firm``, one extra unit on ``plus`` displaces one unit of ``minus``."""

    firm: str
    plus: str
    minus: str


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Admissible edges at a stable assignment, before cleaning.

    Attributes:
        w_admissible: (worker, edge) pairs in canonical worker order.
        tandems: one per worker-chosen edge the firm answers with a swap.
        absorbing: worker-chosen edges the firm would absorb outright.
    """

    w_admissible: tuple[tuple[str, str], ...]
    tandems: tuple[Tandem, ...]
    absorbing: tuple[str, ...]


@dataclass(frozen=True)
class ActiveGraph:
    """The cleaned structure; every vertex has equal in and out degree."""

    w_admissible: tuple[tuple[str, str], ...]
    tandems: tuple[Tandem, ...]


@dataclass(frozen=True)
class Rotation:
    """An alternating cycle of admissible edges.

    ``cycle`` lists edge ids: worker-chosen, displaced, worker-chosen,
    displaced, ...  It is rotated so the first entry belongs to the
    worker with the smallest canonical index, which makes it a usable
    identity key.  Workers occur at most once; firms may repeat.
    """

    cycle: tuple[str, ...]

    @property
    def plus_edges(self) -> tuple[str, ...]:
        return self.cycle[0::2]

    @property
    def minus_edges(self) -> tuple[str, ...]:
        return self.cycle[1::2]

    @property
    def key(self) -> tuple[str, ...]:
        return self.cycle


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


def admissible_edge(inst: Instance, x: Assignment, w: str) -> str | None:
    """The worker's admissible edge, if any.

    Scans the worker's order from its least preferred supported edge on
    down (its whole order when it holds nothing), returning the first
    edge the far firm finds interesting.
    """
    start = inst.last_supported(x, w)
    for eid in inst.worker_orders[w][start or 0:]:
        if is_interesting(inst, x, inst.edge(eid).firm, eid):
            return eid
    return None


def admissible_move(
    inst: Instance, x: Assignment, w: str
) -> tuple[str, Tandem | None] | None:
    """The worker's admissible edge and the displacement pair it starts.

    The pair is None when the far firm absorbs the extra unit outright;
    the whole result is None when the worker has no admissible edge.
    """
    a = admissible_edge(inst, x, w)
    if a is None:
        return None
    f = inst.edge(a).firm
    verdict, c_pos = single_unit_response(
        evaluator_for(inst, f), inst.local_values(x, f), inst.local_pos(f, a)
    )
    if verdict == "same":
        raise InvariantViolation(f"admissible edge {a} is not interesting for {f}")
    if verdict == "absorb":
        return a, None
    return a, Tandem(f, a, inst.edges_of(f)[c_pos])


def build_auxiliary(inst: Instance, x: Assignment) -> AuxiliaryGraph:
    """Admissible edges and displacement pairs at a stable assignment.

    Only workers at a positive quota that they fill take part.
    """
    report = check_stability(inst, x)
    if not report.stable:
        raise GallocError(f"auxiliary structure needs a stable assignment; {report}")
    pairs: list[tuple[str, str]] = []
    tandems: list[Tandem] = []
    absorbing: list[str] = []
    for w in inst.workers:
        if inst.quota(w) == 0 or inst.size_at(x, w) != inst.quota(w):
            continue
        move = admissible_move(inst, x, w)
        if move is None:
            continue
        a, t = move
        pairs.append((w, a))
        if t is None:
            absorbing.append(a)
        else:
            tandems.append(t)
    return AuxiliaryGraph(tuple(pairs), tuple(tandems), tuple(absorbing))


def clean(inst: Instance, aux: AuxiliaryGraph) -> ActiveGraph:
    """Delete admissible edges until the degree equalities hold.

    A worker's leaving edge is deleted when no displaced edge enters the
    worker; the deletion cascades.  At the fixpoint every surviving
    leaving edge has a displacement pair, displaced edges are distinct
    per firm, and in equals out at every vertex; violations raise
    InvariantViolation.
    """
    alive_a: dict[str, str] = dict(aux.w_admissible)
    tandem_of: dict[str, Tandem] = {t.plus: t for t in aux.tandems}
    absorbing = set(aux.absorbing)

    # How many live tandems currently displace each edge.
    minus_count: dict[str, int] = {}
    for t in aux.tandems:
        minus_count[t.minus] = minus_count.get(t.minus, 0) + 1
    entering: dict[str, set[str]] = {w: set() for w in alive_a}
    for c in minus_count:
        w = inst.edge(c).worker
        if w in entering:
            entering[w].add(c)

    queue = [w for w, ins in entering.items() if not ins]
    while queue:
        w = queue.pop()
        a = alive_a.pop(w, None)
        if a is None:
            continue
        absorbing.discard(a)
        t = tandem_of.pop(a, None)
        if t is None:
            continue
        minus_count[t.minus] -= 1
        if minus_count[t.minus] == 0:
            del minus_count[t.minus]
            wc = inst.edge(t.minus).worker
            if wc in entering:
                entering[wc].discard(t.minus)
                if not entering[wc] and wc in alive_a:
                    queue.append(wc)

    # Degree equalities of the cleaned structure.
    problems: list[str] = []
    if absorbing:
        problems.append(f"absorbing edges survived cleaning: {sorted(absorbing)}")
    live_minus: dict[str, list[Tandem]] = {}
    for t in tandem_of.values():
        live_minus.setdefault(t.minus, []).append(t)
    for c, ts in live_minus.items():
        if len(ts) > 1:
            problems.append(f"displaced edge {c} shared by several pairs")
    worker_in: dict[str, list[str]] = {}
    for c in live_minus:
        worker_in.setdefault(inst.edge(c).worker, []).append(c)
    for w, a in alive_a.items():
        if len(worker_in.get(w, [])) != 1:
            problems.append(f"worker {w} keeps a leaving edge with in-degree != 1")
    for w in worker_in:
        if w not in alive_a:
            problems.append(f"worker {w} keeps an entering edge with no leaving edge")
    firm_in: dict[str, int] = {}
    firm_out: dict[str, int] = {}
    for a in alive_a.values():
        f = inst.edge(a).firm
        firm_in[f] = firm_in.get(f, 0) + 1
    for c in live_minus:
        f = inst.edge(c).firm
        firm_out[f] = firm_out.get(f, 0) + 1
    if firm_in != firm_out:
        problems.append(f"firm degrees differ: in={firm_in} out={firm_out}")
    if problems:
        raise InvariantViolation("cleaning fixpoint is broken: " + "; ".join(problems))

    pairs = tuple((w, a) for w, a in sorted(alive_a.items(), key=lambda p: inst.worker_index[p[0]]))
    tandems = tuple(tandem_of[a] for _, a in pairs)
    return ActiveGraph(pairs, tandems)


def extract_rotations(inst: Instance, active: ActiveGraph) -> tuple[Rotation, ...]:
    """Decompose the cleaned structure into its alternating cycles."""
    a_of_worker = dict(active.w_admissible)
    tandem_of = {t.plus: t for t in active.tandems}
    rotations: list[Rotation] = []
    seen: set[str] = set()
    for w in inst.workers:
        a = a_of_worker.get(w)
        if a is None or a in seen:
            continue
        cycle: list[str] = []
        cur = a
        while cur not in seen:
            seen.add(cur)
            t = tandem_of[cur]
            cycle.extend((t.plus, t.minus))
            cur = a_of_worker[inst.edge(t.minus).worker]
        if cur != a:
            raise InvariantViolation(
                f"walk from {a} closed on {cur} instead of its start"
            )
        rotations.append(Rotation(_canonical_cycle(inst, tuple(cycle))))
    rotations.sort(key=lambda r: r.key)
    return tuple(rotations)


def _canonical_cycle(inst: Instance, cycle: tuple[str, ...]) -> tuple[str, ...]:
    plus = cycle[0::2]
    best = min(
        range(len(plus)),
        key=lambda i: (
            inst.worker_index[inst.edge(plus[i]).worker],
            inst.edge_index[plus[i]],
        ),
    )
    k = 2 * best
    return cycle[k:] + cycle[:k]


def rotation_tandems(inst: Instance, rot: Rotation) -> tuple[Tandem, ...]:
    return tuple(
        Tandem(inst.edge(a).firm, a, c)
        for a, c in zip(rot.plus_edges, rot.minus_edges)
    )


def applicable_rotations(inst: Instance, x: Assignment) -> tuple[Rotation, ...]:
    """All rotations applicable at a stable assignment, canonical order."""
    return extract_rotations(inst, clean(inst, build_auxiliary(inst, x)))


def weight_budget(inst: Instance, rot: Rotation) -> int:
    """Hard cap on fresh evaluations one weight search may spend."""
    b = max(inst.b_max, 1)
    return len(rot.plus_edges) * (b - 1).bit_length() + 2


def _swaps(inst: Instance, x: Assignment, t: Tandem, mu: int) -> bool:
    """Whether the pair still swaps at weight ``mu``.

    That is, whether the firm takes ``mu`` more units on ``t.plus`` by
    dropping ``mu`` units of ``t.minus``.
    """
    z = list(inst.local_values(x, t.firm))
    z[inst.local_pos(t.firm, t.plus)] += mu
    want = list(z)
    want[inst.local_pos(t.firm, t.minus)] -= mu
    return evaluator_for(inst, t.firm)(tuple(z)) == tuple(want)


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


def max_feasible_weight(inst: Instance, x: Assignment, rot: Rotation) -> int:
    """The largest weight the rotation can shift in one move.

    Bounded by the capacity room on added edges and the load on
    subtracted edges; within that, each displacement pair must keep
    answering a weight-mu bump with a weight-mu swap.  Each pair's
    threshold is found by binary search, which keeps the number of fresh
    evaluations within ``weight_budget``.
    """
    tau = shift_room(inst, x, rot.plus_edges, rot.minus_edges)
    if tau < 1:
        raise GallocError("rotation is not applicable: no room for a unit shift")
    before = total_choice_calls(inst)
    for t in rotation_tandems(inst, rot):
        if not _swaps(inst, x, t, 1):
            raise GallocError(
                f"rotation is not applicable: pair ({t.plus}, {t.minus}) "
                f"does not swap at {t.firm}"
            )
        tau = largest_weight(tau, lambda mu: _swaps(inst, x, t, mu))
    spent = total_choice_calls(inst) - before
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
    tandems = rotation_tandems(inst, rot)
    tau = 0
    gaps: list[int] = []
    failed = False
    for mu in range(1, shift_room(inst, x, rot.plus_edges, rot.minus_edges) + 1):
        if all(_swaps(inst, x, t, mu) for t in tandems):
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
        if tau < room and not _swaps(inst, out, t, 1):
            events.append(Event("tandem-destroyed", t.plus, t.minus))
    if not events:
        raise InvariantViolation(
            f"no stopping event explains weight {tau} of rotation {rot.key}"
        )
    return tuple(events)
