"""Navigation of the stable set: extreme points and routes.

Both extremes of the lattice come from one capacity-reduction kernel,
deferred acceptance with either side proposing (Alkan & Gale 2003): the
proposers choose from the current capacities, the receivers choose from
the offers, and capacities are cut wherever a receiver refused units,
until a fixpoint.  Under substitutability the outcome does not depend on
the order of offers (Hatfield & Milgrom 2005), so the kernel runs from a
worklist and re-evaluates only the vertices whose input changed.  By
consistence (C(x) <= y <= x gives C(y) = C(x)) a receiver offered
exactly what it kept keeps all of it, so it is not asked again.

Two independent pipelines find the worker-best stable assignment (the
minimum of the firm-side lattice order):

* ``xmin_by_capacity_reduction``: workers propose, firms cut.
* ``stage1_find_stable`` + ``stage2_descend_to_xmin``: grow any stable
  assignment by shifting along admissible paths and cycles, then walk
  down the lattice by reversing legal cycles: cycles of the reversal
  graph, whose nodes are the workers at quota.

Two more find the firm-best one, the maximum:
``xmax_by_capacity_reduction`` (firms propose, workers cut) and the end
of a full route.

On top of stable points, routes chain rotation shifts.  A full route
runs from the minimum to the maximum using maximal weights; a targeted
route stops at a prescribed stable assignment, possibly truncating
weights along the way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

from .choice import evaluator_for
from .errors import GallocError, GaplessnessError, InvariantViolation
from .model import Assignment, Instance, shift, shift_room
from .rotation import (
    Rotation,
    Tandem,
    _swaps,
    admissible_move,
    applicable_rotations,
    apply_rotation,
    largest_weight,
    max_feasible_weight,
)
from .stability import PointView, check_stability, compare_F


@dataclass(frozen=True)
class CapacityReductionRun:
    """Result of one side's capacity-reduction pipeline.

    Attributes:
        assignment: the stable extreme the proposing side prefers.
        iterations: worklist waves executed before the fixpoint (at
            least 1).

    The run also keeps the view that certified the assignment stable, for
    the first rotation search from it to read.
    """

    assignment: Assignment
    iterations: int
    _view: PointView = field(repr=False, compare=False)


def _capacity_reduction(inst: Instance, firms_propose: bool) -> CapacityReductionRun:
    """Deferred acceptance with one side proposing, run from a worklist.

    Proposers choose from their current capacities and receivers choose
    from the offers; every edge where the receiver kept less than offered
    has its capacity cut down to the kept amount.  A wave re-evaluates
    the proposers with a capacity cut in the last wave, then the
    receivers whose offers changed in this one.  Any other proposer would
    repeat its offers, and any other receiver an answer that cut nothing
    (a cut lowers the offer on its edge), so the waves follow the rounds
    of the synchronous loop that re-evaluates every vertex.  Each
    receiver's last kept vector is remembered, and a receiver offered
    exactly that is not asked: by consistence it keeps the whole offer,
    so it cuts nothing.  Every wave but the last cuts a capacity unit,
    so the wave count is monitored against the |E| * b_max bound, and
    the fixpoint must be stable.  The firm side's certificate reads the
    same view of the fixpoint as the stability check.  The run keeps
    that view, so that the first rotation search from the fixpoint reads
    it too.
    """
    edges = inst.edges
    if firms_propose:
        proposers, receivers = inst.firms, inst.workers
        proposer_of = [e.firm for e in edges]
        receiver_of = [e.worker for e in edges]
    else:
        proposers, receivers = inst.workers, inst.firms
        proposer_of = [e.worker for e in edges]
        receiver_of = [e.firm for e in edges]
    caps = [e.capacity for e in edges]
    x = [0] * len(edges)
    last_kept: dict[str, tuple[int, ...]] = {}
    bound = max(1, len(edges) * max(inst.b_max, 1))
    dirty = proposers
    waves = 0
    while True:
        waves += 1
        if waves > bound + 1:
            raise InvariantViolation(
                f"capacity reduction ran {waves} waves, over its bound {bound}"
            )
        offered: set[str] = set()
        for p in dirty:
            ids = inst.edge_indices(p)
            picked = evaluator_for(inst, p)(tuple([caps[i] for i in ids]))
            for i, v in zip(ids, picked):
                if x[i] != v:
                    x[i] = v
                    offered.add(receiver_of[i])
        cut: set[str] = set()
        for r in receivers:
            if r not in offered:
                continue
            ids = inst.edge_indices(r)
            offer = tuple([x[i] for i in ids])
            if offer == last_kept.get(r):
                continue  # consistence: offered what it kept, it keeps it all
            kept = last_kept[r] = evaluator_for(inst, r)(offer)
            for i, v in zip(ids, kept):
                if v < x[i]:
                    caps[i] = v
                    cut.add(proposer_of[i])
        if not cut:
            break
        dirty = [p for p in proposers if p in cut]
    out = Assignment(tuple(x))
    view = PointView(inst, out)
    if not view.report.stable:
        raise InvariantViolation(
            f"capacity reduction fixpoint is not stable: {view.report}"
        )
    if firms_propose and applicable_rotations(inst, out, view):
        raise InvariantViolation("a rotation applies at the firm-side fixpoint")
    return CapacityReductionRun(out, waves, view)


def xmin_by_capacity_reduction(inst: Instance) -> CapacityReductionRun:
    """Worker-best stable assignment: workers propose, firms cut.

    The fixpoint is the minimum of the firm-side order.
    """
    return _capacity_reduction(inst, firms_propose=False)


def xmax_by_capacity_reduction(inst: Instance) -> CapacityReductionRun:
    """Firm-best stable assignment: firms propose, workers cut.

    The mirror of ``xmin_by_capacity_reduction``.  No rotation may apply
    at the fixpoint, which certifies it as the maximum of the firm-side
    order; the end of a full route is the second pipeline to this point.
    """
    return _capacity_reduction(inst, firms_propose=True)


def _step_monitor(inst: Instance) -> int:
    e = max(1, len(inst.edges))
    return 4 * max(1, inst.b_max) * e * e + 16


# -- Stage I -------------------------------------------------------------


def _growth_invariants_broken(inst: Instance, x: Assignment) -> str | None:
    """Check the growth-stage invariants; return a description or None.

    The assignment must sit in the box, respect worker quotas, be
    accepted by every firm, and no edge a worker prefers strictly to its
    last supported edge may be interesting for the far firm.  A worker
    that holds nothing has no such edge, so nothing of it is checked: at
    the zero point, where growth starts, every firm wants every edge.
    """
    for e, v in zip(inst.edges, x.values):
        if v < 0 or v > e.capacity:
            return f"edge {e.id} outside its capacity"
    for w in inst.workers:
        if inst.size_at(x, w) > inst.quota(w):
            return f"worker {w} over quota"
    view = PointView(inst, x)
    for f in inst.firms:
        if not evaluator_for(inst, f).accepts(view.local[f]):
            return f"firm {f} rejects its restriction"
    for w in inst.workers:
        ev = evaluator_for(inst, w)
        end = view.wanted_end(w, ev.order[: ev.last_rank(view.local[w])])
        if end is not None:
            eid = inst.edges[end[0]].id
            return f"edge {eid} above {w}'s last supported edge is interesting"
    return None


def _admissible_path(
    view: PointView, w0: str
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[Tandem, ...], bool]:
    """Follow admissible edges and displacement partners from a worker.

    Returns (added edges, subtracted edges, displacement pairs, is_path);
    a pair is an added edge and the next edge, which its firm drops for
    it.  A closed cycle keeps only its edges and pairs, its last pair
    wrapping to its first edge, and is_path is False; otherwise the walk
    ended at an absorbing firm or a worker with no admissible edge.
    """
    seq: list[str] = []
    pos: dict[str, int] = {}
    plus: set[str] = set()
    pairs: list[Tandem] = []
    w = w0
    cycle_from: int | None = None
    while True:
        t = admissible_move(view, w)
        if t is None:
            break  # ends at a worker
        a = t.plus
        if a in pos:
            cycle_from = pos[a]
            break
        pos[a] = len(seq)
        seq.append(a)
        plus.add(a)
        if t.minus is None:
            break  # ends at a firm
        c = t.minus
        pairs.append(t)
        if c in pos:
            cycle_from = pos[c]
            break
        pos[c] = len(seq)
        seq.append(c)
        w = view.inst.edge(c).worker
    if cycle_from is not None:
        seq = seq[cycle_from:]
        if len(seq) < 2 or len(seq) % 2 != 0:
            raise InvariantViolation(f"walk closed a degenerate cycle: {seq}")
    return (
        tuple(e for e in seq if e in plus),
        tuple(e for e in seq if e not in plus),
        tuple(t for t in pairs if t.plus in seq),
        cycle_from is None,
    )


def stage1_find_stable(inst: Instance) -> Assignment:
    """Grow a stable assignment from zero.

    Repeatedly picks a worker under quota with an admissible edge,
    follows the unique walk of displacement pairs from it, and shifts
    the maximal weight that preserves the growth invariants and at which
    every displacement pair of the walk still swaps.  When no such worker
    remains the assignment is stable.

    Termination: the potential is the profile of firm restrictions under
    the firms' revealed preferences (strict partial orders).  A step
    lifts each pair's firm to its choice from its old restriction plus
    the added units and an absorbing firm to a larger accepted vector,
    and moves no other firm, so no point recurs in the finite box.  This
    takes each firm once per walk; the step monitor stays as the guard.
    """
    x = inst.zero()
    guard = _step_monitor(inst)
    steps = 0
    while True:
        chosen = None
        view = PointView(inst, x)
        for w in inst.workers:
            if inst.size_at(x, w) >= inst.quota(w):
                continue
            if admissible_move(view, w) is not None:
                chosen = w
                break
        if chosen is None:
            report = view.report
            if not report.stable:
                raise InvariantViolation(
                    f"growth stage stopped on an unstable assignment: {report}"
                )
            return x
        steps += 1
        if steps > guard:
            raise InvariantViolation(f"growth stage exceeded {guard} iterations")
        plus, minus, pairs, is_path = _admissible_path(view, chosen)
        nu = shift_room(inst, x, plus, minus)
        if is_path:
            nu = min(nu, inst.quota(chosen) - inst.size_at(x, chosen))

        def feasible(mu: int) -> bool:
            if not all(_swaps(inst, x, t, mu) for t in pairs):
                return False
            y = shift(inst, x, plus, minus, mu)
            return _growth_invariants_broken(inst, y) is None

        if nu < 1 or not feasible(1):
            raise InvariantViolation(
                f"unit shift along {plus}/{minus} breaks the growth invariants"
            )
        x = shift(inst, x, plus, minus, largest_weight(nu, feasible))


# -- Stage II ------------------------------------------------------------


@dataclass(frozen=True)
class ReversalSets:
    """Down-shift candidates at a stable assignment.

    Attributes:
        u_minus: last supported edge of each worker at quota.
        u_plus: per worker at quota, its unsaturated edges strictly
            above the last supported one.
        wanted: per firm, the edges whose worker wants one more unit,
            with their positions at the firm.
    """

    u_minus: tuple[str, ...]
    u_plus: dict[str, tuple[str, ...]]
    wanted: dict[str, list[tuple[str, int]]]


def build_reversal_sets(inst: Instance, x: Assignment) -> ReversalSets:
    """Each worker's wanted positions, read off its order and its cut.

    A worker at quota wants one more unit exactly on the unsaturated
    edges above its last supported one (``LinearChoice``).
    """
    u_minus: list[str] = []
    u_plus: dict[str, tuple[str, ...]] = {}
    wanted: dict[str, list[tuple[str, int]]] = {}
    for w in inst.workers:
        z = inst.local_values(x, w)
        ev, ids, ends = evaluator_for(inst, w), inst.edges_of(w), inst.far_ends(w)
        ups = ev.interesting_positions(z)
        for pos in ups:
            wanted.setdefault(ends[pos][1], []).append((ids[pos], ends[pos][2]))
        if not inst.quota(w) or sum(z) != inst.quota(w):
            continue  # below quota, or at quota zero: no supported edge to give up
        u_minus.append(ids[ev.order[ev.last_rank(z)]])
        if ups:
            u_plus[w] = tuple([ids[pos] for pos in ups])
    return ReversalSets(tuple(u_minus), u_plus, wanted)


def essential_f_pairs(
    view: PointView, f: str, rs: ReversalSets
) -> tuple[tuple[str, str], ...]:
    """Essential down-swap pairs (add, drop) at one firm.

    A pair is legal when adding one unit of the worker-preferred edge
    and dropping one of the to-be-dropped edge leaves a vector the firm
    accepts; it is essential when no other incident edge that a worker
    finds interesting becomes interesting for the firm at that vector.
    Probing the reversal candidates alone is not enough: a swap down the
    firm's taste can free room for an edge of an under-quota worker, and
    such an edge blocks the shifted point just the same.
    """
    inst, x = view.inst, view.x
    cf = evaluator_for(inst, f)
    cands = [c for ups in rs.u_plus.values() for c in ups if inst.edge(c).firm == f]
    drops = [a for a in rs.u_minus if inst.edge(a).firm == f]
    wanted = rs.wanted.get(f, ())
    out: list[tuple[str, str]] = []
    for a in drops:
        for c in cands:
            trial = _swapped(inst, x, c, a)
            if trial is None:
                continue
            interested = cf.interest(trial)
            if not any(interested(fpos) for d, fpos in wanted if d != c):
                out.append((c, a))
    return tuple(out)


def _swapped(inst: Instance, x: Assignment, c: str, a: str) -> tuple[int, ...] | None:
    """``c``'s firm's share of ``x`` with a unit moved from ``a`` to ``c``, or None."""
    f = inst.edge(c).firm
    z = list(inst.local_values(x, f))
    z[inst.local_pos(f, c)] += 1
    z[inst.local_pos(f, a)] -= 1
    return tuple(z) if evaluator_for(inst, f).accepts(z) else None


def _reversal_graph(
    inst: Instance, x: Assignment, rs: ReversalSets
) -> dict[str, list[tuple[str, str, str]]]:
    """Arcs ``(c, a, w2)`` out of each worker ``w``, in edge order of ``(c, a)``.

    One per essential pair with ``c`` in ``u_plus[w]``; ``w2`` holds ``a``.
    """
    arcs: dict[str, list[tuple[str, str, str]]] = {}
    view = PointView(inst, x)
    for f in inst.firms:
        for c, a in essential_f_pairs(view, f, rs):
            w, w2 = inst.edge(c).worker, inst.edge(a).worker
            arcs.setdefault(w, []).append((c, a, w2))
    idx = inst.edge_index
    for out in arcs.values():
        out.sort(key=lambda arc: (idx[arc[0]], idx[arc[1]]))
    return arcs


def _first_cycle(
    inst: Instance, arcs: dict[str, list[tuple[str, str, str]]]
) -> list[tuple[str, str]] | None:
    """First cycle of a depth-first search from the workers in order, as its pairs.

    The stack is the path: each worker with the index just past the arc it left by.
    """
    color: dict[str, int] = {}
    for root in inst.workers:
        if color.get(root):
            continue
        color[root] = 1
        stack: list[tuple[str, int]] = [(root, 0)]
        while stack:
            w, i = stack[-1]
            out = arcs.get(w, [])
            if i == len(out):
                color[w] = 2
                stack.pop()
                continue
            stack[-1] = (w, i + 1)
            nxt = out[i][2]
            state = color.get(nxt, 0)
            if state == 1:
                k = next(k for k, (v, _) in enumerate(stack) if v == nxt)
                return [arcs[v][j - 1][:2] for v, j in stack[k:]]
            if state == 0:
                color[nxt] = 1
                stack.append((nxt, 0))
    return None


def stage2_descend_to_xmin(inst: Instance, x: Assignment) -> Assignment:
    """Walk a stable assignment down to the lattice minimum.

    Legal cycles are the cycles of the reversal graph on workers: each
    gives up its last supported edge ``a`` for an edge ``c`` above it,
    whose firm drops the next worker's ``a``.  While there is one, shift
    the maximal weight along it that keeps the endpoint stable and every
    pair legal one unit earlier; an acyclic graph means the minimum.
    """
    report = check_stability(inst, x)
    if not report.stable:
        raise GallocError("descent needs a stable assignment")
    guard = _step_monitor(inst)
    steps = 0
    while True:
        rs = build_reversal_sets(inst, x)
        cycle = _first_cycle(inst, _reversal_graph(inst, x, rs))
        if cycle is None:
            return x
        steps += 1
        if steps > guard:
            raise InvariantViolation(f"descent exceeded {guard} iterations")
        plus = tuple(c for c, _ in cycle)
        minus = tuple(a for _, a in cycle)
        nu = shift_room(inst, x, plus, minus)

        def feasible(mu: int) -> bool:
            if not check_stability(inst, shift(inst, x, plus, minus, mu)).stable:
                return False
            if mu < 2:
                return True
            prev = shift(inst, x, plus, minus, mu - 1)
            at = build_reversal_sets(inst, prev)
            return all(
                c in at.u_plus.get(inst.edge(c).worker, ())
                and a in at.u_minus
                and _swapped(inst, prev, c, a) is not None
                for c, a in cycle
            )

        if nu < 1 or not feasible(1):
            raise InvariantViolation("unit reversal step is infeasible")
        weight = largest_weight(nu, feasible)
        y = shift(inst, x, plus, minus, weight)
        if compare_F(inst, y, x) != "less":
            raise InvariantViolation("reversal step did not move down the firm order")
        for w in inst.workers:
            zw = inst.local_values(x, w)
            zw2 = inst.local_values(y, w)
            if zw == zw2:
                continue
            diff = [b - a for a, b in zip(zw, zw2)]
            if sorted(diff) != [-weight] + [0] * (len(diff) - 2) + [weight]:
                raise InvariantViolation(
                    f"reversal step changed worker {w} by more than one swap"
                )
        x = y


def solve_xmin_by_stages(inst: Instance) -> Assignment:
    """The lattice minimum via the growth stage plus the descent stage."""
    return stage2_descend_to_xmin(inst, stage1_find_stable(inst))


# -- routes --------------------------------------------------------------


@dataclass(frozen=True)
class RouteStep:
    """One rotation shift on a route, and the stable point it reaches."""

    rotation: Rotation
    weight: int
    end: Assignment


@dataclass(frozen=True)
class Route:
    start: Assignment
    steps: tuple[RouteStep, ...]
    end: Assignment


def route_pairs(route: Route) -> "Counter[tuple[tuple[str, ...], int]]":
    """Multiset of (rotation key, weight) pairs of a route."""
    return Counter((s.rotation.key, s.weight) for s in route.steps)


def carried_search(
    inst: Instance, view: PointView | None = None
) -> Callable[[Assignment], tuple[Rotation, ...]]:
    """``applicable_rotations`` at each point a walk asks, from one carried view.

    A walk asks each point right after the point its step left, so each
    point is searched from the view of the point searched before it, and
    a search recomputes only what the step moved.  The first point asked
    reads ``view`` when that is its view, as capacity reduction's view of
    the minimum is; otherwise it is searched from ``view``, or from a full
    build when there is none.  Only the last view is kept: each search
    drops the one it carried from.
    """

    def search(x: Assignment) -> tuple[Rotation, ...]:
        nonlocal view
        if view is None or view.x != x:
            view = PointView(inst, x, view)
        return applicable_rotations(inst, x, view)

    return search


def walk_route(
    inst: Instance,
    start: Assignment,
    *,
    pick: Callable[[tuple[Rotation, ...]], Rotation] | None = None,
    assume_gapless: bool = False,
    rotations_at: Callable[[Assignment], tuple[Rotation, ...]] | None = None,
    step_at: Callable[[Assignment, Rotation], tuple[int, Assignment]] | None = None,
    taken: tuple[RouteStep, ...] = (),
) -> Route:
    """Route from ``start`` until no rotation is offered.

    At each point ``pick`` chooses one of the applicable rotations (in
    canonical key order; the first by default), which is shifted by its
    maximal weight.  Each point is asked right after the point its step
    left, and the rotation search carries one view from each point it
    searches to the next (``carried_search``).  ``rotations_at`` stands
    in for the search, and ``step_at`` for the step, which gives the
    weight shifted and the point reached, when a caller memoizes them or
    restricts them; a targeted route offers at most one rotation, and
    caps its weight, so as to stay below its target.
    Route length is monitored against (|W|+|F|)·|E|² under the gapless
    assumption, where a repeated rotation key raises GaplessnessError
    before its weight search, and against b_max·|E|² otherwise.  The
    steps ``taken`` from ``start`` already lead the route: the walk goes
    on from their end, and they count toward the monitor and the keys
    seen.
    """
    mult = len(inst.workers) + len(inst.firms) if assume_gapless else max(1, inst.b_max)
    bound = mult * max(1, len(inst.edges)) ** 2

    # The searches and the shift are looked up at call time, so rebinding
    # them is seen.
    def maximal(y: Assignment, rot: Rotation) -> tuple[int, Assignment]:
        tau = max_feasible_weight(inst, y, rot)
        return tau, apply_rotation(inst, y, rot, tau)

    search = rotations_at or carried_search(inst)
    step = step_at or maximal
    steps = list(taken)
    seen_keys = {s.rotation.key for s in taken}
    x = steps[-1].end if steps else start
    while True:
        rotations = search(x)
        # The steps taken, and the one about to be, count.
        if len(steps) + bool(rotations) > bound:
            raise InvariantViolation(
                f"route exceeded its length monitor of {bound} steps"
            )
        if not rotations:
            return Route(start, tuple(steps), x)
        rot = rotations[0] if pick is None else pick(rotations)
        if assume_gapless and rot.key in seen_keys:
            raise GaplessnessError(
                f"rotation {rot.key} repeated on a route; the instance is not gapless"
            )
        seen_keys.add(rot.key)
        tau, x = step(x, rot)
        steps.append(RouteStep(rot, tau, x))


def build_full_route(
    inst: Instance,
    start: Assignment | None = None,
    *,
    assume_gapless: bool = False,
    rng=None,
) -> Route:
    """Maximal-weight route from the lattice minimum to the maximum.

    Picks the first applicable rotation in canonical key order, or a
    random one when ``rng`` (a numpy Generator) is given.  Under the
    gapless assumption a repeated rotation key aborts with
    GaplessnessError; route length is monitored either way.  Without a
    ``start`` the route starts at the minimum, whose first search reads
    the view that capacity reduction certified it with.
    """
    view = None
    if start is None:
        view = xmin_by_capacity_reduction(inst)._view
        start = view.x
    pick = None if rng is None else (lambda rots: rots[int(rng.integers(len(rots)))])
    return walk_route(
        inst,
        start,
        pick=pick,
        assume_gapless=assume_gapless,
        rotations_at=carried_search(inst, view),
    )


def route_to_target(inst: Instance, start: Assignment, target: Assignment) -> Route:
    """Route from one stable assignment up to another it sits below.

    Each step takes the first rotation whose unit shift stays weakly
    below the target, with the largest weight that still does.
    """
    rel = compare_F(inst, start, target)
    if rel not in ("less", "equal"):
        raise GallocError(f"start is not below the target (it compares {rel})")

    def below(x: Assignment, rot: Rotation, mu: int) -> bool:
        y = apply_rotation(inst, x, rot, mu)
        return compare_F(inst, y, target) in ("less", "equal")

    search = carried_search(inst)

    def toward(x: Assignment) -> tuple[Rotation, ...]:
        if x.values == target.values:
            return ()
        stays = (r for r in search(x) if below(x, r, 1))
        return tuple(islice(stays, 1))

    def step(x: Assignment, rot: Rotation) -> tuple[int, Assignment]:
        # The points x + mu * rot form a chain, so staying weakly below
        # the target holds on a prefix of the weights.
        tau = largest_weight(
            max_feasible_weight(inst, x, rot), lambda mu: below(x, rot, mu)
        )
        return tau, apply_rotation(inst, x, rot, tau)

    route = walk_route(inst, start, rotations_at=toward, step_at=step)
    if route.end.values != target.values:
        raise InvariantViolation("no rotation moves toward the target")
    return route


def solve_extremes(inst: Instance) -> tuple[Assignment, Assignment]:
    """The minimum and maximum of the stable lattice (firm-side order)."""
    return (
        xmin_by_capacity_reduction(inst).assignment,
        xmax_by_capacity_reduction(inst).assignment,
    )
