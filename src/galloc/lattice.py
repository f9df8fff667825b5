"""Navigation of the stable set: extreme points and routes.

Two independent pipelines find the worker-best stable assignment (the
minimum of the firm-side lattice order):

* ``xmin_by_capacity_reduction``: alternately let workers choose from
  the current capacities and firms choose from the workers' picks,
  reducing capacities wherever a firm refused units, until a fixpoint.
* ``stage1_find_stable`` + ``stage2_descend_to_xmin``: grow any stable
  assignment by shifting along admissible paths and cycles, then walk
  down the lattice by reversing rotations found through legal cycles.

On top of stable points, routes chain rotation shifts.  A full route
runs from the minimum to the maximum using maximal weights; a targeted
route stops at a prescribed stable assignment, possibly truncating
weights along the way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .choice import evaluator_for, interesting_at, single_unit_response
from .errors import GallocError, GaplessnessError, InvariantViolation
from .model import Assignment, Instance, shift, shift_room
from .rotation import (
    Rotation,
    Tandem,
    _swaps,
    admissible_edge,
    applicable_rotations,
    apply_rotation,
    largest_weight,
    max_feasible_weight,
)
from .stability import check_stability, compare_F, is_interesting


@dataclass(frozen=True)
class CapacityReductionRun:
    """Result of the capacity-reduction pipeline.

    Attributes:
        assignment: the stable minimum.
        iterations: rounds executed before the fixpoint (at least 1).
    """

    assignment: Assignment
    iterations: int


def xmin_by_capacity_reduction(inst: Instance) -> CapacityReductionRun:
    """Worker-best stable assignment by iterated capacity reduction.

    Each round, workers choose from the reduced capacities and firms
    choose from the workers' picks; every edge where the firm kept less
    than offered has its capacity cut down to the kept amount.  The
    fixpoint is stable.  The round count is monitored against the
    |E| * b_max bound.
    """
    caps = [e.capacity for e in inst.edges]
    bound = max(1, len(inst.edges) * max(inst.b_max, 1))
    rounds = 0
    while True:
        rounds += 1
        if rounds > bound + 1:
            raise InvariantViolation(
                f"capacity reduction ran {rounds} rounds, over its bound {bound}"
            )
        x = [0] * len(inst.edges)
        for w in inst.workers:
            ids = inst.edge_indices(w)
            picked = evaluator_for(inst, w)(tuple([caps[i] for i in ids]))
            for i, v in zip(ids, picked):
                x[i] = v
        changed = False
        for f in inst.firms:
            ids = inst.edge_indices(f)
            kept = evaluator_for(inst, f)(tuple([x[i] for i in ids]))
            for i, v in zip(ids, kept):
                if v < x[i]:
                    caps[i] = v
                    changed = True
        if not changed:
            out = Assignment(tuple(x))
            report = check_stability(inst, out)
            if not report.stable:
                raise InvariantViolation(
                    f"capacity reduction fixpoint is not stable: {report}"
                )
            return CapacityReductionRun(out, rounds)


def _step_monitor(inst: Instance) -> int:
    e = max(1, len(inst.edges))
    return 4 * max(1, inst.b_max) * e * e + 16


# -- Stage I -------------------------------------------------------------


def _growth_invariants_broken(inst: Instance, x: Assignment) -> str | None:
    """Check the growth-stage invariants; return a description or None.

    The assignment must sit in the box, respect worker quotas, be
    accepted by every firm, and no edge a worker prefers strictly to its
    last supported edge (or to its whole order when it holds nothing)
    may be interesting for the far firm.
    """
    for e, v in zip(inst.edges, x.values):
        if v < 0 or v > e.capacity:
            return f"edge {e.id} outside its capacity"
    for w in inst.workers:
        if inst.size_at(x, w) > inst.quota(w):
            return f"worker {w} over quota"
    for f in inst.firms:
        if not evaluator_for(inst, f).accepts(inst.local_values(x, f)):
            return f"firm {f} rejects its restriction"
    for w in inst.workers:
        last = inst.last_supported(x, w)
        if last is None:
            continue  # holds nothing: nothing strictly above its first edge
        for eid in inst.worker_orders[w][:last]:
            if is_interesting(inst, x, inst.edge(eid).firm, eid):
                return f"edge {eid} above {w}'s last supported edge is interesting"
    return None


def _admissible_path(
    inst: Instance, x: Assignment, w0: str
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
        a = admissible_edge(inst, x, w, empty_support="first")
        if a is None:
            break  # ends at a worker
        if a in pos:
            cycle_from = pos[a]
            break
        pos[a] = len(seq)
        seq.append(a)
        plus.add(a)
        f = inst.edge(a).firm
        verdict, c_pos = single_unit_response(
            evaluator_for(inst, f), inst.local_values(x, f), inst.local_pos(f, a)
        )
        if verdict == "same":
            raise InvariantViolation(f"admissible edge {a} is not interesting for {f}")
        if verdict == "absorb":
            break  # ends at a firm
        c = inst.edges_of(f)[c_pos]
        pairs.append(Tandem(f, a, c))
        if c in pos:
            cycle_from = pos[c]
            break
        pos[c] = len(seq)
        seq.append(c)
        w = inst.edge(c).worker
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


def stage1_find_stable(inst: Instance, start: Assignment | None = None) -> Assignment:
    """Grow a stable assignment from zero (or a given valid start).

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
    x = start if start is not None else inst.zero()
    broken = _growth_invariants_broken(inst, x)
    if broken is not None:
        raise GallocError(f"start violates the growth invariants: {broken}")
    guard = _step_monitor(inst)
    steps = 0
    while True:
        chosen = None
        for w in inst.workers:
            if inst.size_at(x, w) >= inst.quota(w):
                continue
            if admissible_edge(inst, x, w, empty_support="first") is not None:
                chosen = w
                break
        if chosen is None:
            report = check_stability(inst, x)
            if not report.stable:
                raise InvariantViolation(
                    f"growth stage stopped on an unstable assignment: {report}"
                )
            return x
        steps += 1
        if steps > guard:
            raise InvariantViolation(f"growth stage exceeded {guard} iterations")
        plus, minus, pairs, is_path = _admissible_path(inst, x, chosen)
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
    """

    u_minus: tuple[str, ...]
    u_plus: dict[str, tuple[str, ...]]

    @property
    def u_plus_all(self) -> tuple[str, ...]:
        return tuple(e for edges in self.u_plus.values() for e in edges)


def build_reversal_sets(inst: Instance, x: Assignment) -> ReversalSets:
    idx = inst.edge_index
    u_minus: list[str] = []
    u_plus: dict[str, tuple[str, ...]] = {}
    for w in inst.workers:
        if inst.size_at(x, w) != inst.quota(w):
            continue
        order = inst.worker_orders[w]
        last = inst.last_supported(x, w)
        if last is None:
            continue  # at quota zero: no supported edge to give up
        u_minus.append(order[last])
        ups = tuple(
            eid
            for eid in order[:last]
            if x.values[idx[eid]] < inst.edge(eid).capacity
        )
        if ups:
            u_plus[w] = ups
    return ReversalSets(tuple(u_minus), u_plus)


def essential_f_pairs(
    inst: Instance, x: Assignment, f: str, rs: ReversalSets
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
    cf = evaluator_for(inst, f)
    z = inst.local_values(x, f)
    cands = [c for c in rs.u_plus_all if inst.edge(c).firm == f]
    drops = [a for a in rs.u_minus if inst.edge(a).firm == f]
    wanted = [
        d
        for d in inst.edges_of(f)
        if is_interesting(inst, x, inst.edge(d).worker, d)
    ]
    out: list[tuple[str, str]] = []
    for a in drops:
        pa = inst.local_pos(f, a)
        for c in cands:
            pc = inst.local_pos(f, c)
            trial = list(z)
            trial[pc] += 1
            trial[pa] -= 1
            if not cf.accepts(trial):
                continue
            if not any(
                interesting_at(cf, trial, inst.local_pos(f, d))
                for d in wanted
                if d != c
            ):
                out.append((c, a))
    return tuple(out)


def _reversal_arcs(
    inst: Instance, x: Assignment, rs: ReversalSets
) -> dict[tuple[str, str], list[tuple[str, str]]]:
    """Arcs of the reversal graph; nodes are (side, edge id)."""
    arcs: dict[tuple[str, str], list[tuple[str, str]]] = {}

    def add(u: tuple[str, str], v: tuple[str, str]) -> None:
        arcs.setdefault(u, []).append(v)
        arcs.setdefault(v, [])

    for a in rs.u_minus:
        add(("F", a), ("W", a))
    for w, ups in rs.u_plus.items():
        ell = inst.worker_orders[w][inst.last_supported(x, w)]
        for c in ups:
            add(("W", c), ("F", c))
            add(("W", ell), ("W", c))
    for f in inst.firms:
        for c, a in essential_f_pairs(inst, x, f, rs):
            add(("F", c), ("F", a))
    for u in arcs:
        arcs[u].sort(key=lambda n: (n[0], inst.edge_index[n[1]]))
    return arcs


def _first_cycle(
    inst: Instance, arcs: dict[tuple[str, str], list[tuple[str, str]]]
) -> list[tuple[str, str]] | None:
    """Deterministic first simple directed cycle, or None."""
    color: dict[tuple[str, str], int] = {}
    order = sorted(arcs, key=lambda n: (n[0], inst.edge_index[n[1]]))
    for root in order:
        if color.get(root):
            continue
        path: list[tuple[str, str]] = []
        stack: list[tuple[tuple[str, str], int]] = [(root, 0)]
        color[root] = 1
        path.append(root)
        while stack:
            node, i = stack.pop()
            if i < len(arcs[node]):
                stack.append((node, i + 1))
                nxt = arcs[node][i]
                c = color.get(nxt, 0)
                if c == 1:
                    return path[path.index(nxt):]
                if c == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, 0))
            else:
                color[node] = 2
                path.pop()
    return None


def _pair_legal_at(
    inst: Instance, y: Assignment, f: str, c: str, a: str
) -> bool:
    """Whether (add c, drop a) is a legal pair at assignment y."""
    rs = build_reversal_sets(inst, y)
    w = inst.edge(c).worker
    if c not in rs.u_plus.get(w, ()) or a not in rs.u_minus:
        return False
    if inst.edge(a).firm != f:
        return False
    cf = evaluator_for(inst, f)
    z = list(inst.local_values(y, f))
    z[inst.local_pos(f, c)] += 1
    z[inst.local_pos(f, a)] -= 1
    if min(z) < 0 or any(v > cap for v, cap in zip(z, cf.caps)):
        return False
    return cf.accepts(z)


def stage2_descend_to_xmin(inst: Instance, x: Assignment) -> Assignment:
    """Walk a stable assignment down to the lattice minimum.

    As long as the reversal graph has a cycle, shift the maximal weight
    along it that keeps the endpoint stable and the last unit a legal
    step; when the graph is acyclic the minimum is reached.
    """
    report = check_stability(inst, x)
    if not report.stable:
        raise GallocError("descent needs a stable assignment")
    guard = _step_monitor(inst)
    steps = 0
    while True:
        rs = build_reversal_sets(inst, x)
        cycle = _first_cycle(inst, _reversal_arcs(inst, x, rs))
        if cycle is None:
            return x
        steps += 1
        if steps > guard:
            raise InvariantViolation(f"descent exceeded {guard} iterations")
        u_plus_set = set(rs.u_plus_all)
        edges_on = []
        n = len(cycle)
        fpairs: list[tuple[str, str, str]] = []
        for i in range(n):
            u, v = cycle[i], cycle[(i + 1) % n]
            if u[1] == v[1] and u[0] != v[0]:
                edges_on.append(u[1])
            if u[0] == "F" and v[0] == "F":
                fpairs.append((inst.edge(u[1]).firm, u[1], v[1]))
        plus = tuple(e for e in edges_on if e in u_plus_set)
        minus = tuple(e for e in edges_on if e not in u_plus_set)
        if not plus or len(plus) != len(minus):
            raise InvariantViolation(f"reversal cycle is degenerate: {cycle}")
        nu = shift_room(inst, x, plus, minus)

        def feasible(mu: int) -> bool:
            if not check_stability(inst, shift(inst, x, plus, minus, mu)).stable:
                return False
            if mu >= 2:
                prev = shift(inst, x, plus, minus, mu - 1)
                for f, c, a in fpairs:
                    if not _pair_legal_at(inst, prev, f, c, a):
                        return False
            return True

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
    """One rotation shift on a route, and the stable point it reaches.

    ``weight`` is what was shifted; ``full_weight`` is the maximum that
    was available.  They differ only on routes truncated by a target.
    """

    rotation: Rotation
    weight: int
    full_weight: int
    end: Assignment


@dataclass(frozen=True)
class Route:
    start: Assignment
    steps: tuple[RouteStep, ...]
    end: Assignment


def route_pairs(route: Route) -> "Counter[tuple[tuple[str, ...], int]]":
    """Multiset of (rotation key, weight) pairs of a route."""
    return Counter((s.rotation.key, s.weight) for s in route.steps)


def walk_route(
    inst: Instance,
    start: Assignment,
    *,
    pick: Callable[[tuple[Rotation, ...]], Rotation] | None = None,
    assume_gapless: bool = False,
    rotations_at: Callable[[Assignment], tuple[Rotation, ...]] | None = None,
    weight_at: Callable[[Assignment, Rotation], int] | None = None,
) -> Route:
    """Maximal-weight route from ``start`` until no rotation applies.

    At each point ``pick`` chooses one of the applicable rotations (in
    canonical key order; the first by default), which is shifted by its
    maximal weight.  ``rotations_at`` and ``weight_at`` stand in for the
    two searches when a caller memoizes them.  Route length is monitored
    against (|W|+|F|)·|E|² under the gapless assumption, where a
    repeated rotation key raises GaplessnessError before its weight
    search, and against b_max·|E|² otherwise.
    """
    mult = len(inst.workers) + len(inst.firms) if assume_gapless else max(1, inst.b_max)
    bound = mult * max(1, len(inst.edges)) ** 2
    # The searches are looked up at call time, so rebinding them is seen.
    search = rotations_at or (lambda y: applicable_rotations(inst, y))
    weigh = weight_at or (lambda y, rot: max_feasible_weight(inst, y, rot))
    steps: list[RouteStep] = []
    seen_keys: set[tuple[str, ...]] = set()
    x = start
    while True:
        rotations = search(x)
        if not rotations:
            return Route(start, tuple(steps), x)
        if len(steps) >= bound:
            raise InvariantViolation(
                f"route exceeded its length monitor of {bound} steps"
            )
        rot = rotations[0] if pick is None else pick(rotations)
        if assume_gapless and rot.key in seen_keys:
            raise GaplessnessError(
                f"rotation {rot.key} repeated on a route; the instance is not gapless"
            )
        seen_keys.add(rot.key)
        tau = weigh(x, rot)
        x = apply_rotation(inst, x, rot, tau)
        steps.append(RouteStep(rot, tau, tau, x))


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
    GaplessnessError; route length is monitored either way.
    """
    x = start if start is not None else xmin_by_capacity_reduction(inst).assignment
    pick = None if rng is None else (lambda rots: rots[int(rng.integers(len(rots)))])
    return walk_route(inst, x, pick=pick, assume_gapless=assume_gapless)


def route_to_target(inst: Instance, start: Assignment, target: Assignment) -> Route:
    """Route from one stable assignment up to another it sits below.

    Each step takes the first rotation whose unit shift stays weakly
    below the target, with the largest weight that still does.
    """
    rel = compare_F(inst, start, target)
    if rel not in ("less", "equal"):
        raise GallocError(f"start is not below the target (it compares {rel})")
    x = start
    steps: list[RouteStep] = []
    guard = _step_monitor(inst)
    while compare_F(inst, x, target) == "less":
        if len(steps) > guard:
            raise InvariantViolation("targeted route exceeded its length monitor")
        found = None
        for rot in applicable_rotations(inst, x):
            y = apply_rotation(inst, x, rot, 1)
            if compare_F(inst, y, target) in ("less", "equal"):
                found = rot
                break
        if found is None:
            raise InvariantViolation("no rotation moves toward the target")
        full = max_feasible_weight(inst, x, found)
        # The points x + lam * found form a chain, so staying weakly below
        # the target holds on a prefix of the weights.
        lam = largest_weight(
            full,
            lambda mu: compare_F(inst, apply_rotation(inst, x, found, mu), target)
            in ("less", "equal"),
        )
        x = apply_rotation(inst, x, found, lam)
        steps.append(RouteStep(found, lam, full, x))
    return Route(start, tuple(steps), x)


def solve_extremes(inst: Instance) -> tuple[Assignment, Assignment]:
    """The minimum and maximum of the stable lattice (firm-side order)."""
    xmin = xmin_by_capacity_reduction(inst).assignment
    return xmin, build_full_route(inst, xmin).end
