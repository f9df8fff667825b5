"""The rotation poset, closed functions, and minimum-cost selection.

The stable set is encoded by a partial order on rotation occurrences:
stable assignments correspond one-to-one to closed functions on that
poset (zero outside a down-set, full weight on every strict ancestor of
a positive occurrence).  On gapless instances each rotation occurs once
and minimum-cost selection reduces to a minimum cut over the poset.

The poset is built from one full route and one deferral route per
rotation, on each connected part of the market that moves.  Stability
is local to each vertex's edges, so the stable set of a market is the
product of its parts' own and its poset is theirs side by side.  A
deferral route replays the full route up to the point where the two
first pick differently, so it is walked from there on.  Minimum-cost
selection weighs each rotation with the costs' integers over their
common denominator.
"""

from __future__ import annotations

import functools
import heapq
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

import networkx as nx
from networkx.algorithms.flow import edmonds_karp

from .errors import GallocError, InvariantViolation, LimitError
from .lattice import Route, route_pairs, route_to_target, walk_route
from .lattice import xmin_by_capacity_reduction
from .model import Assignment, CostVector, Instance
from .rotation import Rotation, applicable_rotations, apply_rotation
from .rotation import max_feasible_weight
from .stability import PointView, check_stability


@dataclass(frozen=True)
class PosetElement:
    """One rotation occurrence.

    ``key`` is the canonical cycle of the rotation, ``occurrence`` its
    0-based repetition index (always 0 on gapless instances), and
    ``weight`` the shift weight it carries on every full route.
    """

    key: tuple[str, ...]
    occurrence: int
    weight: int

    @property
    def plus_edges(self) -> tuple[str, ...]:
        return self.key[0::2]

    @property
    def minus_edges(self) -> tuple[str, ...]:
        return self.key[1::2]


@dataclass(frozen=True)
class RotationPoset:
    """Rotation occurrences with their immediate-precedence arcs.

    ``hasse`` holds index pairs (i, j) meaning element i immediately
    precedes element j.  ``mode`` records which construction produced
    the poset ("gapless" or "general").
    """

    elements: tuple[PosetElement, ...]
    hasse: tuple[tuple[int, int], ...]
    mode: str
    xmin: Assignment
    xmax: Assignment

    def minimal_elements(self) -> tuple[int, ...]:
        targets = {b for _, b in self.hasse}
        return tuple(i for i in range(len(self.elements)) if i not in targets)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "elements": [
                {"cycle": list(el.key), "occurrence": el.occurrence, "weight": el.weight}
                for el in self.elements
            ],
            "hasse": [list(p) for p in self.hasse],
        }


def linear_extension(poset: RotationPoset) -> tuple[int, ...]:
    """Topological order of the elements, lowest index first among ties."""
    return _topological_order(len(poset.elements), poset.hasse)[0]


def _topological_order(
    n: int, arcs: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], list[list[int]]]:
    """Kahn's order of 0..n-1 under the arcs, and the successor lists.

    Ties go to the lowest index first.
    """
    indeg = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for a, b in arcs:
        indeg[b] += 1
        succ[a].append(b)
    heap = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    out: list[int] = []
    while heap:
        i = heapq.heappop(heap)
        out.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    if len(out) != n:
        raise InvariantViolation("the rotation poset contains a directed cycle")
    return tuple(out), succ


def _check_reduction(edges: set[tuple[int, int]], n: int) -> None:
    """The arcs must form a DAG that is its own transitive reduction.

    An arc (a, b) is redundant when b is reachable from another successor
    of a; reachability is one bitset per element, OR-ed up in reverse
    topological order.
    """
    order, succ = _topological_order(n, edges)
    reach = [0] * n  # bit j of reach[i]: j is reachable from i by an arc or more
    for i in reversed(order):
        for j in succ[i]:
            reach[i] |= reach[j] | 1 << j
    dropped = []
    for a in range(n):
        via = 0
        for c in succ[a]:
            via |= reach[c]
        dropped.extend((a, b) for b in succ[a] if via >> b & 1)
    if dropped:
        raise InvariantViolation(
            "successor sets are not the immediate-precedence arcs: "
            f"transitive reduction drops {sorted(dropped)}"
        )


def _shift_sum(
    inst: Instance, xmin: Assignment, weighted: Iterable[tuple[PosetElement, int]]
) -> tuple[int, ...]:
    """xmin plus the shift of each element, taken at its paired value."""
    vals = list(xmin.values)
    for el, v in weighted:
        for e in el.plus_edges:
            vals[inst.edge_index[e]] += v
        for e in el.minus_edges:
            vals[inst.edge_index[e]] -= v
    return tuple(vals)


def build_poset_gapless(inst: Instance) -> RotationPoset:
    """Rotation poset of a gapless instance, one element per rotation.

    The general construction, with its base route built under the
    gapless assumption: the first repeated rotation raises
    GaplessnessError before any deferred route is walked.
    """
    return _build_poset(inst, "gapless")


def build_poset_general(inst: Instance) -> RotationPoset:
    """Rotation poset with repeated occurrences allowed."""
    return _build_poset(inst, "general")


def _components(inst: Instance) -> dict[str, int]:
    """Each vertex's connected component of the market, over all edges.

    Components are numbered in order of their first edge; a vertex with
    no edge has none.  Edges of zero capacity join components too, which
    only makes them coarser.
    """
    parent = {v: v for v in inst.workers + inst.firms}

    def root(v: str) -> str:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for e in inst.edges:
        parent[root(e.worker)] = root(e.firm)
    number: dict[str, int] = {}
    for e in inst.edges:
        number.setdefault(root(e.worker), len(number))
    return {v: number[r] for v in parent if (r := root(v)) in number}


def _build_poset(inst: Instance, mode: str) -> RotationPoset:
    """The rotation poset, built on each connected part of the market.

    Stability is local to each vertex's edges, so the stable set of a
    market is the product of its connected parts' own and its poset is
    theirs side by side.  A connected market is built on itself, from
    the view capacity reduction certified its minimum with.  Otherwise
    one search of that view finds the parts that offer a rotation; the
    others are at their maximum already.  Each part that moves is built
    on its own instance, its vertices with their quotas, orders and firm
    specs and its edges in the market's order, from a full view of the
    minimum's values on its edges.  Parts are built one at a time, in
    order of their first edge, and their elements merged in (key,
    occurrence) order.
    """
    first = xmin_by_capacity_reduction(inst)._view
    xmin = first.x
    part_of = _components(inst)
    if len(set(part_of.values())) <= 1:
        return _build_connected(inst, first, mode)
    moving = {
        part_of[inst.edge(r.key[0]).worker]
        for r in applicable_rotations(inst, xmin, first)
    }
    del first  # the parts carry their own views, not the market's
    members: dict[int, tuple[list[str], list[str]]] = {
        c: ([], []) for c in sorted(moving)
    }
    for side, vertices in enumerate((inst.workers, inst.firms)):
        for v in vertices:
            if part_of.get(v) in moving:
                members[part_of[v]][side].append(v)
    xmax = list(xmin.values)
    elements: list[PosetElement] = []
    arcs: list[tuple[PosetElement, PosetElement]] = []
    for workers, firms in members.values():
        at = sorted(i for w in workers for i in inst.edge_indices(w))
        part = Instance(
            workers,
            firms,
            [inst.edges[i] for i in at],
            {w: inst.worker_quotas[w] for w in workers},
            {w: inst.worker_orders[w] for w in workers},
            {f: inst.firm_cfs[f] for f in firms},
        )
        start = Assignment(tuple(xmin.values[i] for i in at))
        poset = _build_connected(part, PointView(part, start), mode)
        for i, v in zip(at, poset.xmax.values):
            xmax[i] = v
        elements += poset.elements
        arcs += [(poset.elements[a], poset.elements[b]) for a, b in poset.hasse]
    elements.sort(key=attrgetter("key", "occurrence"))
    index = {el: i for i, el in enumerate(elements)}
    hasse = tuple(sorted((index[a], index[b]) for a, b in arcs))
    return RotationPoset(tuple(elements), hasse, mode, xmin, Assignment(tuple(xmax)))


def _build_connected(inst: Instance, first: PointView, mode: str) -> RotationPoset:
    """The rotation poset of a connected market, from its minimum's view ``first``.

    One full route, the base route, fixes the occurrence counts and the
    (key, weight) multiset.  For each rotation a route deferring it
    maximally locates its occurrence points; the rotations applicable at
    each point give the successor occurrences, read off one running
    count of the keys the route has shifted so far.

    A deferral route picks what the base route picks up to the first
    point where the base route shifts the deferred key while another
    rotation is offered.  So it is walked from that point only, behind
    the base steps before it, which count toward its length monitor; its
    checks run on the whole joined route.  The routes still pass the
    same stable points many times, so each point is searched once and
    each step out of a point is weighed and shifted once.  The minimum
    is searched from ``first`` itself.  Every other point is searched
    from the view of the point that the step which first reached it
    left, as Gusfield & Irving's search advances from the matching it
    left, so only the step's rotation moved; a point that no step of
    the build reached is searched from ``first``.  A point's view is
    kept while the point offers a rotation that no step has left it by.
    After the last such step it is held only until the point that step
    reached, if new, is searched, so a chain keeps none.  A step interns
    the point it reaches, so a replayed step neither copies nor hashes
    the point's values.
    """
    xmin = first.x
    points = {xmin: xmin}
    came: dict[Assignment, PointView] = {}  # a new point: its step's parent's view
    kept: dict[Assignment, list] = {}  # a view, and its rotations not stepped

    @functools.cache
    def rotations_at(x: Assignment) -> tuple[Rotation, ...]:
        view = came.pop(x, first)
        if view.x != x:
            view = PointView(inst, x, view)
        rotations = applicable_rotations(inst, x, view)
        if rotations:
            kept[x] = [view, len(rotations)]
        return rotations

    @functools.cache
    def step_at(x: Assignment, rot: Rotation) -> tuple[int, Assignment]:
        tau = max_feasible_weight(inst, x, rot)
        y = apply_rotation(inst, x, rot, tau)
        held = kept[x]
        held[1] -= 1
        if not held[1]:
            del kept[x]
        if y not in points:
            points[y] = y
            came[y] = held[0]
        return tau, points[y]

    def walk(**how) -> Route:
        return walk_route(inst, xmin, rotations_at=rotations_at, step_at=step_at, **how)

    base = walk(assume_gapless=mode == "gapless")
    pair_multiset = route_pairs(base)
    counts = Counter(step.rotation.key for step in base.steps)

    branch: dict[tuple[str, ...], int] = {}  # where each key's deferral leaves
    x = xmin
    for i, s in enumerate(base.steps):
        if len(rotations_at(x)) > 1:
            branch.setdefault(s.rotation.key, i)
        x = s.end

    elements: list[PosetElement] = []
    arcs: set[tuple[tuple, tuple]] = set()  # between (key, occurrence) pairs
    for key in sorted(counts):
        route = walk(
            pick=lambda rots, key=key: next((r for r in rots if r.key != key), rots[0]),
            taken=base.steps[: branch.get(key, len(base.steps))],
        )
        if route.end.values != base.end.values:
            raise InvariantViolation(
                "a deferred route ended away from its component's maximum"
            )
        if route_pairs(route) != pair_multiset:
            raise InvariantViolation(
                "route weight multisets differ between full routes "
                "of a component"
            )
        occurred = sum(1 for s in route.steps if s.rotation.key == key)
        if occurred != counts[key]:
            raise InvariantViolation(
                f"rotation {key} occurred {occurred} times deferred "
                f"but {counts[key]} times on the base route"
            )
        # The route shifts each key counts[key] times (its multiset is the
        # base route's), so a successor's occurrence index, counts minus
        # its later shifts, is the number of its shifts so far.
        shifted: Counter[tuple[str, ...]] = Counter()
        for s in route.steps:
            shifted[s.rotation.key] += 1
            if s.rotation.key != key:
                continue
            i = shifted[key] - 1
            elements.append(PosetElement(key, i, s.weight))
            for succ in rotations_at(s.end):
                j = shifted[succ.key]
                if not 0 <= j < counts[succ.key]:
                    raise InvariantViolation(
                        f"successor occurrence of {succ.key} after {key} "
                        "falls outside its occurrence range"
                    )
                arcs.add(((key, i), (succ.key, j)))

    if Counter((el.key, el.weight) for el in elements) != pair_multiset:
        raise InvariantViolation(
            "element weights do not reproduce the route weight multiset"
        )
    index = {(el.key, el.occurrence): i for i, el in enumerate(elements)}
    edges = {(index[a], index[b]) for a, b in arcs}
    _check_reduction(edges, len(elements))
    reached = _shift_sum(inst, xmin, [(el, el.weight) for el in elements])
    if reached != base.end.values:
        raise InvariantViolation(
            "poset weights do not carry the minimum to the maximum"
        )
    poset = RotationPoset(tuple(elements), tuple(sorted(edges)), mode, xmin, base.end)
    minimal = {index[(r.key, 0)] for r in rotations_at(xmin)}
    if set(poset.minimal_elements()) != minimal:
        raise InvariantViolation(
            "minimal poset elements differ from the rotations applicable "
            "at the minimum"
        )
    return poset


def build_poset(inst: Instance, *, general: bool = False) -> RotationPoset:
    return build_poset_general(inst) if general else build_poset_gapless(inst)


# -- closed functions ----------------------------------------------------


@dataclass(frozen=True)
class ClosedFunction:
    """Element weights of a down-set, in poset element order."""

    values: tuple[int, ...]


def closedness_problem(poset: RotationPoset, values: tuple[int, ...]) -> str | None:
    """Why the values fail to be a closed function, or None if they are.

    Checking cover arcs is enough: every element's weight is at least 1
    (a route step at maximal weight), so one at full weight is positive
    and its own predecessors are checked in turn.
    """
    if len(values) != len(poset.elements):
        return "wrong number of entries"
    for i, (v, el) in enumerate(zip(values, poset.elements)):
        if not 0 <= v <= el.weight:
            return f"entry {i} outside [0, {el.weight}]"
    for j, i in poset.hasse:
        if values[i] > 0 and values[j] != poset.elements[j].weight:
            return (
                f"element {i} is positive but its predecessor {j} "
                "is not at full weight"
            )
    return None


def enumerate_closed_functions(
    poset: RotationPoset, limit: int = 10**6
) -> tuple[tuple[int, ...], ...]:
    """All closed functions, sorted lexicographically.

    Gives the elements their values in a linear extension, counting up
    like an odometer: an element ranges over [0, weight] when its
    predecessors are at full weight and is 0 otherwise.  Every prefix so
    set extends to a closed function (the rest at 0), so no branch is
    dead, and the walk refuses at the first closed function past
    ``limit``: its work is O(limit · (elements + arcs)).
    """
    topo = linear_extension(poset)
    preds: list[list[int]] = [[] for _ in poset.elements]
    for a, b in poset.hasse:
        preds[b].append(a)
    weights = [el.weight for el in poset.elements]
    values = [0] * len(weights)
    rising: list[int] = []  # the positions in topo whose element may still rise
    out: list[tuple[int, ...]] = []
    k = 0
    while True:
        for k in range(k, len(topo)):
            i = topo[k]
            values[i] = 0
            if weights[i] and all(values[j] == weights[j] for j in preds[i]):
                rising.append(k)
        if len(out) == limit:
            raise LimitError(f"over the limit of {limit} closed functions")
        out.append(tuple(values))
        if not rising:
            out.sort()
            return tuple(out)
        k = rising[-1]
        i = topo[k]
        values[i] += 1
        if values[i] == weights[i]:
            rising.pop()
        k += 1


def to_closed_function(
    inst: Instance, poset: RotationPoset, x: Assignment
) -> ClosedFunction:
    """Closed function of a stable assignment (route weights to it)."""
    if not check_stability(inst, x).stable:
        raise GallocError("only stable assignments have a closed function")
    route = route_to_target(inst, poset.xmin, x)
    index = {(el.key, el.occurrence): i for i, el in enumerate(poset.elements)}
    values = [0] * len(poset.elements)
    seen: Counter[tuple[str, ...]] = Counter()
    for step in route.steps:
        key = step.rotation.key
        i = index.get((key, seen[key]))
        if i is None:
            raise InvariantViolation(
                f"route used occurrence {seen[key]} of {key}, "
                "which is not a poset element"
            )
        values[i] = step.weight
        seen[key] += 1
    problem = closedness_problem(poset, tuple(values))
    if problem is not None:
        raise InvariantViolation(f"route weights are not closed: {problem}")
    return ClosedFunction(tuple(values))


def from_closed_function(
    inst: Instance, poset: RotationPoset, xi: ClosedFunction
) -> Assignment:
    """Stable assignment of a closed function (weighted shift sum)."""
    problem = closedness_problem(poset, xi.values)
    if problem is not None:
        raise GallocError(f"not a closed function: {problem}")
    vals = _shift_sum(inst, poset.xmin, zip(poset.elements, xi.values))
    for v, e in zip(vals, inst.edges):
        if v < 0 or v > e.capacity:
            raise InvariantViolation(
                f"closed function leaves edge {e.id} outside its capacity"
            )
    x = Assignment(vals)
    if not check_stability(inst, x).stable:
        raise InvariantViolation("closed function produced an unstable assignment")
    return x


# -- minimum cost --------------------------------------------------------


@dataclass(frozen=True)
class MinCostResult:
    """Cheapest stable assignment and how it was selected.

    ``ideal`` lists the poset elements taken at full weight; among all
    optima this is the inclusion-minimal down-set, so the assignment is
    the lowest optimal point of the lattice.
    """

    assignment: Assignment
    cost: Fraction
    ideal: tuple[int, ...]
    poset: RotationPoset


def min_cost_stable(inst: Instance, costs: CostVector) -> MinCostResult:
    """Minimum-cost stable assignment on a gapless instance.

    Each rotation gets weight (cost of added edges minus cost of dropped
    edges) times its shift weight; a minimum s-t cut over the poset
    (precedence arcs uncuttable) picks the optimal down-set.  The cut's
    sink side, what reaches the sink in the residual network, is the
    minimal optimal down-set.
    """
    poset = build_poset_gapless(inst)
    ints = costs.ints
    weights: list[int] = []
    for el in poset.elements:
        c = sum(ints[inst.edge_index[e]] for e in el.plus_edges) - sum(
            ints[inst.edge_index[e]] for e in el.minus_edges
        )
        weights.append(c * el.weight)
    inf = 1 + sum(abs(w) for w in weights)
    g = nx.DiGraph()
    g.add_node("s")
    g.add_node("t")
    for i, w in enumerate(weights):
        g.add_node(i)
        if w > 0:
            g.add_edge("s", i, capacity=w)
        elif w < 0:
            g.add_edge(i, "t", capacity=-w)
    for a, b in poset.hasse:
        g.add_edge(a, b, capacity=inf)
    # perfbench's tracer rebinds this module's edmonds_karp: read it per call.
    _, (_, sink_side) = nx.minimum_cut(g, "s", "t", flow_func=edmonds_karp)
    ideal = tuple(sorted(i for i in range(len(poset.elements)) if i in sink_side))
    if any(b in sink_side and a not in sink_side for a, b in poset.hasse):
        raise InvariantViolation("minimum cut side is not a down-set")
    values = tuple(el.weight if i in sink_side else 0 for i, el in enumerate(poset.elements))
    x = from_closed_function(inst, poset, ClosedFunction(values))
    return MinCostResult(x, costs.cost_of(x), ideal, poset)
