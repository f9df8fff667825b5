import pytest

import galloc.rotation
from galloc import (
    GallocError,
    InvariantViolation,
    Rotation,
    applicable_rotations,
    apply_rotation,
    build_full_route,
    check_stability,
    classify_events,
    instance_from_dict,
    linear_scan_feasible_weight,
    make_ring_instance,
    max_feasible_weight,
    solve_extremes,
)
from galloc.choice import LinearChoice, total_choice_calls, total_fresh_evaluations
from galloc.rotation import (
    Tandem,
    admissible_move,
    build_auxiliary,
    clean,
    extract_rotations,
    weight_budget,
)
from galloc.stability import PointView
from perfbench.corpus import rings

from builders import one_on_one, parallel_pair, two_swaps

RING_L = ("a1", "d2", "a2", "d3", "a3", "d1")
RING_LP = ("a1", "c3", "a3", "c2", "a2", "c1")


def ring_point(inst, a, c, d):
    return inst.assignment((a, c, d) * 3)


def test_ring_rotation_at_the_bottom(ring4):
    x0 = ring_point(ring4, 0, 2, 2)
    rots = applicable_rotations(ring4, x0)
    assert [r.key for r in rots] == [RING_L]
    rot = rots[0]
    assert rot.plus_edges == ("a1", "a2", "a3")
    assert rot.minus_edges == ("d2", "d3", "d1")
    assert max_feasible_weight(ring4, x0, rot) == 1
    assert linear_scan_feasible_weight(ring4, x0, rot) == (1, ())


def test_ring_rotations_alternate_up_the_chain(ring4):
    expect = [RING_L, RING_LP, RING_L, RING_LP]
    x = ring_point(ring4, 0, 2, 2)
    for want in expect:
        rots = applicable_rotations(ring4, x)
        assert [r.key for r in rots] == [want]
        tau = max_feasible_weight(ring4, x, rots[0])
        assert tau == 1
        x = apply_rotation(ring4, x, rots[0], tau)
        assert check_stability(ring4, x).stable
    assert applicable_rotations(ring4, x) == ()
    assert x.values == ring_point(ring4, 4, 0, 0).values


def test_ring_stops_by_tandem_destruction(ring4):
    x0 = ring_point(ring4, 0, 2, 2)
    (rot,) = applicable_rotations(ring4, x0)
    events = classify_events(ring4, x0, rot, 1)
    assert events
    assert {e.kind for e in events} == {"tandem-destroyed"}


def test_scan_matches_bisection_on_small_instances():
    kinds = set()
    for inst in (
        two_swaps(),
        two_swaps(3, 5),
        parallel_pair(3),
        parallel_pair(5),
        make_ring_instance(2),
        make_ring_instance(4),
        make_ring_instance(6),
    ):
        # Every rotation at every point of the canonical full route.
        route = build_full_route(inst)
        points = [route.start]
        for step in route.steps:
            points.append(apply_rotation(inst, points[-1], step.rotation, step.weight))
        for x in points:
            for rot in applicable_rotations(inst, x):
                tau, gaps = linear_scan_feasible_weight(inst, x, rot)
                assert gaps == ()
                assert tau == max_feasible_weight(inst, x, rot)
                kinds |= {e.kind for e in classify_events(inst, x, rot, tau)}
    assert kinds == {"negative-exhausted", "positive-saturated", "tandem-destroyed"}


def test_parallel_edges_swap_at_full_weight():
    inst = parallel_pair(3)
    x = inst.assignment((0, 3))
    (rot,) = applicable_rotations(inst, x)
    assert rot.key == ("e1", "e2")
    assert max_feasible_weight(inst, x, rot) == 3
    y = apply_rotation(inst, x, rot, 3)
    assert y.values == (3, 0)
    assert check_stability(inst, y).stable
    events = classify_events(inst, x, rot, 3)
    assert {e.kind for e in events} == {"negative-exhausted", "positive-saturated"}


def test_disjoint_swaps_give_two_rotations():
    inst = two_swaps()
    x = inst.assignment((0, 1, 0, 1))
    rots = applicable_rotations(inst, x)
    assert [r.key for r in rots] == [("a1", "a2"), ("b1", "b2")]
    y = apply_rotation(inst, x, rots[0], 1)
    assert y.values == (1, 0, 0, 1)


def test_auxiliary_requires_stability(ring4):
    with pytest.raises(GallocError, match="needs a stable assignment"):
        build_auxiliary(PointView(ring4, ring4.zero()))


def test_admissible_edge_scans_an_empty_worker_from_the_top():
    inst = one_on_one()
    x = inst.zero()
    assert admissible_move(PointView(inst, x), "w1").plus == "e1"
    # At quota 0 the worker is full while holding nothing: it starts no
    # rotation, although its first edge is admissible.
    doc = inst.to_dict()
    doc["worker_quotas"]["w1"] = 0
    inst = instance_from_dict(doc)
    view = PointView(inst, x)
    assert admissible_move(view, "w1").plus == "e1"
    assert build_auxiliary(view) == {}


def test_unfilled_workers_start_no_rotation():
    inst = parallel_pair(1, worker_quota=2, firm_quota=1)
    x = inst.assignment((1, 0))
    assert build_auxiliary(PointView(inst, x)) == {}
    assert applicable_rotations(inst, x) == ()


def move_market():
    """Unit edges named for the moves of ``test_clean_keeps_exactly_the_cycles``."""
    edges = [
        ("p1", "w1", "fA"), ("m2", "w2", "fA"), ("p2", "w2", "fB"), ("n2", "w2", "fC"),
        ("m3", "w3", "fB"), ("p3", "w3", "fC"), ("p4", "w4", "fA"), ("p5", "w5", "fD"),
        ("m6", "w6", "fD"), ("b7", "w7", "fE"), ("a7", "w7", "fE"), ("p8", "w8", "fE"),
    ]
    workers = [f"w{i}" for i in range(1, 9)]
    firms = ["fA", "fB", "fC", "fD", "fE"]
    return instance_from_dict(
        {
            "workers": workers,
            "firms": firms,
            "edges": [{"id": e, "worker": w, "firm": f, "capacity": 1} for e, w, f in edges],
            "worker_quotas": dict.fromkeys(workers, 1),
            "worker_orders": {v: [e for e, w, _ in edges if w == v] for v in workers},
            "firm_cfs": {
                g: {"type": "linear", "order": [e for e, _, f in edges if f == g], "quota": 1}
                for g in firms
            },
        }
    )


def test_clean_keeps_exactly_the_cycles():
    inst = move_market()
    cycle = {"w2": Tandem("fB", "p2", "m3"), "w3": Tandem("fC", "p3", "n2")}
    loop = {"w7": Tandem("fE", "b7", "a7")}  # parallel edges of one firm
    moves = {
        "w1": Tandem("fA", "p1", "m2"),  # a tail into the 2-cycle
        **cycle,
        "w4": Tandem("fA", "p4", "m2"),  # a second tail, displacing the same edge
        "w5": Tandem("fD", "p5", "m6"),  # a chain into an absorbing worker
        "w6": None,
        **loop,
        "w8": Tandem("fE", "p8", "a7"),  # a tail into the self-loop
    }
    active = clean(inst, moves)
    assert active == {**cycle, **loop}
    assert list(active) == ["w2", "w3", "w7"]
    # Each cycle is read once from its first worker; keys sort by edge id.
    want = (Rotation(("b7", "a7")), Rotation(("p2", "m3", "p3", "n2")))
    assert extract_rotations(inst, active) == want
    assert extract_rotations(inst, {"w3": cycle["w3"], "w2": cycle["w2"], **loop}) == want


def test_weight_search_stays_within_budget(ring4):
    x1 = ring_point(ring4, 1, 2, 1)
    (rot,) = applicable_rotations(ring4, x1)
    assert rot.key == RING_LP
    assert weight_budget(ring4, rot) == 3 * 2 + 2
    fresh = make_ring_instance(4)
    (rot,) = applicable_rotations(fresh, fresh.assignment((1, 2, 1) * 3))
    before = total_choice_calls(fresh)
    max_feasible_weight(fresh, fresh.assignment((1, 2, 1) * 3), rot)
    assert total_choice_calls(fresh) - before <= weight_budget(fresh, rot)
    # The ring's tableau firms answer the swap probes in closed form: on
    # cold evaluators the search calls no rule, and its fresh closed-form
    # evaluations, one per firm of the rotation, stay within the budget.
    cold = make_ring_instance(4)
    assert max_feasible_weight(cold, cold.assignment((1, 2, 1) * 3), rot) == 1
    assert total_choice_calls(cold) == 0
    assert total_fresh_evaluations(cold) == 3 <= weight_budget(cold, rot)


def test_weight_budget_meters_closed_form_probes(monkeypatch):
    # A linear firm answers the swap probe in closed form, without a call
    # of its rule, so the budget must count closed-form evaluations too.
    inst = parallel_pair(8)
    x = inst.assignment((0, 8))
    (rot,) = applicable_rotations(inst, x)
    assert weight_budget(inst, rot) == 3 + 2
    cold = parallel_pair(8)
    assert max_feasible_weight(cold, x, rot) == 8
    assert total_choice_calls(cold) == 0
    assert total_fresh_evaluations(cold) == 1

    honest = LinearChoice.swaps

    def wasteful(self, z, plus, minus, mu):
        for k in range(1, mu + 1):  # a fresh closed form for every bump on the way
            self.accepts(z[:plus] + (z[plus] + k,) + z[plus + 1 :])
        return honest(self, z, plus, minus, mu)

    monkeypatch.setattr(LinearChoice, "swaps", wasteful)
    cold = parallel_pair(8)
    with pytest.raises(InvariantViolation, match="over its budget 5"):
        max_feasible_weight(cold, x, rot)
    assert total_choice_calls(cold) == 0


def test_weight_search_rejects_inapplicable_rotations(ring4):
    x0 = ring_point(ring4, 0, 2, 2)
    with pytest.raises(GallocError, match="no room"):
        max_feasible_weight(ring4, x0, Rotation(("c1", "a1")))
    with pytest.raises(GallocError, match="does not swap"):
        max_feasible_weight(ring4, x0, Rotation(("a1", "c3")))


def test_a_search_whose_moves_did_not_change_returns_its_parents_rotations():
    # One unit of the heavy swap moves w2 and f2, but w2 still adds on b1
    # and displaces b2, so every cycle is the parent's.
    inst = two_swaps(1, 3)
    lo, _ = solve_extremes(inst)
    parent = PointView(inst, lo)
    rots = applicable_rotations(inst, lo, parent)
    (heavy,) = [r for r in rots if r.key == ("b1", "b2")]
    y = apply_rotation(inst, lo, heavy, 1)
    child = PointView(inst, y, parent)
    assert child.dirty == {"w2", "f2"}
    assert applicable_rotations(inst, y, child) is rots
    assert child.changed == [] and child.parent is None
    assert rots == applicable_rotations(inst, y)


def components(inst):
    """Each vertex's connected component, as a frozenset of vertices."""
    of = {}
    for v0 in inst.workers + inst.firms:
        if v0 in of:
            continue
        group, stack = set(), [v0]
        while stack:
            v = stack.pop()
            if v not in group:
                group.add(v)
                stack.extend(e.firm if e.worker == v else e.worker
                             for e in map(inst.edge, inst.edges_of(v)))
        of.update(dict.fromkeys(group, frozenset(group)))
    return of


def test_carried_searches_extract_only_the_cycles_through_changed_workers(monkeypatch):
    inst = instance_from_dict(rings(4, 4).doc)
    ring_of = components(inst)
    extract = galloc.rotation.extract_rotations
    seen = []

    def recording(inst, active):
        got = extract(inst, active)
        seen.append((set(active), got))
        return got

    monkeypatch.setattr(galloc.rotation, "extract_rotations", recording)
    route = build_full_route(inst)
    view = PointView(inst, route.start)
    first = applicable_rotations(inst, route.start, view)
    assert len(first) == 4  # the full search reads every ring's cycle
    kept = 0
    for step in route.steps:
        seen.clear()
        view = PointView(inst, step.end, view)
        got = applicable_rotations(inst, step.end, view)
        assert view.changed  # each step moves one ring's workers
        assert {ring_of[w] for w in view.changed} == {ring_of[view.changed[0]]}
        extracted = [r for _, rs in seen for r in rs]
        for active, rs in seen:
            assert active <= ring_of[view.changed[0]]
            assert active == {inst.edge(a).worker for r in rs for a in r.plus_edges}
        for r in extracted:
            assert any(inst.edge(a).worker in view.changed for a in r.plus_edges)
        kept += len(got) - len(extracted)
        assert got == applicable_rotations(inst, step.end)
    assert kept > 0
