import pytest

from galloc import (
    GallocError,
    Rotation,
    applicable_rotations,
    apply_rotation,
    build_full_route,
    check_stability,
    classify_events,
    linear_scan_feasible_weight,
    make_ring_instance,
    max_feasible_weight,
)
from galloc.choice import total_choice_calls
from galloc.rotation import (
    admissible_edge,
    build_auxiliary,
    weight_budget,
)

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
        build_auxiliary(ring4, ring4.zero())


def test_admissible_edge_empty_support_modes():
    inst = one_on_one()
    x = inst.zero()
    assert admissible_edge(inst, x, "w1") is None
    assert admissible_edge(inst, x, "w1", empty_support="first") == "e1"


def test_unfilled_workers_start_no_rotation():
    inst = parallel_pair(1, worker_quota=2, firm_quota=1)
    x = inst.assignment((1, 0))
    aux = build_auxiliary(inst, x)
    assert aux.w_admissible == ()
    assert applicable_rotations(inst, x) == ()


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


def test_weight_search_rejects_inapplicable_rotations(ring4):
    x0 = ring_point(ring4, 0, 2, 2)
    with pytest.raises(GallocError, match="no room"):
        max_feasible_weight(ring4, x0, Rotation(("c1", "a1")))
    with pytest.raises(GallocError, match="does not swap"):
        max_feasible_weight(ring4, x0, Rotation(("a1", "c3")))
