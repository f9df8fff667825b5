import numpy as np
import pytest
from collections import Counter

from galloc import (
    GallocError,
    GaplessnessError,
    apply_rotation,
    build_full_route,
    check_stability,
    compare_F,
    enumerate_stable,
    make_ring_instance,
    route_pairs,
    route_to_target,
    solve_extremes,
    solve_xmin_by_stages,
    stage1_find_stable,
    stage2_descend_to_xmin,
    xmin_by_capacity_reduction,
)
from galloc.genrand import GeneratorConfig, generate
from galloc.lattice import build_reversal_sets, essential_f_pairs

from builders import parallel_pair, two_swaps

RING_L = ("a1", "d2", "a2", "d3", "a3", "d1")
RING_LP = ("a1", "c3", "a3", "c2", "a2", "c1")


def ring_point(inst, a, c, d):
    return inst.assignment((a, c, d) * 3)


def assert_steps_reach_stable_points(inst, route):
    x = route.start
    for s in route.steps:
        x = apply_rotation(inst, x, s.rotation, s.weight)
        assert s.end == x
        assert check_stability(inst, s.end).stable
    assert route.end == x


def test_capacity_reduction_reaches_the_bottom(ring4):
    run = xmin_by_capacity_reduction(ring4)
    assert run.assignment.values == (0, 2, 2) * 3
    assert run.iterations <= len(ring4.edges) * ring4.b_max


def test_stage1_finds_a_stable_point(ring4):
    x = stage1_find_stable(ring4)
    assert check_stability(ring4, x).stable
    assert stage1_find_stable(ring4, ring4.zero()).values == x.values


def test_stage2_descends_the_whole_chain(ring4):
    for a, c, d in ((4, 0, 0), (2, 1, 1), (0, 2, 2)):
        got = stage2_descend_to_xmin(ring4, ring_point(ring4, a, c, d))
        assert got.values == (0, 2, 2) * 3


def test_both_minimum_pipelines_agree(ring4):
    assert (
        solve_xmin_by_stages(ring4).values
        == xmin_by_capacity_reduction(ring4).assignment.values
    )
    inst = two_swaps(2, 3)
    assert (
        solve_xmin_by_stages(inst).values
        == xmin_by_capacity_reduction(inst).assignment.values
    )


@pytest.mark.parametrize(
    "family, seed",
    [("tableau", s) for s in (78, 136, 187, 313, 338)]
    + [("mixed", s) for s in (10, 108, 389)],
)
def test_growth_stage_terminates_where_a_shift_overshot(family, seed):
    # Each of these once cycled between two points until the step monitor
    # fired: a weight the growth invariants allowed broke a firm's swap.
    cfg = GeneratorConfig(
        seed, workers=3, firms=3, density=0.8, capacity_bound=3, quota_bound=4,
        family=family,
    )
    inst = generate(cfg)
    assert solve_xmin_by_stages(inst) == xmin_by_capacity_reduction(inst).assignment


def test_reversal_sets_on_the_ring(ring4):
    rs = build_reversal_sets(ring4, ring_point(ring4, 2, 1, 1))
    assert rs.u_minus == ("a1", "a2", "a3")
    assert rs.u_plus == {
        "w1": ("c1", "d1"),
        "w2": ("c2", "d2"),
        "w3": ("c3", "d3"),
    }
    assert essential_f_pairs(ring4, ring_point(ring4, 2, 1, 1), "f1", rs) == (
        ("c3", "a1"),
    )
    rs = build_reversal_sets(ring4, ring_point(ring4, 1, 2, 1))
    assert rs.u_plus == {"w1": ("d1",), "w2": ("d2",), "w3": ("d3",)}
    assert essential_f_pairs(ring4, ring_point(ring4, 1, 2, 1), "f1", rs) == (
        ("d2", "a1"),
    )


def test_full_route_up_the_ring(ring4):
    route = build_full_route(ring4)
    assert_steps_reach_stable_points(ring4, route)
    assert route.start.values == (0, 2, 2) * 3
    assert route.end.values == (4, 0, 0) * 3
    assert [s.rotation.key for s in route.steps] == [RING_L, RING_LP, RING_L, RING_LP]
    assert all(s.weight == 1 and s.full_weight == 1 for s in route.steps)
    assert route_pairs(route) == Counter({(RING_L, 1): 2, (RING_LP, 1): 2})


def test_gapless_routes_refuse_repeated_keys(ring4):
    with pytest.raises(GaplessnessError, match="repeated on a route"):
        build_full_route(ring4, assume_gapless=True)


def test_gapless_route_on_a_gapless_instance():
    inst = two_swaps()
    route = build_full_route(inst, assume_gapless=True)
    assert route.end.values == (1, 0, 1, 0)
    assert route_pairs(route) == Counter(
        {(("a1", "a2"), 1): 1, (("b1", "b2"), 1): 1}
    )


def test_random_routes_share_the_pair_multiset(ring4):
    canonical = route_pairs(build_full_route(ring4))
    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(seed))
        route = build_full_route(ring4, rng=rng)
        assert_steps_reach_stable_points(ring4, route)
        assert route_pairs(route) == canonical


def test_single_step_route_carries_full_weight():
    inst = parallel_pair(3)
    route = build_full_route(inst)
    assert route.start.values == (0, 3)
    assert route.end.values == (3, 0)
    assert [(s.weight, s.full_weight) for s in route.steps] == [(3, 3)]


def test_route_to_target_stops_midway(ring4):
    x0 = ring_point(ring4, 0, 2, 2)
    x2 = ring_point(ring4, 2, 1, 1)
    route = route_to_target(ring4, x0, x2)
    assert_steps_reach_stable_points(ring4, route)
    assert route.end.values == x2.values
    assert [s.rotation.key for s in route.steps] == [RING_L, RING_LP]
    empty = route_to_target(ring4, x2, x2)
    assert empty.steps == ()
    assert empty.end.values == x2.values


def test_route_to_target_truncates_the_weight():
    inst = parallel_pair(3)
    route = route_to_target(inst, inst.assignment((0, 3)), inst.assignment((1, 2)))
    assert [(s.weight, s.full_weight) for s in route.steps] == [(1, 3)]
    assert route.end.values == (1, 2)


def test_route_to_target_takes_the_largest_weight_below_the_target():
    truncated = 0
    for inst in (
        parallel_pair(3),
        parallel_pair(5),
        parallel_pair(8),
        two_swaps(3, 5),
        make_ring_instance(2),
        make_ring_instance(4),
        make_ring_instance(6),
    ):
        lat = enumerate_stable(inst)
        for i, start in enumerate(lat.elements):
            for j, target in enumerate(lat.elements):
                if not lat.leq(i, j):
                    continue
                route = route_to_target(inst, start, target)
                assert route.end == target
                x = start
                for s in route.steps:
                    if s.weight < s.full_weight:
                        over = apply_rotation(inst, x, s.rotation, s.weight + 1)
                        assert compare_F(inst, over, target) not in ("less", "equal")
                        truncated += s.weight > 1
                    x = apply_rotation(inst, x, s.rotation, s.weight)
    # Steps cut strictly between 1 and their full weight: 28 on the
    # parallel pairs, 81 on the two swaps.
    assert truncated == 109


def test_route_to_target_rejects_points_not_below(ring4):
    x0 = ring_point(ring4, 0, 2, 2)
    x2 = ring_point(ring4, 2, 1, 1)
    with pytest.raises(GallocError, match="not below the target"):
        route_to_target(ring4, x2, x0)


def test_solve_extremes_brackets_the_chain(ring4):
    xmin, xmax = solve_extremes(ring4)
    assert xmin.values == (0, 2, 2) * 3
    assert xmax.values == (4, 0, 0) * 3
    assert compare_F(ring4, xmin, xmax) == "less"


def test_extremes_of_larger_rings():
    for q in (2, 6):
        inst = make_ring_instance(q)
        xmin, xmax = solve_extremes(inst)
        p = q // 2
        assert xmin.values == (0, p, p) * 3
        assert xmax.values == (q, 0, 0) * 3
        route = build_full_route(inst, xmin)
        assert len(route.steps) == q
