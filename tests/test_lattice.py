import numpy as np
import pytest
from collections import Counter

from galloc import (
    GallocError,
    GaplessnessError,
    InvariantViolation,
    LimitError,
    apply_rotation,
    build_full_route,
    check_stability,
    compare_F,
    enumerate_stable,
    instance_from_dict,
    make_ring_instance,
    max_feasible_weight,
    route_pairs,
    route_to_target,
    solve_extremes,
    solve_xmin_by_stages,
    stage1_find_stable,
    stage2_descend_to_xmin,
    xmax_by_capacity_reduction,
    xmin_by_capacity_reduction,
)
from galloc.choice import evaluator_for, total_choice_calls
from galloc.genrand import GeneratorConfig, generate
from galloc.lattice import Route, build_reversal_sets, essential_f_pairs, walk_route
from galloc.stability import PointView
from perfbench.corpus import oracle_corpus, random_complete

from builders import acceptance_corpora, latin, parallel_pair, two_swaps

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


def full_weights(inst, route):
    """Each step's maximal weight at the point the step starts from."""
    starts = (route.start,) + tuple(s.end for s in route.steps[:-1])
    return [max_feasible_weight(inst, x, s.rotation) for x, s in zip(starts, route.steps)]


def test_capacity_reduction_reaches_the_bottom(ring4):
    run = xmin_by_capacity_reduction(ring4)
    assert run.assignment.values == (0, 2, 2) * 3
    assert run.iterations <= len(ring4.edges) * ring4.b_max


def test_stage1_finds_a_stable_point(ring4):
    x = stage1_find_stable(ring4)
    assert check_stability(ring4, x).stable


@pytest.mark.parametrize(
    "inst",
    [make_ring_instance(q) for q in (2, 4, 6, 8)]
    + [two_swaps(3, 5), parallel_pair(5)]
    + [latin(n) for n in (3, 4, 5)]
    + [latin(n, 2, 4) for n in (3, 4)],
    ids=["ring2", "ring4", "ring6", "ring8", "two_swaps_3_5", "parallel_pair_5",
         "latin3", "latin4", "latin5", "latin3_cap2_quota4", "latin4_cap2_quota4"],
)
def test_stage2_descends_the_whole_chain(inst):
    # two_swaps gives a reversal graph with two disjoint cycles; the Latin
    # markets have several cycles open at most points.
    xmin = xmin_by_capacity_reduction(inst).assignment
    route = build_full_route(inst, xmin)
    assert route.steps
    for x in (xmin,) + tuple(s.end for s in route.steps):
        assert stage2_descend_to_xmin(inst, x) == xmin


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
    x = ring_point(ring4, 2, 1, 1)
    rs = build_reversal_sets(ring4, x)
    assert rs.u_minus == ("a1", "a2", "a3")
    assert rs.u_plus == {
        "w1": ("c1", "d1"),
        "w2": ("c2", "d2"),
        "w3": ("c3", "d3"),
    }
    assert essential_f_pairs(PointView(ring4, x), "f1", rs) == (("c3", "a1"),)
    x = ring_point(ring4, 1, 2, 1)
    rs = build_reversal_sets(ring4, x)
    assert rs.u_plus == {"w1": ("d1",), "w2": ("d2",), "w3": ("d3",)}
    assert essential_f_pairs(PointView(ring4, x), "f1", rs) == (("d2", "a1"),)


def test_full_route_up_the_ring(ring4):
    route = build_full_route(ring4)
    assert_steps_reach_stable_points(ring4, route)
    assert route.start.values == (0, 2, 2) * 3
    assert route.end.values == (4, 0, 0) * 3
    assert [s.rotation.key for s in route.steps] == [RING_L, RING_LP, RING_L, RING_LP]
    assert [s.weight for s in route.steps] == full_weights(ring4, route) == [1] * 4
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
    assert [s.weight for s in route.steps] == full_weights(inst, route) == [3]


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
    assert [s.weight for s in route.steps] == [1]
    assert full_weights(inst, route) == [3]
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
                for s, full in zip(route.steps, full_weights(inst, route)):
                    if s.weight < full:
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


def test_route_to_target_raises_when_no_rotation_moves_toward_it(ring4, monkeypatch):
    x0 = ring_point(ring4, 0, 2, 2)
    x2 = ring_point(ring4, 2, 1, 1)
    monkeypatch.setattr("galloc.lattice.applicable_rotations", lambda inst, x, view=None: ())
    with pytest.raises(InvariantViolation, match="no rotation moves toward the target"):
        route_to_target(ring4, x0, x2)
    assert route_to_target(ring4, x2, x2).steps == ()


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


# -- both extremes by capacity reduction ---------------------------------


def quota_zero_market():
    """Two workers who swap two firms, and a third at quota 0."""
    edges = ("a w1 f1", "b w1 f2", "c w2 f1", "d w2 f2", "z w0 f1")
    return instance_from_dict(
        {
            "workers": ["w1", "w2", "w0"],
            "firms": ["f1", "f2"],
            "edges": [
                {"id": e, "worker": w, "firm": f, "capacity": 1}
                for e, w, f in map(str.split, edges)
            ],
            "worker_quotas": {"w1": 1, "w2": 1, "w0": 0},
            "worker_orders": {"w1": ["a", "b"], "w2": ["d", "c"], "w0": ["z"]},
            "firm_cfs": {
                "f1": {"type": "linear", "order": ["c", "z", "a"], "quota": 1},
                "f2": {"type": "linear", "order": ["b", "d"], "quota": 1},
            },
        }
    )


CORPORA = {
    "acceptance": (acceptance_corpora, 300),
    "rings": (lambda: [make_ring_instance(q) for q in range(2, 9, 2)], 3),
    "latin_cap2_quota4": (lambda: [latin(8, 2, 4), latin(16, 2, 4)], 0),
    "oracle_corpus": (
        lambda: [instance_from_dict(b.doc) for b in oracle_corpus(1)], 100
    ),
    # The stages skip a worker at quota 0 when they build reversal sets.
    "quota_zero": (lambda: [quota_zero_market()], 1),
}


@pytest.mark.parametrize("name", CORPORA)
def test_both_extremes_agree_with_the_second_pipelines_and_the_oracle(name):
    build, enumerable = CORPORA[name]
    checked = 0
    for inst in build():
        lo = xmin_by_capacity_reduction(inst).assignment
        hi = xmax_by_capacity_reduction(inst).assignment
        assert lo == solve_xmin_by_stages(inst)
        assert hi == build_full_route(inst, lo).end
        try:
            lat = enumerate_stable(inst)
        except LimitError:
            continue  # over the oracle's box limit
        assert (lo, hi) == (lat.min_element, lat.max_element)
        checked += 1
    assert checked == enumerable


def synchronous_reduction(inst, proposers):
    """Capacity reduction that re-evaluates every vertex every round.

    Returns the fixpoint, the round count, the proposer evaluations and
    the capacity cuts.
    """
    receivers = inst.firms if proposers == inst.workers else inst.workers
    caps = [e.capacity for e in inst.edges]
    rounds = evaluations = cuts = 0
    while True:
        rounds += 1
        x = [0] * len(inst.edges)
        for p in proposers:
            ids = inst.edge_indices(p)
            evaluations += 1
            for i, v in zip(ids, evaluator_for(inst, p)(tuple(caps[i] for i in ids))):
                x[i] = v
        before = cuts
        for r in receivers:
            ids = inst.edge_indices(r)
            for i, v in zip(ids, evaluator_for(inst, r)(tuple(x[i] for i in ids))):
                if v < x[i]:
                    caps[i] = v
                    cuts += 1
        if cuts == before:
            return inst.assignment(x), rounds, evaluations, cuts


@pytest.mark.parametrize(
    "side, solve", [("workers", xmin_by_capacity_reduction), ("firms", xmax_by_capacity_reduction)]
)
def test_capacity_reduction_reevaluates_only_cut_proposers(side, solve, monkeypatch):
    inst = instance_from_dict(random_complete(8, draw=1).doc)
    proposers = getattr(inst, side)
    x, rounds, sync_evaluations, sync_cuts = synchronous_reduction(inst, proposers)
    assert sync_evaluations > len(proposers) + sync_cuts

    evaluations = cuts = 0

    def counted(inst, v):
        ev = evaluator_for(inst, v)

        def answer(z):
            nonlocal evaluations, cuts
            out = ev(z)
            if v in proposers:
                evaluations += 1
            else:
                cuts += sum(kept < offered for kept, offered in zip(out, z))
            return out

        return answer

    monkeypatch.setattr("galloc.lattice.evaluator_for", counted)
    run = solve(inst)
    assert (run.assignment, run.iterations, cuts) == (x, rounds, sync_cuts)
    assert rounds > 2
    assert evaluations <= len(proposers) + cuts


def offer_changed_reduction(inst, proposers):
    """Deferred acceptance that asks every receiver whose offer changed.

    Every proposer chooses from its capacities every round.  Returns the
    fixpoint, the round count, and how many receivers were asked at the
    vector they kept when last asked.
    """
    receivers = inst.firms if proposers == inst.workers else inst.workers
    caps = [e.capacity for e in inst.edges]
    x = [0] * len(inst.edges)
    kept = {}
    rounds = repeats = 0
    while True:
        rounds += 1
        before = list(x)
        for p in proposers:
            ids = inst.edge_indices(p)
            for i, v in zip(ids, evaluator_for(inst, p)(tuple(caps[i] for i in ids))):
                x[i] = v
        cut = False
        for r in receivers:
            ids = inst.edge_indices(r)
            offer = tuple(x[i] for i in ids)
            if offer == tuple(before[i] for i in ids):
                continue
            repeats += offer == kept.get(r)
            kept[r] = evaluator_for(inst, r)(offer)
            for i, v in zip(ids, kept[r]):
                if v < x[i]:
                    caps[i] = v
                    cut = True
        if not cut:
            return inst.assignment(x), rounds, repeats


def reduction_markets():
    """Generated markets of every family with capacities up to 3, as documents."""
    return [
        generate(
            GeneratorConfig(
                seed=50_000 + s,
                workers=2 + s % 4,
                firms=2 + (s // 4) % 3,
                density=0.8,
                capacity_bound=1 + s % 3,
                quota_bound=4,
                family=("linear", "tableau", "mixed")[s % 3],
            )
        ).to_dict()
        for s in range(36)
    ]


@pytest.mark.parametrize(
    "side, solve", [("workers", xmin_by_capacity_reduction), ("firms", xmax_by_capacity_reduction)]
)
def test_capacity_reduction_does_not_ask_a_receiver_offered_what_it_kept(
    side, solve, monkeypatch
):
    # Consistence: a receiver offered exactly what it kept keeps all of it.
    last = {}

    def watched(inst, v):
        ev = evaluator_for(inst, v)
        if v in getattr(inst, side):
            return ev

        def answer(z):
            assert tuple(z) != last.get(v), f"{v} asked at the vector it kept"
            last[v] = ev(z)
            return last[v]

        return answer

    monkeypatch.setattr("galloc.lattice.evaluator_for", watched)
    dense = random_complete(24, draw=1).doc
    for doc in reduction_markets() + [dense]:
        reference = instance_from_dict(doc)
        x, rounds, repeats = offer_changed_reduction(reference, getattr(reference, side))
        inst = instance_from_dict(doc)
        last.clear()
        run = solve(inst)
        assert (run.assignment, run.iterations) == (x, rounds)
        calls, reference_calls = total_choice_calls(inst), total_choice_calls(reference)
        assert calls <= reference_calls
        if doc is dense:
            assert repeats > 0
            assert calls < reference_calls


def test_route_length_monitor_counts_the_steps_taken():
    # Steps handed to walk_route as taken lead the route and count toward
    # its length monitor, b_max * |E|^2 outside the gapless assumption.
    inst = make_ring_instance(4)
    xmin = xmin_by_capacity_reduction(inst).assignment
    route = build_full_route(inst, xmin)
    bound = inst.b_max * len(inst.edges) ** 2
    first = route.steps[:1]
    # bound steps that end at the maximum: the walk takes none more.
    taken = first * (bound - len(route.steps)) + route.steps
    assert walk_route(inst, xmin, taken=taken) == Route(xmin, taken, route.end)
    # One more step, or bound steps that end where a rotation is offered.
    for taken in (first + taken, first * bound):
        with pytest.raises(InvariantViolation, match=f"length monitor of {bound} steps"):
            walk_route(inst, xmin, taken=taken)
