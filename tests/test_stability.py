import random

import pytest

from galloc import (
    GallocError,
    GeneratorConfig,
    Instance,
    apply_rotation,
    build_full_route,
    check_stability,
    compare_F,
    compare_W,
    generate,
)
from galloc.choice import evaluator_for
from galloc.stability import (
    blocking_edges,
    is_interesting,
    unacceptable_vertices,
)

from builders import one_on_one, two_swaps


def ring_point(inst, a, c, d):
    return inst.assignment((a, c, d) * 3)


def test_empty_assignment_is_blocked_everywhere():
    inst = one_on_one()
    report = check_stability(inst, inst.zero())
    assert not report.stable
    assert report.unacceptable_vertices == ()
    assert report.blocking == ("e1",)
    assert check_stability(inst, inst.assignment((1,))).stable


def test_ring_chain_points_are_stable(ring4):
    for a, c, d in ((0, 2, 2), (1, 2, 1), (2, 1, 1), (3, 1, 0), (4, 0, 0)):
        report = check_stability(ring4, ring_point(ring4, a, c, d))
        assert report.stable, (a, c, d, report)


def test_ring_off_chain_points_are_not_stable(ring4):
    # Over quota at every worker: rejected outright.
    x = ring_point(ring4, 1, 2, 2)
    report = check_stability(ring4, x)
    assert not report.stable
    assert set(report.unacceptable_vertices) == set(ring4.workers + ring4.firms)
    # Everyone under quota: every edge blocks.
    report = check_stability(ring4, ring4.zero())
    assert not report.stable
    assert len(report.blocking) == 9


def test_interesting_needs_room(ring4):
    x = ring_point(ring4, 0, 2, 2)
    assert not is_interesting(ring4, x, "w1", "c1")
    assert is_interesting(ring4, x, "f1", "a1")
    assert not is_interesting(ring4, x, "w1", "a1")
    assert blocking_edges(ring4, x) == ()


def test_ring_firm_order_is_a_chain(ring4):
    chain = [
        ring_point(ring4, *p)
        for p in ((0, 2, 2), (1, 2, 1), (2, 1, 1), (3, 1, 0), (4, 0, 0))
    ]
    for i, x in enumerate(chain):
        for j, y in enumerate(chain):
            want = "equal" if i == j else ("less" if i < j else "greater")
            assert compare_F(ring4, x, y) == want
    assert compare_F(ring4, chain[0], chain[0]) in ("less", "equal")
    assert compare_F(ring4, chain[0], chain[4]) in ("less", "equal")
    assert compare_F(ring4, chain[4], chain[0]) not in ("less", "equal")


def test_worker_order_reverses_the_firm_order(ring4):
    x = ring_point(ring4, 0, 2, 2)
    y = ring_point(ring4, 4, 0, 0)
    assert compare_F(ring4, x, y) == "less"
    assert compare_W(ring4, x, y) == "greater"


def test_disjoint_swaps_are_incomparable():
    inst = two_swaps()
    x = inst.assignment((1, 0, 0, 1))
    y = inst.assignment((0, 1, 1, 0))
    assert check_stability(inst, x).stable
    assert check_stability(inst, y).stable
    assert compare_F(inst, x, y) == "incomparable"
    assert compare_W(inst, x, y) == "incomparable"


def test_comparison_rejects_unaccepted_restrictions():
    inst = one_on_one()
    doc = inst.to_dict()
    doc["edges"][0]["capacity"] = 2
    from galloc import instance_from_dict

    wide = instance_from_dict(doc)
    with pytest.raises(GallocError, match="accepted restrictions"):
        compare_F(wide, wide.assignment((2,)), wide.assignment((0,)))


def test_unacceptable_vertices_lists_both_sides():
    inst = two_swaps()
    x = inst.assignment((1, 1, 0, 0))
    assert unacceptable_vertices(inst, x) == ("w1", "f1")
    assert unacceptable_vertices(inst, inst.assignment((0, 1, 0, 1))) == ()


def corpus_points():
    """Instances of every family, each with zero, minimum, route and box points."""
    rng = random.Random(7)
    for s in range(30):
        inst = generate(
            GeneratorConfig(
                seed=40_000 + s,
                workers=2 + s % 3,
                firms=2 + (s // 3) % 2,
                density=0.8,
                capacity_bound=3,
                quota_bound=4,
                family=("linear", "tableau", "mixed")[s % 3],
            )
        )
        route = build_full_route(inst)
        points = [inst.zero(), route.start]
        for step in route.steps:
            points.append(apply_rotation(inst, points[-1], step.rotation, step.weight))
        for _ in range(5):
            points.append(inst.assignment(rng.randint(0, e.capacity) for e in inst.edges))
        yield inst, points


def test_one_pass_check_matches_the_definition():
    unacceptable_seen = blocking_seen = 0
    for inst, points in corpus_points():
        for x in points:
            bad = tuple(
                v
                for v in inst.workers + inst.firms
                if not evaluator_for(inst, v).accepts(inst.local_values(x, v))
            )
            want = tuple(
                e.id
                for e in inst.edges
                if is_interesting(inst, x, e.worker, e.id)
                and is_interesting(inst, x, e.firm, e.id)
            )
            assert unacceptable_vertices(inst, x) == bad
            assert blocking_edges(inst, x) == want
            report = check_stability(inst, x)
            assert report.unacceptable_vertices == bad
            assert report.blocking == (() if bad else want)
            assert report.stable == (not bad and not want)
            unacceptable_seen += bool(bad)
            blocking_seen += bool(want) and not bad
    assert unacceptable_seen and blocking_seen


def test_check_builds_each_local_vector_once(monkeypatch):
    inst = generate(GeneratorConfig(seed=3, workers=4, firms=4, density=1.0))
    assert len(inst.edges) > len(inst.workers) + len(inst.firms)
    calls = 0
    local_values = Instance.local_values

    def counted(self, x, v):
        nonlocal calls
        calls += 1
        return local_values(self, x, v)

    monkeypatch.setattr(Instance, "local_values", counted)
    for x in (inst.zero(), build_full_route(inst).end):
        calls = 0
        check_stability(inst, x)
        assert 0 < calls <= len(inst.workers) + len(inst.firms)
