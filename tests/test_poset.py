import pytest
from collections import Counter
from fractions import Fraction

import galloc.lattice
import galloc.poset
from galloc import (
    CostVector,
    GallocError,
    GaplessnessError,
    GeneratorConfig,
    LimitError,
    build_poset,
    build_poset_gapless,
    build_poset_general,
    check_stability,
    enumerate_closed_functions,
    from_closed_function,
    generate,
    make_ring_instance,
    min_cost_stable,
    to_closed_function,
)
from galloc.poset import (
    ClosedFunction,
    closedness_problem,
    is_closed,
    linear_extension,
    strict_ancestors,
)

from builders import parallel_pair, two_swaps

RING_L = ("a1", "d2", "a2", "d3", "a3", "d1")
RING_LP = ("a1", "c3", "a3", "c2", "a2", "c1")


def ring_point(inst, a, c, d):
    return inst.assignment((a, c, d) * 3)


def test_ring_general_poset_is_the_frozen_chain(ring4):
    poset = build_poset_general(ring4)
    assert poset.mode == "general"
    assert [(e.key, e.occurrence, e.weight) for e in poset.elements] == [
        (RING_LP, 0, 1),
        (RING_LP, 1, 1),
        (RING_L, 0, 1),
        (RING_L, 1, 1),
    ]
    assert poset.hasse == ((0, 3), (2, 0), (3, 1))
    assert poset.xmin.values == (0, 2, 2) * 3
    assert poset.xmax.values == (4, 0, 0) * 3
    assert strict_ancestors(poset, 1) == frozenset({0, 2, 3})
    assert strict_ancestors(poset, 2) == frozenset()
    order = linear_extension(poset)
    pos = {i: k for k, i in enumerate(order)}
    for lo, hi in poset.hasse:
        assert pos[lo] < pos[hi]


def test_gapless_poset_refuses_the_ring(ring4):
    with pytest.raises(GaplessnessError):
        build_poset(ring4)


def test_disjoint_swaps_make_an_antichain():
    poset = build_poset_gapless(two_swaps())
    assert [(e.key, e.occurrence, e.weight) for e in poset.elements] == [
        (("a1", "a2"), 0, 1),
        (("b1", "b2"), 0, 1),
    ]
    assert poset.hasse == ()
    assert enumerate_closed_functions(poset) == (
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    )


def test_general_mode_agrees_on_a_gapless_instance():
    # Seeds whose posets are not empty; seed 100 gives a two-chain.
    generated = [
        generate(
            GeneratorConfig(
                seed=s,
                density=1.0,
                quota_bound=2,
                family="mixed",
                b_cap_for_gapless=2,
            )
        )
        for s in (37, 46, 100)
    ]
    for inst in [
        two_swaps(),
        make_ring_instance(2),
        parallel_pair(3),
        two_swaps(1, 3),
        *generated,
    ]:
        a = build_poset_gapless(inst)
        b = build_poset(inst, general=True)
        assert (a.mode, b.mode) == ("gapless", "general")
        assert [(e.key, e.occurrence, e.weight) for e in a.elements] == [
            (e.key, e.occurrence, e.weight) for e in b.elements
        ]
        assert a.hasse == b.hasse
        assert a.xmax == b.xmax


def test_builds_search_each_stable_point_exactly_once(monkeypatch, ring4):
    # The base route, every deferred route and the successor lookups
    # share one search per point, however many routes pass it.
    searched = Counter()
    search = galloc.poset.applicable_rotations

    def counted(inst, x):
        searched[x.values] += 1
        return search(inst, x)

    for module in (galloc.lattice, galloc.poset):
        monkeypatch.setattr(module, "applicable_rotations", counted)
    for inst, general in ((two_swaps(), False), (ring4, True)):
        searched.clear()
        build_poset(inst, general=general)
        assert searched
        assert set(searched.values()) == {1}, searched


def test_small_ring_poset_is_a_two_chain():
    poset = build_poset_gapless(make_ring_instance(2))
    assert [e.weight for e in poset.elements] == [1, 1]
    assert {e.key for e in poset.elements} == {
        ("a1", "c3", "a3", "c2", "a2", "c1"),
        ("a1", "d2", "a2", "d3", "a3", "d1"),
    }
    assert poset.hasse == ((1, 0),)
    assert len(enumerate_closed_functions(poset)) == 3


def test_one_heavy_rotation_counts_weights():
    poset = build_poset(parallel_pair(3))
    assert [(e.key, e.weight) for e in poset.elements] == [(("e1", "e2"), 3)]
    assert enumerate_closed_functions(poset) == ((0,), (1,), (2,), (3,))


def test_closed_function_count_multiplies_over_antichains():
    poset = build_poset(two_swaps(1, 3))
    assert sorted(e.weight for e in poset.elements) == [1, 3]
    assert len(enumerate_closed_functions(poset)) == 8


def test_closedness_diagnostics(ring4):
    poset = build_poset_general(ring4)
    assert is_closed(poset, (0, 0, 0, 0))
    assert is_closed(poset, (0, 0, 1, 0))
    assert not is_closed(poset, (1, 0, 0, 0))
    assert "predecessor" in closedness_problem(poset, (1, 0, 0, 0))
    assert closedness_problem(poset, (0, 0)) == "wrong number of entries"
    assert "outside" in closedness_problem(poset, (0, 0, 9, 0))


def test_enumeration_refuses_huge_posets():
    poset = build_poset(parallel_pair(7))
    with pytest.raises(LimitError, match="over the limit"):
        enumerate_closed_functions(poset, limit=4)


def test_closed_functions_match_the_ring_chain(ring4):
    poset = build_poset_general(ring4)
    assert enumerate_closed_functions(poset) == (
        (0, 0, 0, 0),
        (0, 0, 1, 0),
        (1, 0, 1, 0),
        (1, 0, 1, 1),
        (1, 1, 1, 1),
    )
    chain = [ring_point(ring4, *p) for p in
             ((0, 2, 2), (1, 2, 1), (2, 1, 1), (3, 1, 0), (4, 0, 0))]
    for x in chain:
        xi = to_closed_function(ring4, poset, x)
        assert is_closed(poset, xi.values)
        assert from_closed_function(ring4, poset, xi).values == x.values
    points = {
        from_closed_function(ring4, poset, ClosedFunction(v)).values
        for v in enumerate_closed_functions(poset)
    }
    assert points == {x.values for x in chain}


def test_to_closed_function_needs_stability(ring4):
    poset = build_poset_general(ring4)
    with pytest.raises(GallocError, match="stable"):
        to_closed_function(ring4, poset, ring4.zero())
    with pytest.raises(GallocError, match="not a closed function"):
        from_closed_function(ring4, poset, ClosedFunction((1, 0, 0, 0)))


def test_min_cost_steers_each_swap_independently():
    inst = two_swaps()
    res = min_cost_stable(inst, CostVector.from_doc(inst, {"a1": -1}))
    assert res.assignment.values == (1, 0, 0, 1)
    assert res.cost == Fraction(-1)
    assert res.ideal == (0,)
    res = min_cost_stable(inst, CostVector.from_doc(inst, {"a1": -1, "b1": -2}))
    assert res.assignment.values == (1, 0, 1, 0)
    assert res.cost == Fraction(-3)
    assert set(res.ideal) == {0, 1}


def test_min_cost_defaults_to_the_minimum():
    inst = two_swaps()
    res = min_cost_stable(inst, CostVector.from_doc(inst, {}))
    assert res.assignment.values == (0, 1, 0, 1)
    assert res.cost == 0
    assert res.ideal == ()
    stable = check_stability(inst, res.assignment)
    assert stable.stable


def test_min_cost_handles_fractions():
    inst = two_swaps()
    res = min_cost_stable(
        inst, CostVector.from_doc(inst, {"a1": "-1/2", "b1": "0.25"})
    )
    assert res.assignment.values == (1, 0, 0, 1)
    assert res.cost == Fraction(-1, 2)


def test_min_cost_needs_a_gapless_instance(ring4):
    with pytest.raises(GaplessnessError):
        min_cost_stable(ring4, CostVector.from_doc(ring4, {"a1": -1}))
