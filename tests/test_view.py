"""Carried point views against full recomputation.

A rotation search reads a view of its point built from the view of the
point searched before it.  At every point of every walk the carried view
must give what a fresh stability check and a fresh auxiliary build give,
also when the parent lies far away, and an unstable child of a stable
parent must fail as the full check fails.
"""

import tracemalloc
from collections import Counter

import networkx as nx
import numpy as np
import pytest

import galloc.lattice
import galloc.rotation
from galloc import (
    GallocError,
    LimitError,
    applicable_rotations,
    build_full_route,
    build_poset,
    build_poset_general,
    check_stability,
    enumerate_stable,
    instance_from_dict,
    make_ring_instance,
    route_to_target,
    solve_extremes,
)
from galloc.rotation import build_auxiliary, clean, extract_rotations
from galloc.stability import PointView
from perfbench.corpus import latin, oracle_corpus, random_complete, rings

from builders import acceptance_corpora, poset_corpus


def load(built):
    return instance_from_dict(built.doc)


INSTANCES = {
    "acceptance": acceptance_corpora,
    "poset": poset_corpus,
    "rings": lambda: [make_ring_instance(q) for q in (2, 4, 6, 8)] + [load(rings(12, 8))],
    "latin": lambda: [load(latin(8)), load(latin(16)), load(latin(16, 2, 4))],
    "random64": lambda: [load(random_complete(64))],
    "oracle_corpus": lambda: [load(b) for b in oracle_corpus(1)],
}


def moved_vertices(inst, x, y):
    return {
        v
        for e, a, b in zip(inst.edges, x.values, y.values)
        if a != b
        for v in (e.worker, e.firm)
    }


def assert_view_is_full(inst, x, view):
    """The view of ``x`` reads as a fresh check and auxiliary build do."""
    assert view.x == x
    fresh = PointView(inst, x)
    assert view.local == fresh.local
    assert view.report == check_stability(inst, x)
    got = applicable_rotations(inst, x, view)
    assert build_auxiliary(view) is view.moves  # the search left them whole
    assert view.moves == build_auxiliary(PointView(inst, x))
    assert got == applicable_rotations(inst, x)
    assert got == extract_rotations(inst, clean(inst, build_auxiliary(PointView(inst, x))))


@pytest.fixture
def checked(monkeypatch):
    """Check every search the walks and the poset builds run; count views
    carried and built in full."""
    search = galloc.rotation.applicable_rotations
    tally = Counter()

    def checking(inst, x, view=None):
        assert view is not None
        got = search(inst, x, view)
        assert_view_is_full(inst, x, view)
        tally["carried" if view.dirty is not None else "full"] += 1
        return got

    monkeypatch.setattr(galloc.lattice, "applicable_rotations", checking)
    monkeypatch.setattr(galloc.poset, "applicable_rotations", checking)
    return tally


def targets(inst, route):
    """Points to route to: every stable point when the oracle can list them.

    The capacity box of the poset corpus's unions runs to 2**41 cells, but
    their stable sets are small and the sweep is factorized.
    """
    try:
        return enumerate_stable(inst, 10**15).elements
    except LimitError:
        return (route.steps[len(route.steps) // 2].end,) if route.steps else ()


@pytest.mark.parametrize("name", INSTANCES)
def test_carried_views_equal_full_recomputation_on_every_walk(name, checked):
    for inst in INSTANCES[name]():
        route = build_full_route(inst)
        for seed in (1, 2):  # as `galloc route --seed` picks
            build_full_route(inst, rng=np.random.Generator(np.random.PCG64(seed)))
        build_poset(inst, general=True)  # the base route and every deferred walk
        for target in targets(inst, route):
            route_to_target(inst, route.start, target)
    assert checked["carried"] > 0


@pytest.mark.parametrize("name", INSTANCES)
def test_views_advance_from_far_parents(name):
    # The minimum's view goes straight to the maximum and to every stable
    # point, and each point's view to the next one listed: the dirty set
    # is the value difference, whatever lies between the two points.
    for inst in INSTANCES[name]():
        lo, hi = solve_extremes(inst)
        base = PointView(inst, lo)
        assert_view_is_full(inst, lo, base)
        try:
            points = (hi,) + enumerate_stable(inst).elements
        except LimitError:
            points = (hi, lo)
        prev = base
        for y in points:
            for parent in (base, prev):
                view = PointView(inst, y, parent)
                moved = moved_vertices(inst, parent.x, y)
                all_moved = len(moved) == len(inst.workers) + len(inst.firms)
                assert view.dirty == (None if all_moved else moved)
                assert_view_is_full(inst, y, view)
            prev = view


def test_a_parent_rotation_is_kept_exactly_when_none_of_its_workers_changed(monkeypatch):
    # A changed worker off every parent rotation may have an old successor
    # chain that runs into one; that rotation is kept unless one of its own
    # workers changed.  A changed worker on a parent rotation breaks it, and
    # its key is gone.  Both must occur over routes, deferral routes and
    # views carried from far parents.
    carried = galloc.rotation._carried_rotations
    seen = Counter()

    def checking(view):
        inst, parent = view.inst, view.parent
        got = carried(view)
        if parent is None:  # read whole, also by the fresh search below
            return got
        assert got == applicable_rotations(inst, view.x)
        workers = {r: {inst.edge(a).worker for a in r.plus_edges} for r in parent.rotations}
        for w in view.changed:
            on = [r for r in parent.rotations if w in workers[r]]
            for r in on:
                assert r not in got
                seen["broken"] += 1
            chain, v = set(), w
            while not on and v is not None and v not in chain:
                chain.add(v)
                v = galloc.rotation._successor(inst, parent.moves.get(v))
                on = [r for r in parent.rotations if v in workers[r]]
                if on and workers[on[0]].isdisjoint(view.changed):
                    assert on[0] in got
                    seen["run into and kept"] += 1
        return got

    monkeypatch.setattr(galloc.rotation, "_carried_rotations", checking)
    for inst in poset_corpus() + [load(rings(4, 4)), load(latin(16, 2, 4))]:
        route = build_full_route(inst)
        for seed in (1, 2):
            build_full_route(inst, rng=np.random.Generator(np.random.PCG64(seed)))
        build_poset(inst, general=True)
        points = [route.start] + [step.end for step in route.steps]
        for x in points:  # every route point as a far parent, above or below
            parent = PointView(inst, x)
            applicable_rotations(inst, x, parent)
            for y in points:
                applicable_rotations(inst, y, PointView(inst, y, parent))
    assert seen["broken"] and seen["run into and kept"], seen


def test_a_child_of_a_parent_never_searched_is_searched_as_if_it_had_none():
    # Only the moves were built at the parent, so it has no rotations to
    # carry; the child must not read its changed workers off those moves.
    inst = load(rings(4, 4))
    route = build_full_route(inst)
    points = [route.start] + [step.end for step in route.steps]
    assert len(points) == 17
    for x, y in zip(points, points[1:]):
        parent = PointView(inst, x)
        build_auxiliary(parent)
        child = PointView(inst, y, parent)
        assert child.parent is parent
        assert applicable_rotations(inst, y, child) == applicable_rotations(inst, y)
        assert child.parent is None
        assert child.changed == [w for w, t in child.moves.items() if t is not None]


def test_a_carried_search_asks_only_the_stale_workers(monkeypatch):
    # Along the route of four disjoint rings, each step moves one ring: the
    # next search asks again only the workers of that ring, each once.
    inst = load(rings(4, 4))
    market = nx.Graph((e.worker, e.firm) for e in inst.edges)
    ring = {v: min(part) for part in nx.connected_components(market) for v in part}
    move = galloc.rotation.admissible_move
    search = galloc.lattice.applicable_rotations
    asked = []

    def asking(view, w):
        asked[-1].append(w)
        return move(view, w)

    def searching(inst, x, view=None):
        asked.append([])
        return search(inst, x, view)

    monkeypatch.setattr(galloc.rotation, "admissible_move", asking)
    monkeypatch.setattr(galloc.lattice, "applicable_rotations", searching)
    route = build_full_route(inst)
    assert len(asked) == len(route.steps) + 1
    assert sorted(asked[0]) == sorted(inst.workers)
    for step, workers in zip(route.steps, asked[1:]):
        moved = ring[inst.edge(step.rotation.key[0]).worker]
        assert len(workers) == len(set(workers)) <= 3
        assert {ring[w] for w in workers} <= {moved}


def test_unstable_children_of_a_stable_point_fail_as_the_full_check_does(ring4):
    parent = PointView(ring4, ring4.assignment((2, 1, 1) * 3))
    applicable_rotations(ring4, parent.x, parent)
    over = ring4.assignment((2, 2, 1) + (2, 1, 1) * 2)  # one more unit on c1
    short = ring4.assignment((1, 1, 1) + (2, 1, 1) * 2)  # one unit less on a1
    for y, report in (
        (over, "unacceptable=['w1', 'f2'] blocking=[]"),
        (short, "unacceptable=[] blocking=['a1', 'd2', 'c3']"),
    ):
        child = PointView(ring4, y, parent)
        assert child.dirty == moved_vertices(ring4, parent.x, y)
        assert child.report == check_stability(ring4, y)
        assert str(child.report) == report
        with pytest.raises(GallocError) as full:
            build_auxiliary(PointView(ring4, y))
        with pytest.raises(GallocError) as carried:
            build_auxiliary(child)
        assert str(carried.value) == str(full.value)
        assert str(full.value) == f"auxiliary structure needs a stable assignment; {report}"
    # Below an unstable parent, or one never checked, a clean vertex may be
    # the one at fault, so the child is checked in full.
    shorter = ring4.assignment((1, 1, 1, 2, 1, 1, 1, 1, 1))  # and one less on a3
    unstable = PointView(ring4, short, parent)
    assert not unstable.report.stable
    for p in (unstable, PointView(ring4, short)):
        child = PointView(ring4, shorter, p)
        assert child.dirty == {"w3", "f3"}
        assert "a1" in child.report.blocking
        assert child.report == check_stability(ring4, shorter)


def test_the_general_poset_keeps_no_view_per_point():
    inst = load(rings(12, 8))
    tracemalloc.start()
    try:
        build_poset_general(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
