import random
from collections import Counter
from itertools import chain

import pytest

from galloc import (
    Assignment,
    GallocError,
    GeneratorConfig,
    Instance,
    applicable_rotations,
    apply_rotation,
    build_full_route,
    check_stability,
    compare_F,
    compare_W,
    generate,
    instance_from_dict,
    make_ring_instance,
)
from galloc.choice import evaluator_for, interesting_at, iter_box, join
from galloc.stability import PointView

from builders import latin, one_on_one, two_swaps


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


def test_a_point_outside_the_box_is_refused(ring4):
    base = ring_point(ring4, 2, 1, 1)
    parent = PointView(ring4, base)
    assert parent.report.stable
    for i, value, message in (
        (1, 3, "choice function of w1 queried outside its box: (2, 3, 1)"),
        (3, -1, "choice function of w2 queried outside its box: (-1, 1, 1)"),
        (8, 5, "choice function of w3 queried outside its box: (2, 1, 5)"),
    ):
        values = list(base.values)
        values[i] = value
        y = Assignment(tuple(values))
        for check in (lambda: check_stability(ring4, y), lambda: PointView(ring4, y, parent).report):
            with pytest.raises(GallocError) as err:
                check()
            assert str(err.value) == message


def test_interesting_needs_room(ring4):
    x = ring_point(ring4, 0, 2, 2)
    wants = PointView(ring4, x).wants
    assert not wants["w1"](ring4.local_pos("w1", "c1"))
    assert wants["f1"](ring4.local_pos("f1", "a1"))
    assert not wants["w1"](ring4.local_pos("w1", "a1"))
    assert check_stability(ring4, x).blocking == ()


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


def test_a_join_choice_that_is_neither_point_is_incomparable():
    # Firm f takes 2 of e1 > e2 > e3; from the join (1, 1, 1) of its
    # restrictions (1, 0, 1) and (0, 1, 1) it keeps (1, 1, 0), neither.
    inst = instance_from_dict(
        {
            "workers": ["w1", "w2", "w3"],
            "firms": ["f"],
            "edges": [
                {"id": f"e{i}", "worker": f"w{i}", "firm": "f", "capacity": 1}
                for i in (1, 2, 3)
            ],
            "worker_quotas": {"w1": 1, "w2": 1, "w3": 1},
            "worker_orders": {"w1": ["e1"], "w2": ["e2"], "w3": ["e3"]},
            "firm_cfs": {"f": {"type": "linear", "order": ["e1", "e2", "e3"], "quota": 2}},
        }
    )
    x, y = inst.assignment((1, 0, 1)), inst.assignment((0, 1, 1))
    assert evaluator_for(inst, "f")((1, 1, 1)) == (1, 1, 0)
    assert compare_F(inst, x, y) == "incomparable"
    assert compare_F(inst, y, x) == "incomparable"


def test_comparison_rejects_unaccepted_restrictions():
    inst = one_on_one()
    doc = inst.to_dict()
    doc["edges"][0]["capacity"] = 2
    wide = instance_from_dict(doc)
    with pytest.raises(GallocError, match="accepted restrictions"):
        compare_F(wide, wide.assignment((2,)), wide.assignment((0,)))


def test_unacceptable_vertices_lists_both_sides():
    inst = two_swaps()
    x = inst.assignment((1, 1, 0, 0))
    assert check_stability(inst, x).unacceptable_vertices == ("w1", "f1")
    assert check_stability(inst, inst.assignment((0, 1, 0, 1))).unacceptable_vertices == ()


def corpus_points():
    """Instances of every family, each with zero, minimum, route and box points.

    Generated markets, then Latin markets at capacity 2 and quota 4 and
    rings, whose route points hold workers at quota with room on edges
    they rank before their last supported one.
    """
    rng = random.Random(7)
    markets = [
        generate(
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
        for s in range(30)
    ]
    markets += [latin(n, 2, 4) for n in (3, 4)] + [make_ring_instance(q) for q in (2, 4)]
    for inst in markets:
        route = build_full_route(inst)
        points = [inst.zero(), route.start]
        for step in route.steps:
            points.append(apply_rotation(inst, points[-1], step.rotation, step.weight))
        for _ in range(5):
            points.append(inst.assignment(rng.randint(0, e.capacity) for e in inst.edges))
        yield inst, points


def rule_interest(inst, x, v, eid):
    """Whether ``v`` would keep one more unit on ``eid``, asked of its rule."""
    cf = evaluator_for(inst, v)
    return interesting_at(cf, inst.local_values(x, v), inst.local_pos(v, eid))


def test_one_pass_check_matches_the_definition():
    # Acceptance and interest are asked of the rules themselves, so the
    # closed-form probes of linear evaluators are checked against them.
    unacceptable_seen = blocking_seen = prefix_seen = 0
    for inst, points in corpus_points():
        for x in points:
            prefix_seen += any(
                inst.size_at(x, w) == inst.quota(w) > 0
                and any(rule_interest(inst, x, w, eid) for eid in inst.edges_of(w))
                for w in inst.workers
            )
            bad = tuple(
                v
                for v in inst.workers + inst.firms
                if evaluator_for(inst, v)(inst.local_values(x, v)) != inst.local_values(x, v)
            )
            want = tuple(
                e.id
                for e in inst.edges
                if rule_interest(inst, x, e.worker, e.id)
                and rule_interest(inst, x, e.firm, e.id)
            )
            report = check_stability(inst, x)
            assert report.unacceptable_vertices == bad
            assert report.blocking == (() if bad else want)
            assert report.stable == (not bad and not want)
            unacceptable_seen += bool(bad)
            blocking_seen += bool(want) and not bad
    assert unacceptable_seen and blocking_seen and prefix_seen


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


def firm_children(inst, x, rng, mixed, limit=1500):
    """Points where every firm keeps an accepted share, drawn firm by
    firm: one it weakly prefers to its share of ``x``, or, when ``mixed``
    and a coin says so, any accepted share."""
    gaining, accepted = [], []
    for f in inst.firms:
        cf = evaluator_for(inst, f)
        xf = inst.local_values(x, f)
        shares = [z for z in iter_box(cf.caps) if cf(z) == z]
        accepted.append(shares)
        gaining.append([z for z in shares if cf(join(xf, z)) == z])
    for _ in range(limit):
        vals = [0] * len(inst.edges)
        for f, gain, shares in zip(inst.firms, gaining, accepted):
            opts = shares if mixed and rng.random() < 0.5 else gain
            for i, v in zip(inst.edge_indices(f), rng.choice(opts)):
                vals[i] = v
        yield inst.assignment(vals)


def test_the_delta_rule_matches_the_full_check_below_a_stable_parent():
    # Below a stable parent the check scans the workers of the losing
    # firms, those whose share is not weakly preferred, and asks of every
    # other dirty worker only its moved edges and the positions it newly
    # wants.  When every firm weakly gains, none is losing; both kinds of
    # blocking edge must occur and be found.  Mixed children have losing
    # and gaining firms side by side.  At every stable child, the route's
    # other points among them, a carried search must find what a full
    # search finds, also where some firm loses.
    rng = random.Random(11)
    seen = Counter()
    for inst in (latin(3, 2, 4), latin(4, 2, 4), make_ring_instance(4)):
        route = build_full_route(inst)
        points = [route.start] + [step.end for step in route.steps]
        for x in points:
            parent = PointView(inst, x)
            assert parent.report.stable
            applicable_rotations(inst, x, parent)
            for mixed in (False, True):
                children = firm_children(inst, x, rng, mixed)
                for y in chain(children, points) if mixed else children:
                    child = PointView(inst, y, parent)
                    report = child.report
                    assert report == check_stability(inst, y)
                    if report.unacceptable_vertices:
                        continue
                    if report.stable:
                        assert applicable_rotations(inst, y, child) == applicable_rotations(inst, y)
                    if mixed:
                        dirty = inst.firms if child.dirty is None else child.dirty
                        gaining = [f for f in inst.firms if f in dirty and f not in child.losing]
                        seen["losing and gaining"] += bool(child.losing and gaining)
                        seen["stable and losing"] += report.stable and bool(child.losing)
                        continue
                    assert not child.losing
                    moved = {inst.edges[i].id for i in child.moved}
                    seen["stable"] += report.stable
                    seen["moved"] += any(e in moved for e in report.blocking)
                    seen["unmoved"] += any(e not in moved for e in report.blocking)
    kinds = ("stable", "moved", "unmoved", "losing and gaining", "stable and losing")
    assert all(seen[k] for k in kinds), seen
