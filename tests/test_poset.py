import gc
import json
import weakref

import networkx as nx
import pytest
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import galloc.lattice
import galloc.poset
from galloc import (
    Assignment,
    CostVector,
    GallocError,
    GaplessnessError,
    GeneratorConfig,
    InvariantViolation,
    LimitError,
    applicable_rotations,
    build_full_route,
    build_poset,
    build_poset_gapless,
    build_poset_general,
    check_stability,
    enumerate_closed_functions,
    enumerate_stable,
    from_closed_function,
    generate,
    instance_from_dict,
    make_ring_instance,
    min_cost_stable,
    route_pairs,
    to_closed_function,
    total_choice_calls,
    xmax_by_capacity_reduction,
    xmin_by_capacity_reduction,
)
from galloc.poset import (
    ClosedFunction,
    _check_reduction,
    closedness_problem,
    linear_extension,
)
from galloc.cli import main
from galloc.stability import PointView
from perfbench.corpus import rings

from builders import (
    acceptance_corpora,
    disjoint_union,
    latin,
    parallel_pair,
    poset_corpus,
    relabelled,
    tableau_market,
    two_swaps,
)

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
    order_graph = nx.DiGraph(poset.hasse)
    assert nx.ancestors(order_graph, 1) == {0, 2, 3}
    assert nx.ancestors(order_graph, 2) == set()
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
    # share one search per point, however many routes pass it.  A point
    # is keyed on the instance searched, the market or one of its parts,
    # as the two parts of two_swaps() reach equal values.
    searched = Counter()
    search = galloc.poset.applicable_rotations

    def counted(inst, x, view=None):
        searched[(inst, inst.edges, x.values)] += 1
        return search(inst, x, view)

    # The builder runs every rotation search of a build.
    monkeypatch.setattr(galloc.poset, "applicable_rotations", counted)
    for inst, general in ((two_swaps(), False), (ring4, True)):
        searched.clear()
        build_poset(inst, general=general)
        assert searched
        assert set(searched.values()) == {1}, searched


@pytest.mark.parametrize(
    "make, general, searches, walked",
    [
        # A 28-step base route, and 210 steps the deferral routes walk
        # past their branch points; 56 distinct steps in all.
        (lambda: latin(16, 2, 4), False, None, 28 + 210),
        # k disjoint rings of quota q: one search of the market at its
        # minimum finds the rings that move, and each ring is built on its
        # own, searching its minimum and the q points its base route
        # reaches.  A ring offers one rotation at each point, so its
        # deferral route is its base route, replayed with no step walked.
        (lambda: instance_from_dict(rings(12, 8).doc), True, 1 + 12 * (1 + 8), 12 * 8),
        # Two parts, one of them with states that offer several rotations:
        # the ring's 4 base steps, Latin 4's 4, and 6 that Latin 4's
        # deferral routes walk; 12 distinct steps in all.
        (
            lambda: disjoint_union(latin(4, 2, 4), make_ring_instance(4)),
            True,
            None,
            4 + 4 + 6,
        ),
    ],
    ids=["latin16cap2", "rings12q8", "latin4cap2+ring4"],
)
def test_builds_shift_and_weigh_each_distinct_step_once(
    monkeypatch, make, general, searches, walked
):
    # A deferral route is walked from where it leaves the base route,
    # behind the base steps before that point; ``walked`` counts the
    # steps the walks take.  They still pass steps that earlier routes
    # took; a replayed step is a memo hit, so each distinct (point, key)
    # step is shifted once and weighed once.  Points are keyed on the
    # instance they belong to, the market or one of its parts.
    inst = make()
    steps, shifted, weighed = Counter(), Counter(), Counter()
    searched = set()
    walk = galloc.poset.walk_route
    apply = galloc.poset.apply_rotation
    weigh = galloc.poset.max_feasible_weight
    search = galloc.poset.applicable_rotations

    def counted_search(inst, x, view=None):
        searched.add((inst, inst.edges, x.values))
        return search(inst, x, view)

    def counting_walk(*args, **kwargs):
        route = walk(*args, **kwargs)
        steps["walked"] += len(route.steps) - len(kwargs.get("taken", ()))
        return route

    def counted_apply(inst, x, rot, weight):
        shifted[(inst, inst.edges, x.values, rot.key)] += 1
        return apply(inst, x, rot, weight)

    def counted_weigh(inst, x, rot, view=None):
        weighed[(inst, inst.edges, x.values, rot.key)] += 1
        return weigh(inst, x, rot, view)

    monkeypatch.setattr(galloc.poset, "walk_route", counting_walk)
    monkeypatch.setattr(galloc.poset, "apply_rotation", counted_apply)
    monkeypatch.setattr(galloc.poset, "max_feasible_weight", counted_weigh)
    monkeypatch.setattr(galloc.poset, "applicable_rotations", counted_search)
    build_poset(inst, general=general)
    assert set(shifted.values()) == {1}
    assert set(weighed.values()) == {1}
    assert set(weighed) == set(shifted)
    assert steps["walked"] == walked
    if searches is not None:
        assert len(searched) == searches


def test_every_search_carries_from_the_view_its_step_left(monkeypatch):
    # The first view built on the market is capacity reduction's, and on
    # a part its minimum's; every later one is built from the view of the
    # point one step below it, so only that step's rotation moved, and
    # going up the lattice no firm loses.
    views, steps = [], {}
    init, apply = PointView.__init__, galloc.poset.apply_rotation

    def recording(self, inst, x, parent=None):
        init(self, inst, x, parent)
        views.append((self, parent))

    def recorded(inst, x, rot, weight):
        y = apply(inst, x, rot, weight)
        steps[(inst, x.values, y.values)] = rot
        return y

    monkeypatch.setattr(PointView, "__init__", recording)
    monkeypatch.setattr(galloc.poset, "apply_rotation", recorded)
    corpus = [latin(16, 2, 4), disjoint_union(latin(4, 2, 4), make_ring_instance(4))]
    carried = 0
    for inst in corpus + poset_corpus():
        for general in (False, True):
            views.clear()
            steps.clear()
            build_outcome(inst, general)
            first = set()
            for view, parent in views:
                if id(view.inst) not in first:
                    first.add(id(view.inst))
                    assert parent is None
                    continue
                assert parent is not None and parent.inst is view.inst
                rot = steps.get((view.inst, parent.x.values, view.x.values))
                assert rot is not None, "not one step below"
                assert view.moved == sorted(view.inst.edge_index[e] for e in rot.key)
                assert view.losing == []
                carried += 1
    assert carried > 0


@pytest.mark.parametrize(
    "make",
    [lambda: latin(16, 2, 4), lambda: instance_from_dict(rings(12, 8).doc)],
    ids=["latin16cap2", "rings12q8"],
)
def test_a_build_searches_the_minimum_from_capacity_reductions_view(monkeypatch, make):
    # Capacity reduction certifies the minimum with a full view, and the
    # first search reads that view: the route, and both poset builds,
    # the market search of a split market included, build no second one.
    inst = make()
    xmin = xmin_by_capacity_reduction(inst).assignment
    full = Counter()
    init = PointView.__init__

    def counting(self, on, x, parent=None):
        init(self, on, x, parent)
        if on is inst and x == xmin and parent is None:
            full["built"] += 1

    monkeypatch.setattr(PointView, "__init__", counting)
    for build in (
        build_full_route,
        lambda inst: build_outcome(inst, False),
        lambda inst: build_outcome(inst, True),
    ):
        full.clear()
        build(inst)
        assert full["built"] == 1


def memo_free_corpus():
    # Latin 4 at quota 4 and Latin 6 at quota 3, both at capacity 2, have
    # deferral routes that leave their base routes part way; the poset
    # corpus, whose totals are checked below, comes last.
    return [*acceptance_corpora(), latin(4, 2, 4), latin(6, 2, 3), *poset_corpus()]


def build_outcome(inst, general):
    try:
        return build_poset(inst, general=general).to_dict()
    except GaplessnessError as exc:
        return str(exc)


def test_memoized_builds_equal_builds_with_memo_free_walks(monkeypatch):
    insts = memo_free_corpus()
    modes = (False, True)
    memoized = [build_outcome(inst, general) for inst in insts for general in modes]
    walk = galloc.poset.walk_route

    def plain(inst, start, *, rotations_at, step_at=None, taken=(), **how):
        # walk_route's own search and step, on the market or the part the
        # build walks, and every deferral route walked in full from the
        # minimum: the base steps a build replays are the ones it takes.
        route = walk(inst, start, **how)
        assert route.steps[: len(taken)] == taken
        return route

    monkeypatch.setattr(galloc.poset, "walk_route", plain)
    insts = memo_free_corpus()  # fresh instances, fresh evaluator memos
    plain_built = [build_outcome(inst, general) for inst in insts for general in modes]
    assert plain_built == memoized
    # The acceptance posets are almost all empty; the poset corpus at the
    # end gives chains, antichains of parts and repeated rotations.
    assert corpus_totals(memoized[-2 * len(poset_corpus()):]) == CORPUS_TOTALS


# Per mode, of the poset corpus: elements, arcs and gapless refusals.
CORPUS_TOTALS = {"gapless": (29, 18, 5), "general": (62, 44, 0)}


def corpus_totals(outcomes):
    """Totals as in CORPUS_TOTALS; the outcomes alternate gapless and general."""
    totals = {}
    for mode, docs in (("gapless", outcomes[0::2]), ("general", outcomes[1::2])):
        built = [d for d in docs if isinstance(d, dict)]
        totals[mode] = (
            sum(len(d["elements"]) for d in built),
            sum(len(d["hasse"]) for d in built),
            len(docs) - len(built),
        )
    return totals


def test_the_poset_corpus_verifies_against_the_oracle(tmp_path, capsys):
    # Each closed function's image against the oracle's stable set, in
    # both modes; a gapless refusal is the base route's, on exit code 1.
    outcomes = []
    for i, inst in enumerate(poset_corpus()):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(inst.to_dict()))
        for flags in ([], ["--general"]):
            rc = main(["poset", str(path), "--verify", "--limit", str(10**15), *flags])
            out, err = capsys.readouterr()
            if rc == 1 and not flags:
                assert out == "" and err.endswith("the instance is not gapless\n")
                outcomes.append(err)
                continue
            assert (rc, err) == (0, "")
            outcomes.append(json.loads(out))
    assert corpus_totals(outcomes) == CORPUS_TOTALS


def component_of(inst):
    """Each edge's connected component of the market, as networkx finds it."""
    g = nx.Graph()
    g.add_nodes_from(inst.workers + inst.firms)
    g.add_edges_from((e.worker, e.firm) for e in inst.edges)
    return {
        e.id: c
        for c, part in enumerate(nx.connected_components(g))
        for e in inst.edges
        if e.worker in part
    }


def merged(a, b):
    """The posets of two disjoint markets as one, in the build's element order.

    Elements are ordered by (key, occurrence) and each side's arcs are
    remapped to the new indices.
    """
    sides = (a.to_dict(), b.to_dict())
    tagged = sorted(
        ((el["cycle"], el["occurrence"]), side, i)
        for side, d in enumerate(sides)
        for i, el in enumerate(d["elements"])
    )
    index = {(side, i): n for n, (_, side, i) in enumerate(tagged)}
    return {
        "mode": a.mode,
        "elements": [sides[side]["elements"][i] for _, side, i in tagged],
        "hasse": sorted(
            [index[side, p], index[side, q]]
            for side, d in enumerate(sides)
            for p, q in d["hasse"]
        ),
    }


def parts_of(inst):
    """Each connected component of the market as an instance of its own.

    Parts come in order of their first edge; each keeps the market's order
    of its vertices and edges.
    """
    doc = inst.to_dict()
    component = component_of(inst)
    parts = []
    for c in dict.fromkeys(component[e.id] for e in inst.edges):
        edges = [e for e in doc["edges"] if component[e["id"]] == c]
        ends = {e["worker"] for e in edges} | {e["firm"] for e in edges}
        parts.append(instance_from_dict({
            "workers": [w for w in doc["workers"] if w in ends],
            "firms": [f for f in doc["firms"] if f in ends],
            "edges": edges,
            **{
                key: {v: doc[key][v] for v in doc[key] if v in ends}
                for key in ("worker_quotas", "worker_orders", "firm_cfs")
            },
        }))
    return parts


def first_refusal(inst):
    """The gapless refusal of the market's first part whose base route
    repeats a rotation, taking parts in order of their first edge."""
    for part in parts_of(inst):
        try:
            build_full_route(part, assume_gapless=True)
        except GaplessnessError as exc:
            return str(exc)
    return None


UNION_PAIRS = {
    "ring2+ring4": (lambda: make_ring_instance(2), lambda: make_ring_instance(4)),
    # Equal parts reach equal values: memo keys must tell them apart.
    "ring4+ring4": (lambda: make_ring_instance(4), lambda: make_ring_instance(4)),
    "ring6+latin4": (lambda: make_ring_instance(6), lambda: latin(4)),
    "latin5+ring8": (lambda: latin(5), lambda: make_ring_instance(8)),
    "tableau+ring2": (tableau_market, lambda: make_ring_instance(2)),
    "latin4+latin5": (lambda: latin(4), lambda: latin(5)),
}


@pytest.mark.parametrize("pair", UNION_PAIRS.values(), ids=UNION_PAIRS.keys())
def test_the_poset_of_a_disjoint_union_merges_the_parts(pair):
    # Stability is local to each vertex's edges, so the stable set of
    # A + B is the product of theirs and its poset the two side by side.
    make_a, make_b = pair
    assert len(set(component_of(make_a()).values())) == 1
    assert len(set(component_of(make_b()).values())) == 1
    union = disjoint_union(make_a(), make_b())
    assert len(set(component_of(union).values())) == 2
    for general in (False, True):
        try:
            parts = [build_poset(relabelled(m(), t), general=general) for m, t in
                     zip(pair, (":A", ":B"))]
        except GaplessnessError:
            with pytest.raises(GaplessnessError) as refused:
                build_poset(union, general=general)
            assert str(refused.value) == first_refusal(union)
            continue
        poset = build_poset(union, general=general)
        assert poset.to_dict() == merged(*parts)
        assert poset.xmin.values == parts[0].xmin.values + parts[1].xmin.values
        assert poset.xmax.values == parts[0].xmax.values + parts[1].xmax.values


@pytest.mark.parametrize("k, seed", [(4, 3), (12, 0)])
def test_plain_builds_refuse_at_the_first_part_that_repeats(k, seed):
    # Relabelled rings put the parts' first edges in another order than
    # their keys, so a route over the whole market repeats another ring's
    # rotation first.
    inst = instance_from_dict(rings(k, 8, seed=seed).doc)
    message = first_refusal(inst)
    with pytest.raises(GaplessnessError) as walked:
        build_full_route(inst, assume_gapless=True)
    assert message is not None and str(walked.value) != message
    for refused in (
        lambda: build_poset(inst),
        lambda: min_cost_stable(inst, CostVector.from_doc(inst, {})),
    ):
        with pytest.raises(GaplessnessError) as got:
            refused()
        assert str(got.value) == message


def test_part_builds_make_no_rule_call_on_the_market():
    # Each part is built on its own instance, with evaluators of its own;
    # the market's evaluators serve its minimum and the one search there.
    calls = []
    for inst in poset_corpus():
        if len(set(component_of(inst).values())) == 1:
            continue
        xmin_by_capacity_reduction(inst)
        before = total_choice_calls(inst)
        for general in (False, True):
            build_outcome(inst, general)
        assert total_choice_calls(inst) == before
        calls.append(before)
    assert calls == [12, 12, 14, 18, 14]


def single_edges(n):
    """n disjoint single edges, each a worker and a firm of quota 1."""
    return instance_from_dict({
        "workers": [f"w{i}" for i in range(n)],
        "firms": [f"f{i}" for i in range(n)],
        "edges": [
            {"id": f"e{i}", "worker": f"w{i}", "firm": f"f{i}", "capacity": 1}
            for i in range(n)
        ],
        "worker_quotas": {f"w{i}": 1 for i in range(n)},
        "worker_orders": {f"w{i}": [f"e{i}"] for i in range(n)},
        "firm_cfs": {
            f"f{i}": {"type": "linear", "order": [f"e{i}"], "quota": 1} for i in range(n)
        },
    })


def test_a_resting_part_gets_no_instance_of_its_own(monkeypatch):
    # A single edge has one stable value, so only the ring moves.
    made = []
    construct = galloc.poset.Instance

    def counted(*args, **kwargs):
        made.append(construct(*args, **kwargs))
        return made[-1]

    ring, singles = make_ring_instance(4), single_edges(300)
    parts = [
        build_poset_general(relabelled(m, t)) for m, t in ((ring, ":A"), (singles, ":B"))
    ]
    union = disjoint_union(ring, singles)
    monkeypatch.setattr(galloc.poset, "Instance", counted)
    poset = build_poset_general(union)
    assert poset.to_dict() == merged(*parts)
    assert [len(part.edges) for part in made] == [9]


def test_min_cost_sums_over_the_parts():
    # The union's capacity box has 2**41 points, beyond the oracle's
    # default limit; its minimum cost is the parts' own, added.
    a, b = relabelled(latin(4), ":A"), relabelled(latin(5), ":B")
    union = disjoint_union(latin(4), latin(5))
    rng = random.Random(3)
    costs = {e.id: rng.randint(-9, 9) for e in union.edges}
    parts = [
        min_cost_stable(p, CostVector.from_doc(p, {e.id: costs[e.id] for e in p.edges}))
        for p in (a, b)
    ]
    res = min_cost_stable(union, CostVector.from_doc(union, costs))
    assert res.cost == parts[0].cost + parts[1].cost
    assert res.assignment.values == parts[0].assignment.values + parts[1].assignment.values


def test_a_component_moves_alone_where_the_rest_is_at_its_maximum():
    # The product property a part-wise build rests on: with one component
    # at its minimum and the rest at their maximum, the point is stable,
    # the rest offers no rotation, and the component walks its own share
    # of a full route.
    checked = 0
    for inst in poset_corpus():
        lo = xmin_by_capacity_reduction(inst).assignment
        hi = xmax_by_capacity_reduction(inst).assignment
        full = route_pairs(build_full_route(inst))
        component = component_of(inst)
        for c in sorted(set(component.values())):
            start = Assignment(tuple(
                a if component[e.id] == c else b
                for a, b, e in zip(lo.values, hi.values, inst.edges)
            ))
            assert check_stability(inst, start).stable
            assert all(component[r.key[0]] == c for r in applicable_rotations(inst, start))
            route = build_full_route(inst, start)
            assert route.end.values == hi.values
            assert route_pairs(route) == Counter(
                {p: n for p, n in full.items() if component[p[0][0]] == c}
            )
            checked += 1
    assert checked == 18


@pytest.mark.parametrize(
    "pair",
    [(tableau_market, lambda: make_ring_instance(2)),
     (lambda: make_ring_instance(2), lambda: make_ring_instance(2))],
    ids=["tableau+ring2", "ring2+ring2"],
)
def test_union_posets_verify_against_the_oracle(pair, tmp_path, capsys):
    path = tmp_path / "union.json"
    path.write_text(json.dumps(disjoint_union(pair[0](), pair[1]()).to_dict()))
    assert main(["poset", str(path), "--general", "--verify"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert len(json.loads(out)["elements"]) == 4


def reference_reduction_problem(edges, n):
    """The reduction check as networkx reads it, or None."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    if not nx.is_directed_acyclic_graph(g):
        return "the rotation poset contains a directed cycle"
    reduced = set(nx.transitive_reduction(g).edges)
    if reduced != edges:
        return (
            "successor sets are not the immediate-precedence arcs: "
            f"transitive reduction drops {sorted(edges - reduced)}"
        )
    return None


def test_the_reduction_check_reads_as_networkx_does():
    rng = random.Random(5)
    outcomes = Counter()
    for _ in range(400):
        n = rng.randrange(1, 9)
        p = rng.choice((0.15, 0.3, 0.5))
        forward = rng.random() < 0.8  # mostly acyclic, some cyclic
        edges = {
            (a, b)
            for a in range(n)
            for b in range(n)
            if (a < b or not forward) and a != b and rng.random() < p
        }
        if rng.random() < 0.05 and n:
            edges.add((0, 0))
        want = reference_reduction_problem(edges, n)
        try:
            _check_reduction(edges, n)
            got = None
        except InvariantViolation as exc:
            got = str(exc)
        assert got == want, (n, sorted(edges))
        outcomes[None if want is None else want[:10]] += 1
    assert len(outcomes) == 3, outcomes


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
    assert closedness_problem(poset, (0, 0, 0, 0)) is None
    assert closedness_problem(poset, (0, 0, 1, 0)) is None
    assert "predecessor" in closedness_problem(poset, (1, 0, 0, 0))
    assert closedness_problem(poset, (0, 0)) == "wrong number of entries"
    assert "outside" in closedness_problem(poset, (0, 0, 9, 0))


def test_enumeration_refuses_huge_posets():
    poset = build_poset(parallel_pair(7))
    with pytest.raises(LimitError, match="over the limit"):
        enumerate_closed_functions(poset, limit=4)


def test_enumeration_is_bounded_by_the_closed_functions_it_lists():
    # The limit counts closed functions, not the box of their entries:
    # parallel_pair(7) has 8, and a chain of 2,000 unit elements has
    # 2,001 among 2**2000 candidates; the walk does not recurse per element.
    poset = build_poset(parallel_pair(7))
    assert len(enumerate_closed_functions(poset, limit=8)) == 8
    with pytest.raises(LimitError, match="over the limit"):
        enumerate_closed_functions(poset, limit=7)
    n = 2000
    chain = galloc.poset.RotationPoset(
        tuple(galloc.poset.PosetElement(("e",), i, 1) for i in range(n)),
        tuple((i + 1, i) for i in range(n - 1)),
        "general",
        poset.xmin,
        poset.xmax,
    )
    closed = enumerate_closed_functions(chain, limit=n + 1)
    assert len(closed) == n + 1
    assert closed[:2] == ((0,) * n, (0,) * (n - 1) + (1,)) and closed[-1] == (1,) * n
    with pytest.raises(LimitError, match="over the limit"):
        enumerate_closed_functions(chain, limit=100)
    for inst in poset_corpus():
        poset = build_poset_general(inst)
        boxes = product(*(range(el.weight + 1) for el in poset.elements))
        assert enumerate_closed_functions(poset) == tuple(
            v for v in boxes if closedness_problem(poset, v) is None
        )


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
        assert closedness_problem(poset, xi.values) is None
        assert from_closed_function(ring4, poset, xi).values == x.values
    points = {
        from_closed_function(ring4, poset, ClosedFunction(v)).values
        for v in enumerate_closed_functions(poset)
    }
    assert points == {x.values for x in chain}


@pytest.mark.parametrize(
    "inst",
    [make_ring_instance(2), make_ring_instance(6), two_swaps(3, 5), parallel_pair(5)],
    ids=["ring2", "ring6", "two_swaps_3_5", "parallel_pair_5"],
)
def test_closed_functions_round_trip(inst):
    poset = build_poset_general(inst)
    lat = enumerate_stable(inst)
    for x in lat.elements:
        xi = to_closed_function(inst, poset, x)
        assert closedness_problem(poset, xi.values) is None
        assert from_closed_function(inst, poset, xi).values == x.values
    points = {
        from_closed_function(inst, poset, ClosedFunction(v)).values
        for v in enumerate_closed_functions(poset)
    }
    assert points == {x.values for x in lat.elements}


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


def cheapest_on_latin4(inst):
    return min_cost_stable(inst, CostVector.from_doc(inst, {"e0_1": -1}))


@pytest.mark.parametrize(
    "make, use",
    [
        (lambda: make_ring_instance(4), lambda inst: build_poset(inst, general=True)),
        (
            lambda: disjoint_union(make_ring_instance(2), make_ring_instance(4)),
            lambda inst: build_poset(inst, general=True),
        ),
        (lambda: latin(4), cheapest_on_latin4),
        (lambda: build_poset(two_swaps(1, 3)), enumerate_closed_functions),
    ],
    ids=["general-build", "general-build-union", "min-cost", "closed-functions"],
)
def test_no_reference_cycle_outlives_the_call(make, use):
    # With the collector off, an object left in a reference cycle stays
    # alive after its last outside reference is dropped.
    enabled = gc.isenabled()
    gc.disable()
    try:
        obj = make()
        ref = weakref.ref(obj)
        use(obj)
        del obj
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
