import dataclasses
import functools
import itertools
import random
import tracemalloc

import pytest

from galloc import (
    GeneratorConfig,
    LimitError,
    enumerate_stable,
    generate,
    instance_from_dict,
    make_ring_instance,
    verify_lattice_properties,
)
from galloc import oracle
from galloc.choice import box_size, evaluator_for, interesting_at, iter_box
from galloc.oracle import EnumeratedLattice

from builders import disjoint_union, latin, one_on_one, parallel_pair, two_swaps

RING_CHAIN = ((0, 2, 2), (1, 2, 1), (2, 1, 1), (3, 1, 0), (4, 0, 0))


def test_single_edge_lattice():
    inst = one_on_one()
    lat = enumerate_stable(inst)
    assert len(lat) == 1
    assert lat.elements[0].values == (1,)
    assert lat.min_element.values == (1,)
    assert lat.max_element.values == (1,)
    assert lat.order == (("equal",),)


def test_empty_market_has_the_one_empty_assignment():
    # No workers and no firms: every partial row has zero columns.
    inst = instance_from_dict(
        {"workers": [], "firms": [], "edges": [], "worker_quotas": {},
         "worker_orders": {}, "firm_cfs": {}}
    )
    lat = enumerate_stable(inst)
    assert [x.values for x in lat.elements] == [()]
    assert lat.min_element.values == lat.max_element.values == ()
    assert verify_lattice_properties(lat).ok


def test_ring_lattice_is_the_frozen_chain(ring4):
    lat = enumerate_stable(ring4)
    assert len(lat) == 5
    assert [x.values for x in lat.elements] == [(a, c, d) * 3 for a, c, d in RING_CHAIN]
    assert lat.min_element.values == (0, 2, 2) * 3
    assert lat.max_element.values == (4, 0, 0) * 3
    for i in range(5):
        for j in range(5):
            want = "equal" if i == j else ("less" if i < j else "greater")
            assert lat.order[i][j] == want


def test_join_and_meet_of_disjoint_swaps():
    inst = two_swaps()
    lat = enumerate_stable(inst)
    assert len(lat) == 4
    i = lat.elements.index(inst.assignment((1, 0, 0, 1)))
    j = lat.elements.index(inst.assignment((0, 1, 1, 0)))
    assert lat.order[i][j] == "incomparable"
    assert lat.elements[lat.join_index(i, j)].values == (1, 0, 1, 0)
    assert lat.elements[lat.meet_index(i, j)].values == (0, 1, 0, 1)


def test_lattice_properties_hold(ring4):
    for inst in (ring4, two_swaps(), two_swaps(2, 3)):
        report = verify_lattice_properties(enumerate_stable(inst))
        assert report.ok, report.problems


def test_lattice_check_reports_hand_broken_lattices(ring4):
    swaps = enumerate_stable(two_swaps())
    keep = [i for i, x in enumerate(swaps.elements) if x != swaps.max_element]
    topless = dataclasses.replace(
        swaps,
        elements=tuple(swaps.elements[i] for i in keep),
        order=tuple(tuple(swaps.order[i][j] for j in keep) for i in keep),
    )
    ring = enumerate_stable(ring4)
    flip = {"less": "greater", "greater": "less"}
    reversed_ring = dataclasses.replace(
        ring,
        order=tuple(tuple(flip.get(r, r) for r in row) for row in ring.order),
        min_element=ring.max_element,
        max_element=ring.min_element,
    )
    # The pentagon on the ring's points: 0 < 1 < 2 < 4 and 0 < 3 < 4.
    below = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}

    def rel(i, j):
        if i == j:
            return "equal"
        if (i, j) in below:
            return "less"
        return "greater" if (j, i) in below else "incomparable"

    pentagon = dataclasses.replace(
        ring, order=tuple(tuple(rel(i, j) for j in range(5)) for i in range(5))
    )
    # w1 holds one unit of its quota 2, on a different edge at each element.
    short = parallel_pair(1, worker_quota=2)
    x, y = short.assignment((1, 0)), short.assignment((0, 1))
    wandering = EnumeratedLattice(short, (x, y), (("equal", "less"), ("greater", "equal")), x, y)
    for lat, problem in (
        (topless, "elements 1 and 2 lack a join or meet"),
        (reversed_ring,
         "polarity fails between elements 0 and 1: firm order greater, worker order greater"),
        (dataclasses.replace(ring, elements=(ring4.zero(),) + ring.elements[1:]),
         "vertex w1 changes size across elements: [0, 4]"),
        (pentagon, "meet does not distribute over join on (2, 1, 3)"),
        (wandering, "deficient vertex w1 changes its restriction across elements"),
    ):
        report = verify_lattice_properties(lat)
        assert not report.ok
        assert problem in report.problems


def test_enumeration_refuses_oversized_boxes(ring4):
    with pytest.raises(LimitError, match="over the limit"):
        enumerate_stable(ring4, limit=1000)


def test_elements_come_back_sorted(ring4):
    lat = enumerate_stable(ring4)
    assert list(lat.elements) == sorted(lat.elements, key=lambda x: x.values)


def reference_stable(inst):
    """Stable points by definition, over a plain product of the raw box.

    A point is stable when every vertex accepts its local vector and no
    edge is interesting to both of its ends.
    """
    rules = {v: evaluator_for(inst, v) for v in (*inst.workers, *inst.firms)}

    @functools.cache
    def accepts(v, z):
        return rules[v](z) == z

    @functools.cache
    def wants(v, z, eid):
        return interesting_at(rules[v], z, inst.local_pos(v, eid))

    found = []
    for values in itertools.product(*(range(e.capacity + 1) for e in inst.edges)):
        x = inst.assignment(values)
        z = {v: inst.local_values(x, v) for v in rules}
        if all(accepts(v, z[v]) for v in rules) and not any(
            wants(e.worker, z[e.worker], e.id) and wants(e.firm, z[e.firm], e.id)
            for e in inst.edges
        ):
            found.append(values)
    return found


def generated(i):
    return generate(
        GeneratorConfig(
            seed=i,
            workers=2 + i % 2,
            firms=2 + (i // 2) % 2,
            capacity_bound=2 + (i // 4) % 2,
            family=("linear", "tableau", "mixed")[i % 3],
        )
    )


def with_lonely_vertices():
    """Two swaps plus one worker and one firm that have no edges."""
    doc = two_swaps().to_dict()
    doc["workers"].append("w0")
    doc["worker_quotas"]["w0"] = 1
    doc["worker_orders"]["w0"] = []
    doc["firms"].append("f0")
    doc["firm_cfs"]["f0"] = {"type": "linear", "order": [], "quota": 1}
    return instance_from_dict(doc)


HAND_BUILT = {
    "ring q=2": lambda: make_ring_instance(2),
    "two swaps": two_swaps,
    "two swaps 2, 3": lambda: two_swaps(2, 3),
    "lonely vertices": with_lonely_vertices,
    # The join reaches the second part by a vertex that shares no edge.
    "union": lambda: disjoint_union(make_ring_instance(2), two_swaps()),
}


def elements(inst):
    return [x.values for x in enumerate_stable(inst).elements]


def reordered(inst, order):
    """The same market with its workers, firms and edges listed by ``order``."""
    doc = inst.to_dict()
    for key in ("workers", "firms", "edges"):
        doc[key] = order(doc[key])
    return instance_from_dict(doc)


def assert_every_order_and_split_matches_the_plain_box(inst, monkeypatch):
    # The lists as given, reversed and shuffled change the join order
    # (some start on a firm); five pairs per expansion split the rows
    # and, where a key holds more than five cells, a vertex's cells.
    shuffle = random.Random(0)
    for variant in (
        inst,
        reordered(inst, lambda items: items[::-1]),
        reordered(inst, lambda items: shuffle.sample(items, len(items))),
    ):
        want = reference_stable(variant)
        assert elements(variant) == want
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_CHUNK", 5)
            assert elements(variant) == want


@pytest.mark.parametrize("i", range(60))
def test_sweep_matches_the_plain_box_on_generated_instances(i, monkeypatch):
    assert_every_order_and_split_matches_the_plain_box(generated(i), monkeypatch)


@pytest.mark.parametrize("name", HAND_BUILT)
def test_sweep_matches_the_plain_box_on_hand_built_instances(name, monkeypatch):
    assert_every_order_and_split_matches_the_plain_box(HAND_BUILT[name](), monkeypatch)


def test_sweep_asks_the_rule_once_per_cell(ring4):
    inst = generated(7)
    for cold in (inst, ring4):
        enumerate_stable(cold)
        for v in cold.workers + cold.firms:
            cf = evaluator_for(cold, v)
            assert cf.call_count == box_size(cf.caps), v


def wide_firm():
    """A firm with 70 incident edges, three of them of capacity 1.

    Those sit at its positions 0, 40 and 66, so an interest bit per
    position would not fit in 64 bits.  Worker w1 prefers f and w2
    prefers f2, while f prefers w2 and f2 prefers w1: two stable points.
    """
    live = ("e0", "e40", "e66")
    edges = [
        {"id": f"e{i}", "worker": "w1" if i < 35 else "w2", "firm": "f",
         "capacity": int(f"e{i}" in live)}
        for i in range(70)
    ]
    edges += [
        {"id": "g", "worker": "w1", "firm": "f2", "capacity": 1},
        {"id": "h", "worker": "w2", "firm": "f2", "capacity": 1},
    ]
    dead = [e["id"] for e in edges if e["capacity"] == 0]
    return instance_from_dict(
        {
            "workers": ["w1", "w2"],
            "firms": ["f", "f2"],
            "edges": edges,
            "worker_quotas": {"w1": 1, "w2": 1},
            "worker_orders": {
                "w1": ["e0", "g"] + dead[:34],
                "w2": ["h", "e66", "e40"] + dead[34:],
            },
            "firm_cfs": {
                "f": {"type": "linear", "order": ["e66", "e40", "e0"] + dead, "quota": 1},
                "f2": {"type": "linear", "order": ["g", "h"], "quota": 1},
            },
        }
    )


def complete_markets():
    """Complete 3 x 3 markets: no firm is complete before the last worker."""
    yield latin(3)
    for seed in range(3):
        yield generate(
            GeneratorConfig(
                seed=seed, workers=3, firms=3, density=1.0, capacity_bound=2,
                family=("tableau", "mixed", "linear")[seed],
            )
        )


def test_a_firm_with_many_edges_matches_the_plain_box():
    inst = wide_firm()
    assert len(inst.edges_of("f")) == 70
    found = elements(inst)
    assert found == reference_stable(inst)
    assert len(found) > 1


def test_complete_markets_match_the_plain_box():
    for inst in complete_markets():
        last = inst.workers[-1]
        assert all(
            any(inst.edge(eid).worker == last for eid in inst.edges_of(f)) for f in inst.firms
        )
        assert elements(inst) == reference_stable(inst)


def test_a_hand_built_worker_accepts_more_than_five_vectors():
    # So that the split test below also splits a worker's own rows.
    inst = HAND_BUILT["two swaps 2, 3"]()
    cf = evaluator_for(inst, "w2")
    assert sum(cf.accepts(z) for z in iter_box(cf.caps)) > 5


@pytest.mark.parametrize("name", HAND_BUILT)
def test_split_expansions_give_the_same_lattice(name, monkeypatch):
    # Five rows per expansion splits both the partial rows and, where a
    # worker accepts more than five vectors, the worker's own rows.
    inst = HAND_BUILT[name]()
    want = enumerate_stable(inst)
    monkeypatch.setattr(oracle, "_CHUNK", 5)
    assert enumerate_stable(inst) == want


def test_sweep_memory_stays_within_the_row_bound():
    # One expansion tests at most _CHUNK (row, cell) pairs and holds
    # only the rows that survive them, each a tuple of the placed edges'
    # values (at most 9 here) and an int mask.  The depth-first join
    # keeps one such batch per placed vertex, six here.  Placed by
    # shared edges, the ring's six vertices test 21,807 pairs in all,
    # 9,760 at the widest step, and keep at most 1,660 partial rows.
    # Measured peak: 0.3 MB.
    inst = make_ring_instance(8)
    tracemalloc.start()
    try:
        lat = enumerate_stable(inst, limit=2 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lat) == 9
    assert peak < 48 * 10**6


def test_a_small_row_bound_splits_the_join_into_bounded_batches(monkeypatch):
    # On the q=8 ring the widest join step tests 9,760 (row, cell) pairs.
    # Under a bound of 1,000 some step must yield several batches, no
    # batch may hold more rows than the bound, and no step may test more
    # pairs than its batches, each within the bound, account for.
    inst = make_ring_instance(8)
    want = enumerate_stable(inst, limit=2 * 10**7)
    expand, steps = oracle._expand, []

    def recording(rows, key, index):
        tested = sum(len(part) for values, _ in rows for part in index.get(key(values), ()))
        batches = list(expand(rows, key, index))
        steps.append((tested, [len(batch) for batch in batches]))
        return iter(batches)

    monkeypatch.setattr(oracle, "_CHUNK", 1000)
    monkeypatch.setattr(oracle, "_expand", recording)
    assert enumerate_stable(inst, limit=2 * 10**7) == want
    assert all(size <= 1000 for _, sizes in steps for size in sizes)
    assert all(tested <= 1000 * len(sizes) for tested, sizes in steps)
    assert any(len(sizes) > 1 for _, sizes in steps)
