import copy
import itertools
import json
import pickle
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galloc import (
    Assignment,
    CostVector,
    GallocError,
    ValidationError,
    fraction_str,
    instance_from_dict,
    load_instance,
    make_ring_instance,
    solution_doc,
)
from galloc.choice import a3_filling, evaluator_for, iter_box
from galloc.genrand import GeneratorConfig, generate
from galloc.model import Edge, _as_fraction, assignment_from_doc, shift
from perfbench.corpus import random_complete, rings

from builders import latin, one_on_one, parallel_pair, two_swaps


def test_instance_roundtrip(tmp_path):
    inst = make_ring_instance(4)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_dict()))
    back = load_instance(path)
    assert back.to_dict() == inst.to_dict()
    assert [e.id for e in back.edges] == [e.id for e in inst.edges]


def scramble(doc):
    """Edit every firm's order, columns and filling, and nested meta, in place."""
    for spec in doc["firm_cfs"].values():
        for key in ("order", "columns", "filling"):
            if key in spec:
                spec[key].reverse()
        for col in spec.get("filling", ()):
            col.reverse()
    doc["meta"]["config"]["seed"] = -1


def firm_answers(inst):
    return {
        f: [evaluator_for(inst, f)(z) for z in iter_box(inst.caps_of(f))]
        for f in inst.firms
    }


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_ring_instance(4),
        lambda: generate(GeneratorConfig(0, quota_bound=2, family="mixed")),
    ],
    ids=["ring-a3", "mixed-linear-tableau"],
)
def test_instances_share_nothing_with_their_documents(make):
    doc = make().to_dict()
    doc["meta"].setdefault("config", {"seed": 0})
    want_doc = copy.deepcopy(doc)
    want = firm_answers(instance_from_dict(copy.deepcopy(doc)))
    inst = instance_from_dict(doc)
    scramble(doc)  # the input document
    other = instance_from_dict(copy.deepcopy(want_doc))
    scramble(other.to_dict())  # a document the instance gave out
    for got in (inst, other):
        assert got.to_dict() == want_doc
        assert firm_answers(got) == want


def test_unknown_keys_rejected():
    doc = make_ring_instance(2).to_dict()
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="unknown instance keys"):
        instance_from_dict(doc)
    doc = make_ring_instance(2).to_dict()
    doc["edges"][0]["color"] = "red"
    with pytest.raises(ValidationError, match="unknown keys"):
        instance_from_dict(doc)


def test_validation_collects_all_problems():
    doc = {
        "workers": ["w1", "w1"],
        "firms": ["f1"],
        "edges": [
            {"id": "e1", "worker": "w1", "firm": "f1", "capacity": 1},
            {"id": "e1", "worker": "w9", "firm": "f1", "capacity": -2},
        ],
        "worker_quotas": {"w1": -1},
        "worker_orders": {"w1": []},
        "firm_cfs": {"f1": {"type": "linear", "order": ["e1"], "quota": 1}},
    }
    with pytest.raises(ValidationError) as err:
        instance_from_dict(doc)
    text = str(err.value)
    assert "duplicate worker id" in text
    assert "duplicate edge id" in text
    assert "unknown worker" in text
    assert "negative capacity" in text
    assert "negative quota" in text
    assert "incomplete order for worker" in text


def test_order_must_cover_incident_edges():
    inst = parallel_pair(1)
    doc = inst.to_dict()
    doc["worker_orders"]["w1"] = ["e2"]
    with pytest.raises(ValidationError, match="incomplete order"):
        instance_from_dict(doc)


def test_an_order_may_not_list_another_vertex_edge():
    # Each order below lists as many distinct edges as the vertex has, one
    # of them another worker's or firm's.
    doc = two_swaps().to_dict()
    doc["worker_orders"]["w1"] = ["a2", "b1"]
    with pytest.raises(ValidationError) as err:
        instance_from_dict(doc)
    assert str(err.value) == (
        "order for worker 'w1' lists non-incident edge 'b1'; "
        "incomplete order for worker 'w1': missing ['a1']"
    )
    doc = two_swaps().to_dict()
    doc["firm_cfs"]["f1"]["order"] = ["a1", "b2"]
    with pytest.raises(ValidationError) as err:
        instance_from_dict(doc)
    assert str(err.value) == "firm 'f1': 'order' is not a permutation of its incident edges"


def test_assignment_doc_forms():
    inst = one_on_one()
    assert assignment_from_doc(inst, {"e1": 1}).values == (1,)
    assert assignment_from_doc(inst, {"assignment": {"e1": 1}}).values == (1,)
    assert assignment_from_doc(inst, {}).values == (0,)
    with pytest.raises(ValidationError, match="unknown edge"):
        assignment_from_doc(inst, {"nope": 1})
    with pytest.raises(ValidationError, match="outside"):
        assignment_from_doc(inst, {"e1": 2})
    doc = solution_doc(inst, Assignment((1,)))
    assert doc == {"assignment": {"e1": 1}, "stable": True}
    assert assignment_from_doc(inst, doc).values == (1,)


def test_shift_checks_the_box():
    inst = parallel_pair(2)
    x = inst.assignment((1, 1))
    assert shift(inst, x, ["e1"], ["e2"], 1).values == (2, 0)
    with pytest.raises(GallocError, match="exceeds capacity"):
        shift(inst, x, ["e1"], [], 2)
    with pytest.raises(GallocError, match="negative"):
        shift(inst, x, [], ["e2"], 2)
    with pytest.raises(GallocError, match="shift weight must be nonnegative"):
        shift(inst, x, ["e1"], ["e2"], -1)
    with pytest.raises(GallocError, match="assignment has 3 values for 2 edges"):
        inst.assignment((1, 2, 3))


def test_restrict_uses_canonical_local_order(ring4):
    x = ring4.assignment((1, 2, 0, 1, 2, 0, 1, 2, 0))
    assert ring4.edges_of("f1") == ("a1", "d2", "c3")
    assert ring4.local_values(x, "f1") == (1, 0, 2)
    assert ring4.size_at(x, "f1") == 3


def test_assignments_hash_as_their_values():
    values = (2, 0, 1)
    x, y = Assignment(values), Assignment((2, 0, 1))
    assert x is not y and x == y
    assert hash(x) == hash(y) == hash(values)
    assert {x: "found"}[y] == "found"
    for z in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert z == x and hash(z) == hash(x)


def test_cost_vector_parsing_and_exactness():
    inst = parallel_pair(1)
    cv = CostVector.from_doc(inst, {"e1": 1, "e2": 0.1})
    assert (cv.ints, cv.scale) == ((10, 1), 10)
    cv = CostVector.from_doc(inst, {"e1": "2/3"})
    assert (cv.ints, cv.scale) == ((2, 0), 3)
    with pytest.raises(ValidationError, match="unknown edge"):
        CostVector.from_doc(inst, {"zz": 1})
    for bad in (True, "abc", "1/0"):
        with pytest.raises(ValidationError, match="not a number"):
            CostVector.from_doc(inst, {"e1": bad})
    cv = CostVector.from_doc(inst, {"e1": 0.5, "e2": "1/3"})
    assert (cv.ints, cv.scale) == ((3, 2), 6)
    cv = CostVector.from_doc(inst, {"e1": 4, "e2": "-6/3"})
    assert (cv.ints, cv.scale) == ((4, -2), 1)


def test_fraction_str_exact_forms():
    assert fraction_str(Fraction(3)) == "3"
    assert fraction_str(Fraction(-3, 2)) == "-1.5"
    assert fraction_str(Fraction(1, 8)) == "0.125"
    assert fraction_str(Fraction(7, 20)) == "0.35"
    assert fraction_str(Fraction(1, 3)) == "1/3"


def test_cost_of_is_a_dot_product():
    inst = parallel_pair(2)
    cv = CostVector.from_doc(inst, {"e1": "1/2", "e2": -1})
    assert cv.cost_of(inst.assignment((2, 1))) == Fraction(0)
    assert cv.cost_of(inst.assignment((1, 2))) == Fraction(-3, 2)


def reference_costs(inst, doc):
    """The costs read with plain Fractions: (ints, scale, costs), or the refusal."""
    vals = [Fraction(0)] * len(inst.edges)
    scale = 1
    try:
        for eid, v in doc.items():
            if eid not in inst.edge_index:
                raise ValidationError(f"cost references unknown edge {eid!r}")
            c = vals[inst.edge_index[eid]] = _as_fraction(v, f"edge {eid!r}")
            scale = lcm(scale, c.denominator)
            if scale >= 10**1000:
                break
        if scale >= 10**1000 or any(abs(c * scale) >= 10**1000 for c in vals):
            raise ValidationError("costs need over 1000 digits over a common denominator")
        if sum(abs(c * scale) * e.capacity for c, e in zip(vals, inst.edges)) >= 10**1900:
            raise ValidationError(
                "costs times capacities reach over 1900 digits over a common denominator"
            )
    except ValidationError as exc:
        return str(exc)
    return tuple(int(c * scale) for c in vals), scale, vals


def cost_values():
    """Cost entries of every kind a document may hold, refusals included."""
    prime_powers = st.tuples(st.sampled_from([2, 3, 7, 11, 13]), st.integers(0, 1300))
    return st.one_of(
        st.integers(-(10**6), 10**6),
        st.sampled_from([10**999, -(10**999), -(10**1000), 10**1000 - 1]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.decimals(allow_nan=False, allow_infinity=False).map(str),
        st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-1100, 1100)),
        st.builds("{}/{}".format, st.integers(-1000, 1000), st.integers(0, 10**6)),
        prime_powers.map(lambda pk: f"1/{pk[0] ** pk[1]}"),
        st.sampled_from([True, None, "abc", "1/0", "1e", [1]]),
    )


@settings(max_examples=300, deadline=None)
@given(
    doc=st.dictionaries(st.sampled_from(["a1", "a2", "b1", "b2"] * 4 + ["zz"]), cost_values()),
    x=st.tuples(*[st.integers(-5, 5)] * 4),
)
@example(doc={"b1": "1e999"}, x=(0, 0, 0, 0))
@example(doc={"a1": "1/2", "b2": -(10**999)}, x=(0, 0, 0, 0))
@example(doc={"a1": f"1/{3**700}", "a2": f"1/{7**700}"}, x=(0, 0, 0, 0))
def test_costs_match_a_plain_fraction_reference(doc, x):
    # b1 and b2 have capacity 10**950, so a cost of 10**950 over the common
    # denominator already reaches over 1,900 digits.
    inst = two_swaps(3, 10**950)
    expected = reference_costs(inst, doc)
    try:
        cv = CostVector.from_doc(inst, doc)
    except ValidationError as exc:
        assert str(exc) == expected
        return
    assert isinstance(expected, tuple), expected
    ints, scale, costs = expected
    assert (cv.ints, cv.scale) == (ints, scale)
    assert cv.cost_of(Assignment(x)) == sum(c * v for c, v in zip(costs, x))


def test_assignment_reads_check_every_value():
    inst = parallel_pair(2)  # edges e1, e2 of capacity 2
    assert assignment_from_doc(inst, {"e2": 2, "e1": 0}).values == (0, 2)
    assert assignment_from_doc(inst, {"assignment": {"e2": 1}}).values == (0, 1)

    class Count(int):
        pass

    assert assignment_from_doc(inst, {"e1": Count(1)}).values == (1, 0)
    # The first bad item in the document's order names the problem.
    for doc, message in (
        ({"e1": True}, "assignment value for edge 'e1' is not an integer"),
        ({"e1": 1, "e2": False}, "assignment value for edge 'e2' is not an integer"),
        ({"e1": 1.0}, "assignment value for edge 'e1' is not an integer"),
        ({"e1": "1"}, "assignment value for edge 'e1' is not an integer"),
        ({"e2": -1}, "assignment value -1 for edge 'e2' is outside [0, 2]"),
        ({"e1": 3}, "assignment value 3 for edge 'e1' is outside [0, 2]"),
        ({"e1": 1, "e3": 1}, "assignment references unknown edge 'e3'"),
        ({"e1": -1, "e3": 1}, "assignment value -1 for edge 'e1' is outside [0, 2]"),
        ({"e3": -1, "e1": -1}, "assignment references unknown edge 'e3'"),
        ({"e2": True, "e1": 5}, "assignment value for edge 'e2' is not an integer"),
        ({"assignment": [1]}, "assignment must be an object of edge values"),
    ):
        with pytest.raises(ValidationError) as err:
            assignment_from_doc(inst, doc)
        assert str(err.value) == message, doc
    with pytest.raises(ValidationError, match="assignment document must be a JSON object"):
        assignment_from_doc(inst, [1])


def test_a_bare_assignment_may_name_an_edge_assignment():
    doc = parallel_pair(3).to_dict()
    doc["edges"][0]["id"] = doc["worker_orders"]["w1"][1] = "assignment"
    doc["firm_cfs"]["f1"]["order"][0] = "assignment"
    inst = instance_from_dict(doc)
    assert inst.edges_of("w1") == ("assignment", "e2")
    assert assignment_from_doc(inst, {"assignment": 3, "e2": 1}).values == (3, 1)
    assert assignment_from_doc(inst, {"assignment": 0}).values == (0, 0)
    assert assignment_from_doc(inst, {"assignment": {"assignment": 2}}).values == (2, 0)
    with pytest.raises(ValidationError, match=r"value 4 for edge 'assignment' is outside \[0, 3\]"):
        assignment_from_doc(inst, {"assignment": 4})
    with pytest.raises(ValidationError, match="value for edge 'assignment' is not an integer"):
        assignment_from_doc(inst, {"assignment": True})


def numbered(doc):
    """The document with every id renamed to a decimal number, given as a
    JSON int in every other place where an int may stand: the worker and
    firm lists and the edge records."""
    names = {}
    for v in doc["workers"] + doc["firms"] + [e["id"] for e in doc["edges"]]:
        names.setdefault(v, str(100 + len(names)))
    flip = itertools.cycle((False, True))

    def name(v):
        return int(names[v]) if next(flip) else names[v]

    cfs = {}
    for f, spec in doc["firm_cfs"].items():
        spec = dict(spec)
        for key in ("order", "columns"):
            if key in spec:
                spec[key] = [names[e] for e in spec[key]]
        cfs[names[f]] = spec
    return {
        "workers": [name(w) for w in doc["workers"]],
        "firms": [name(f) for f in doc["firms"]],
        "edges": [
            {"id": name(e["id"]), "worker": name(e["worker"]), "firm": name(e["firm"]),
             "capacity": e["capacity"]}
            for e in doc["edges"]
        ],
        "worker_quotas": {names[w]: q for w, q in doc["worker_quotas"].items()},
        "worker_orders": {
            names[w]: [names[e] for e in order] for w, order in doc["worker_orders"].items()
        },
        "firm_cfs": cfs,
    }


def table_markets():
    docs = [
        generate(GeneratorConfig(seed, workers=3 + seed % 2, firms=3, density=0.8,
                                 capacity_bound=3, quota_bound=4, family=family)).to_dict()
        for seed in range(6)
        for family in ("linear", "tableau", "mixed")
    ]
    docs += [make_ring_instance(q).to_dict() for q in (2, 4)]
    docs += [rings(2, 4, seed=1).doc, random_complete(6, seed=2).doc]
    docs += [latin(4).to_dict(), latin(3, 2, 4).to_dict()]
    return docs + [numbered(doc) for doc in docs]


def reference_tables(doc):
    """Every table the load builds, one edge at a time, from the document."""
    edges = [Edge(str(e["id"]), str(e["worker"]), str(e["firm"]), e["capacity"])
             for e in doc["edges"]]
    vertices = [str(v) for v in doc["workers"] + doc["firms"]]
    indices = {v: [i for i, e in enumerate(edges) if v in (e.worker, e.firm)] for v in vertices}
    ids = {v: [edges[i].id for i in indices[v]] for v in vertices}
    rules = {}
    for w, order in doc["worker_orders"].items():
        rules[w] = ([ids[w].index(eid) for eid in order], doc["worker_quotas"][w], None)
    for f, spec in doc["firm_cfs"].items():
        if spec["type"] == "linear":
            rules[f] = ([ids[f].index(eid) for eid in spec["order"]], spec["quota"], None)
            continue
        cols = spec.get("columns", ids[f])
        fill = spec["filling"] if spec["type"] == "tableau" else a3_filling(spec["quota"])
        by_pos = [None] * len(cols)
        for eid, col in zip(cols, fill):
            by_pos[ids[f].index(eid)] = tuple(col)
        rules[f] = (None, spec["quota"], tuple(by_pos))
    return {
        "edges": tuple(edges),
        "edge_index": {e.id: i for i, e in enumerate(edges)},
        "edge_indices": {v: tuple(indices[v]) for v in vertices},
        "edges_of": {v: tuple(ids[v]) for v in vertices},
        "local_pos": {(v, eid): ids[v].index(eid) for v in vertices for eid in ids[v]},
        "far_ends": {
            w: [(i, edges[i].firm, ids[edges[i].firm].index(edges[i].id)) for i in indices[w]]
            for w in map(str, doc["workers"])
        },
        "rules": {
            v: (order, tuple(edges[i].capacity for i in indices[v]), quota, filling)
            for v, (order, quota, filling) in rules.items()
        },
    }


def built_tables(inst):
    vertices = inst.workers + inst.firms
    rules = {}
    for v in vertices:
        ev = evaluator_for(inst, v)
        order = list(ev.order) if hasattr(ev, "order") else None
        rules[v] = (order, ev.caps, ev.quota, getattr(ev, "filling", None))
    return {
        "edges": inst.edges,
        "edge_index": inst.edge_index,
        "edge_indices": {v: inst.edge_indices(v) for v in vertices},
        "edges_of": {v: inst.edges_of(v) for v in vertices},
        "local_pos": {(v, eid): inst.local_pos(v, eid) for v in vertices for eid in inst.edges_of(v)},
        "far_ends": {w: inst.far_ends(w) for w in inst.workers},
        "rules": rules,
    }


def test_the_load_builds_the_tables_an_edge_by_edge_reading_gives(tmp_path):
    path = tmp_path / "inst.json"
    markets = table_markets()
    assert any(type(e["id"]) is int for doc in markets for e in doc["edges"])
    for doc in markets:
        want = reference_tables(doc)
        path.write_text(json.dumps(doc))
        loaded, built = load_instance(path), instance_from_dict(doc)
        assert loaded.to_dict() == built.to_dict()
        for inst in (loaded, built):
            got = built_tables(inst)
            assert all(type(e) is Edge for e in inst.edges)
            assert all(type(part) is str for e in inst.edges for part in e[:3])
            for key, table in want.items():
                assert got[key] == table, key
