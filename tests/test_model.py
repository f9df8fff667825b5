import copy
import json
from fractions import Fraction

import pytest

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
from galloc.choice import evaluator_for, iter_box
from galloc.genrand import GeneratorConfig, generate
from galloc.model import assignment_from_doc, shift

from builders import one_on_one, parallel_pair


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


def test_assignment_doc_forms():
    inst = one_on_one()
    assert assignment_from_doc(inst, {"e1": 1}).values == (1,)
    assert assignment_from_doc(inst, {"assignment": {"e1": 1}}).values == (1,)
    assert assignment_from_doc(inst, {}).values == (0,)
    with pytest.raises(ValidationError, match="unknown edge"):
        assignment_from_doc(inst, {"nope": 1})
    with pytest.raises(ValidationError, match="outside"):
        assignment_from_doc(inst, {"e1": 2})
    doc = solution_doc(inst, Assignment((1,)), True)
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


def test_restrict_uses_canonical_local_order(ring4):
    x = ring4.assignment((1, 2, 0, 1, 2, 0, 1, 2, 0))
    assert ring4.edges_of("f1") == ("a1", "d2", "c3")
    assert ring4.local_values(x, "f1") == (1, 0, 2)
    assert ring4.size_at(x, "f1") == 3


def test_cost_vector_parsing_and_exactness():
    inst = parallel_pair(1)
    cv = CostVector.from_doc(inst, {"e1": 1, "e2": 0.1})
    assert cv.values == (Fraction(1), Fraction(1, 10))
    cv = CostVector.from_doc(inst, {"e1": "2/3"})
    assert cv.values[0] == Fraction(2, 3)
    with pytest.raises(ValidationError, match="unknown edge"):
        CostVector.from_doc(inst, {"zz": 1})
    with pytest.raises(ValidationError, match="not a number"):
        CostVector.from_doc(inst, {"e1": True})
    ints, scale = CostVector.from_doc(inst, {"e1": 0.5, "e2": "1/3"}).scaled_integers()
    assert ints == (3, 2) and scale == 6


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
