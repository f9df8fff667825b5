import argparse
import dataclasses
import gc
import json
import os
import subprocess
import sys
import time

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import galloc.poset
from galloc import (
    GeneratorConfig,
    InvariantViolation,
    make_ring_instance,
    xmax_by_capacity_reduction,
    xmin_by_capacity_reduction,
)
from galloc.choice import A3_QUOTA_LIMIT
from galloc.genrand import FAMILIES, PAIR_LIMIT, TABLEAU_CELL_LIMIT, generate
from galloc.cli import main

from builders import latin, one_on_one, two_swaps

X0 = {"a1": 0, "c1": 2, "d1": 2, "a2": 0, "c2": 2, "d2": 2, "a3": 0, "c3": 2, "d3": 2}
X4 = {"a1": 4, "c1": 0, "d1": 0, "a2": 4, "c2": 0, "d2": 0, "a3": 4, "c3": 0, "d3": 0}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def ring_file(tmp_path):
    return write_json(tmp_path / "ring.json", make_ring_instance(4).to_dict())


@pytest.fixture
def swaps_file(tmp_path):
    return write_json(tmp_path / "swaps.json", two_swaps().to_dict())


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gen_appendix_solve_check_round_trip(tmp_path, capsys):
    inst_path = str(tmp_path / "inst.json")
    rc, out, _ = run(capsys, ["gen", "--appendix", "4", "-o", inst_path])
    assert rc == 0 and out == ""
    rc, out, _ = run(capsys, ["solve", inst_path, "--mode", "min", "--verify"])
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"assignment": X0, "stable": True}
    sol_path = write_json(tmp_path / "sol.json", doc)
    rc, out, _ = run(capsys, ["check", inst_path, sol_path])
    assert rc == 0
    assert json.loads(out) == {"stable": True, "unacceptable": [], "blocking": []}


def test_solve_max_matches_the_top(ring_file, capsys):
    rc, out, _ = run(capsys, ["solve", ring_file, "--mode", "max", "--verify"])
    assert rc == 0
    assert json.loads(out)["assignment"] == X4


def test_solve_verify_over_the_limit_exits_one(ring_file, capsys):
    for mode in ("min", "max"):
        rc, out, err = run(
            capsys, ["solve", ring_file, "--mode", mode, "--verify", "--limit", "10"]
        )
        assert (rc, out) == (1, "")
        assert err == (
            "galloc: error: enumeration needs a box of 91125 points, "
            "over the limit 10\n"
        )


def test_check_reports_blocking_edges(ring_file, tmp_path, capsys):
    zero = write_json(tmp_path / "zero.json", {"assignment": {}})
    rc, out, _ = run(capsys, ["check", ring_file, zero])
    assert rc == 0
    doc = json.loads(out)
    assert doc["stable"] is False
    assert len(doc["blocking"]) == 9


def test_route_lists_the_four_steps(ring_file, capsys):
    rc, out, _ = run(capsys, ["route", ring_file, "--verify"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["start"] == X0
    assert doc["end"] == X4
    assert [s["weight"] for s in doc["steps"]] == [1, 1, 1, 1]
    rc, seeded, _ = run(capsys, ["route", ring_file, "--seed", "3"])
    assert rc == 0
    counts = {}
    for s in json.loads(seeded)["steps"]:
        key = (tuple(s["cycle"]), s["weight"])
        counts[key] = counts.get(key, 0) + 1
    assert sorted(counts.values()) == [2, 2]


def test_rotations_json_and_dot(ring_file, tmp_path, capsys):
    x1 = write_json(
        tmp_path / "x1.json",
        {eid: 1 if eid.startswith("a") else (2 if eid.startswith("c") else 1)
         for eid in X0},
    )
    rc, out, _ = run(capsys, ["rotations", ring_file, x1])
    assert rc == 0
    doc = json.loads(out)
    assert doc == {
        "rotations": [
            {"cycle": ["a1", "c3", "a3", "c2", "a2", "c1"], "weight": 1}
        ]
    }
    rc, out, _ = run(capsys, ["rotations", ring_file, x1, "--dot"])
    assert rc == 0
    assert out.startswith("digraph active {")
    assert '"w1" -> "f1" [label="a1"];' in out


def test_poset_needs_general_on_the_ring(ring_file, capsys):
    rc, _, err = run(capsys, ["poset", ring_file])
    assert rc == 1
    assert "galloc: error:" in err
    rc, out, _ = run(capsys, ["poset", ring_file, "--general", "--verify"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["mode"] == "general"
    assert [el["occurrence"] for el in doc["elements"]] == [0, 1, 0, 1]
    assert doc["hasse"] == [[0, 3], [2, 0], [3, 1]]
    rc, out, _ = run(capsys, ["poset", ring_file, "--general", "--dot"])
    assert rc == 0
    assert out.startswith("digraph poset {")
    assert "#1" in out


def test_poset_verify_counts_closed_functions_not_candidates(tmp_path, capsys):
    # The q = 20 ring's poset is a chain of 20 elements: 21 closed
    # functions, although their entries range over 2**20 candidates.
    ring = write_json(tmp_path / "ring20.json", make_ring_instance(20).to_dict())
    argv = ["poset", ring, "--general", "--verify", "--limit", str(10**15)]
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    assert len(json.loads(out)["elements"]) == 20


def test_poset_plain_on_a_gapless_instance(swaps_file, capsys):
    rc, out, _ = run(capsys, ["poset", swaps_file, "--verify"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["mode"] == "gapless"
    assert doc["hasse"] == []
    assert len(doc["elements"]) == 2


def test_dot_output_escapes_quotes_and_backslashes(tmp_path, capsys):
    w, e1 = 'w"1', "e\\1"
    doc = {
        "workers": [w],
        "firms": ["f1"],
        "edges": [
            {"id": e1, "worker": w, "firm": "f1", "capacity": 1},
            {"id": "e2", "worker": w, "firm": "f1", "capacity": 1},
        ],
        "worker_quotas": {w: 1},
        "worker_orders": {w: ["e2", e1]},
        "firm_cfs": {"f1": {"type": "linear", "order": [e1, "e2"], "quota": 1}},
    }
    path = write_json(tmp_path / "quoted.json", doc)
    x = write_json(tmp_path / "x.json", {"e2": 1})
    rc, out, _ = run(capsys, ["rotations", path, x, "--dot"])
    assert rc == 0
    assert out.splitlines() == [
        "digraph active {",
        '  "w\\"1" -> "f1" [label="e\\\\1"];',
        '  "f1" -> "w\\"1" [label="e2"];',
        "}",
    ]
    rc, out, _ = run(capsys, ["poset", path, "--dot"])
    assert rc == 0
    assert out.splitlines() == ["digraph poset {", '  n0 [label="e\\\\1,e2:1"];', "}"]


def test_bare_assignment_of_an_edge_named_assignment(tmp_path, capsys):
    doc = one_on_one().to_dict()
    doc["edges"][0]["id"] = "assignment"
    doc["worker_orders"]["w1"] = ["assignment"]
    doc["firm_cfs"]["f1"]["order"] = ["assignment"]
    inst_path = write_json(tmp_path / "inst.json", doc)
    bare = write_json(tmp_path / "bare.json", {"assignment": 1})
    rc, out, _ = run(capsys, ["check", inst_path, bare])
    assert rc == 0
    assert json.loads(out) == {"stable": True, "unacceptable": [], "blocking": []}
    rc, out, _ = run(capsys, ["rotations", inst_path, bare])
    assert rc == 0
    assert json.loads(out)["rotations"] == []


def test_mincost_prints_exact_costs(swaps_file, tmp_path, capsys):
    costs = write_json(tmp_path / "c.json", {"a1": -1.5})
    rc, out, _ = run(capsys, ["mincost", swaps_file, costs])
    assert rc == 0
    doc = json.loads(out)
    assert doc["cost"] == "-1.5"
    assert doc["stable"] is True
    assert doc["assignment"] == {"a1": 1, "a2": 0, "b1": 0, "b2": 1}


def test_missing_files_exit_one(tmp_path, capsys):
    rc, _, err = run(capsys, ["solve", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "galloc: error:" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("worker_quotas", [1], "worker_quotas must be an object"),
        ("edges", 5, "edges must be a list"),
        ("firm_cfs", {"f": 3}, "choice function for firm 'f' must be an object"),
        # One-character ids: read as strings, these used to pass silently.
        ("workers", "w", "workers must be a list"),
        ("worker_orders", {"w": "e"}, "order for worker 'w' must be a list"),
        ("worker_orders", {"w": [["e"]]}, "order for worker 'w' lists a non-string"),
        # Sorting the stray entries for the message used to raise TypeError.
        ("worker_orders", {"w": ["e", False]}, "order for worker 'w' lists a non-string"),
        (
            "firm_cfs",
            {"f": {"type": "linear", "order": "e", "quota": 1}},
            "firm 'f': 'order' must be a list",
        ),
        (
            "firm_cfs",
            {"f": {"type": "linear", "order": [["e"], "e"], "quota": 1}},
            "firm 'f': 'order' is not a permutation",
        ),
        (
            "firm_cfs",
            {"f": {"type": "tableau-a3", "columns": 5, "quota": 2}},
            "firm 'f': 'columns' must be a list",
        ),
        ("worker_quotas", {"w": 2.5}, "quota for worker 'w' is not an integer"),
        (
            "edges",
            [{"id": "e", "worker": "w", "firm": "f"}],
            "edge #0 missing keys ['capacity']",
        ),
    ],
    ids=["quotas-list", "edges-int", "cf-int", "workers-string", "order-string",
         "order-list-entry", "order-bool-entry", "firm-order-string", "firm-order-list-entry",
         "firm-columns-int", "quota-float", "edge-no-capacity"],
)
def test_mistyped_instance_fields_exit_one(key, value, message, tmp_path, capsys):
    doc = {
        "workers": ["w"],
        "firms": ["f"],
        "edges": [{"id": "e", "worker": "w", "firm": "f", "capacity": 1}],
        "worker_quotas": {"w": 1},
        "worker_orders": {"w": ["e"]},
        "firm_cfs": {"f": {"type": "linear", "order": ["e"], "quota": 1}},
    }
    rc, _, _ = run(capsys, ["solve", write_json(tmp_path / "ok.json", doc)])
    assert rc == 0
    doc[key] = value
    rc, out, err = run(capsys, ["solve", write_json(tmp_path / "bad.json", doc)])
    assert (rc, out) == (1, "")
    assert err.startswith("galloc: error:") and message in err
    assert err.count("\n") == 1


LINEAR = {"type": "linear", "order": ["e1", "e2"], "quota": 1}


def pair_doc(spec=LINEAR):
    """Worker w and firm f joined by unit edges e1 and e2; f linear by default."""
    return {
        "workers": ["w"],
        "firms": ["f"],
        "edges": [{"id": e, "worker": "w", "firm": "f", "capacity": 1} for e in ("e1", "e2")],
        "worker_quotas": {"w": 1},
        "worker_orders": {"w": ["e1", "e2"]},
        "firm_cfs": {"f": dict(spec)},
    }


def tableau_doc(**spec):
    return pair_doc(
        {"type": "tableau", "columns": ["e1", "e2"], "quota": 1, "filling": [[0, 1], [2, 3]],
         **spec}
    )


def a3_doc(**spec):
    doc = make_ring_instance(2).to_dict()
    doc["firm_cfs"]["f1"].update(spec)
    return doc


def changed(doc, key, value):
    doc[key] = value
    return doc


def added(doc, key, name, value):
    doc[key][name] = value
    return doc


def edited(doc, i, **fields):
    doc["edges"][i].update(fields)
    return doc


def without(doc, key):
    del doc[key]
    return doc


# (case, document or gen argv, message): each is refused on exit code 1.
INVALID = [
    ("dup-firm", lambda: changed(pair_doc(), "firms", ["f", "f"]),
     "duplicate firm id 'f'"),
    ("worker-and-firm", lambda: changed(pair_doc(), "firms", ["f", "w"]),
     "id 'w' used for both a worker and a firm"),
    ("missing-quota", lambda: changed(pair_doc(), "worker_quotas", {}),
     "missing quota for worker 'w'"),
    ("unknown-quota", lambda: added(pair_doc(), "worker_quotas", "x", 1),
     "quota for unknown worker 'x'"),
    ("missing-order", lambda: changed(pair_doc(), "worker_orders", {}),
     "missing order for worker 'w'"),
    ("unknown-order", lambda: added(pair_doc(), "worker_orders", "x", []),
     "order for unknown worker 'x'"),
    ("repeated-order", lambda: added(pair_doc(), "worker_orders", "w", ["e1", "e2", "e1"]),
     "order for worker 'w' repeats an edge"),
    ("not-an-object", lambda: [pair_doc()],
     "instance document must be a JSON object"),
    ("missing-key", lambda: without(pair_doc(), "edges"),
     "missing instance key 'edges'"),
    ("edge-not-object", lambda: changed(pair_doc(), "edges", [5]),
     "edge #0 is not an object"),
    ("meta-not-object", lambda: changed(pair_doc(), "meta", []),
     "meta must be an object"),
    ("spec-unknown-keys", lambda: pair_doc(dict(LINEAR, x=0)),
     "firm 'f': unknown keys ['x']"),
    ("spec-negative-quota", lambda: pair_doc(dict(LINEAR, quota=-1)),
     "firm 'f': negative quota -1"),
    ("spec-string-quota", lambda: pair_doc(dict(LINEAR, quota="1")),
     "firm 'f': quota is not an integer"),
    ("spec-boolean-quota", lambda: pair_doc(dict(LINEAR, quota=True)),
     "firm 'f': quota is not an integer"),
    ("spec-unknown-type", lambda: pair_doc({"type": "quadratic", "quota": 1}),
     "firm 'f': unknown choice function type 'quadratic'"),
    ("spec-missing-order", lambda: pair_doc({"type": "linear", "quota": 1}),
     "firm 'f': missing 'order'"),
    ("a3-odd-quota", lambda: a3_doc(quota=3),
     "tableau-a3 quota must be even and >= 2"),
    ("a3-small-quota", lambda: a3_doc(quota=0),
     "tableau-a3 quota must be even and >= 2"),
    ("a3-edge-count", lambda: pair_doc({"type": "tableau-a3", "quota": 2}),
     "firm 'f': tableau-a3 needs exactly 3 edges"),
    ("a3-capacities", lambda: a3_doc(columns=["c3", "a1", "d2"]),
     "firm 'f1': tableau-a3 capacities must be (2, 1, 1) in column order, got (1, 2, 1)"),
    ("filling-shape", lambda: tableau_doc(filling=5),
     "firm 'f': filling must list one column of entries per edge"),
    ("filling-columns", lambda: tableau_doc(filling=[[0, 1]]),
     "firm 'f': filling must list one column of entries per edge"),
    ("filling-column-length", lambda: tableau_doc(filling=[[0, 1], [2]]),
     "firm 'f': filling column 1 must have 2 entries"),
    ("filling-non-integer", lambda: tableau_doc(filling=[[0, 1], [2, "3"]]),
     "firm 'f': filling entries must be integers"),
    ("filling-boolean", lambda: tableau_doc(filling=[[False, 1], [2, 3]]),
     "firm 'f': filling entries must be integers"),
    ("filling-not-increasing", lambda: tableau_doc(filling=[[0, 1], [3, 2]]),
     "firm 'f': filling column 1 is not strictly increasing"),
    ("filling-repeat", lambda: tableau_doc(filling=[[0, 1], [1, 2]]),
     "firm 'f': filling entry 1 repeats"),
    ("float-capacity", lambda: edited(pair_doc(), 0, capacity=1.0),
     "edge 'e1' capacity is not an integer"),
    ("boolean-capacity", lambda: edited(pair_doc(), 1, capacity=True),
     "edge 'e2' capacity is not an integer"),
    ("negative-capacity", lambda: edited(pair_doc(), 0, capacity=-1),
     "edge 'e1' has negative capacity -1"),
    ("unknown-firm", lambda: edited(pair_doc(), 1, firm="g"),
     "edge 'e2' references unknown firm 'g'"),
    ("int-id-collides",
     lambda: edited(edited(pair_doc(), 0, id=2), 1, id="2") | {"worker_orders": {"w": ["2"]}},
     "duplicate edge id '2'"),
    ("non-string-order-entry", lambda: added(pair_doc(), "worker_orders", "w", ["e1", 2]),
     "order for worker 'w' lists a non-string edge id"),
    ("non-incident-order-entry",
     lambda: added(pair_doc(), "worker_orders", "w", ["e1", "e2", "e9"]),
     "order for worker 'w' lists non-incident edge 'e9'"),
    ("gen-capacity-bound", ["gen", "--seed", "1", "--capacity-bound", "0"],
     "capacity and quota bounds must be positive"),
    ("gen-quota-bound", ["gen", "--seed", "1", "--quota-bound", "0"],
     "capacity and quota bounds must be positive"),
    ("gen-gapless-cap", ["gen", "--seed", "1", "--gapless-cap", "0"],
     "the gapless capacity cap must be positive"),
    ("gen-a3-odd-quota", ["gen", "--seed", "1", "--family", "tableau-a3", "--quota-bound", "3"],
     "the tableau-a3 family uses the quota bound (--quota-bound) as its ring's quota, "
     "which must be even; got 3"),
]


@pytest.mark.parametrize(
    "source, message", [case[1:] for case in INVALID], ids=[case[0] for case in INVALID]
)
def test_invalid_documents_and_bounds_exit_one(source, message, tmp_path, capsys):
    for doc in (pair_doc(), tableau_doc(), a3_doc()):  # the bases are valid
        assert run(capsys, ["solve", write_json(tmp_path / "ok.json", doc)])[0] == 0
    argv = source if isinstance(source, list) else [
        "solve", write_json(tmp_path / "bad.json", source())
    ]
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (1, "")
    assert err.startswith("galloc: error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_mincost_refuses_the_ring(ring_file, tmp_path, capsys):
    costs = write_json(tmp_path / "c.json", {"a1": 1})
    rc, _, err = run(capsys, ["mincost", ring_file, costs])
    assert rc == 1
    assert "galloc: error:" in err


def test_mincost_missing_costs_file_exits_one(swaps_file, tmp_path, capsys):
    rc, _, err = run(capsys, ["mincost", swaps_file, str(tmp_path / "nope.json")])
    assert rc == 1
    assert err.startswith("galloc: error: cannot read")
    assert err.count("\n") == 1


def test_mincost_non_json_costs_file_exits_one(swaps_file, tmp_path, capsys):
    costs = tmp_path / "c.json"
    for content in (b"{not json", b"\xff\xfe", b"[" * 5000 + b"]" * 5000):
        costs.write_bytes(content)
        rc, _, err = run(capsys, ["mincost", swaps_file, str(costs)])
        assert rc == 1
        assert err.startswith("galloc: error:") and "is not valid JSON" in err
        assert err.count("\n") == 1


LONG_INT = "1" + "0" * 4400  # over the 4,300-digit int-to-string limit


def long_capacity_instance():
    doc = two_swaps().to_dict()
    doc["edges"][0]["capacity"] = "CAP"
    return json.dumps(doc).replace('"CAP"', LONG_INT)


def wide_edge_instance():
    """One edge whose capacity and quotas are 10**3500, under the JSON limit."""
    doc = one_on_one().to_dict()
    doc["edges"][0]["capacity"] = doc["worker_quotas"]["w1"] = "CAP"
    doc["firm_cfs"]["f1"]["quota"] = "CAP"
    return json.dumps(doc).replace('"CAP"', "1" + "0" * 3500)


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("mincost", '{"a1": Infinity}', "is not finite"),
        ("mincost", '{"a1": NaN}', "is not finite"),
        ("mincost", '{"a1": "1e1000000"}', "exponent over 1000"),
        (
            "mincost",
            json.dumps({"a1": f"1/{3**4000}", "a2": f"1/{7**3000}", "b1": f"1/{11**2500}"}),
            "over 1000 digits",
        ),
        ("solve", long_capacity_instance(), "is not valid JSON"),
        ("check", '{"a1": ' + LONG_INT + "}", "is not valid JSON"),
        # Each cost is in bounds, but cost times capacity is not printable.
        (("mincost", wide_edge_instance()), '{"e1": "1e999"}', "over 1900 digits"),
    ],
    ids=["cost-infinity", "cost-nan", "cost-exponent", "cost-denominators",
         "solve-long-capacity", "check-long-value", "cost-times-capacity"],
)
def test_oversized_numbers_exit_one(command, text, message, swaps_file, tmp_path, capsys):
    path = tmp_path / "arg.json"
    path.write_text(text)
    inst_file = swaps_file
    if isinstance(command, tuple):  # a command with its own instance text
        command, inst_text = command
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(inst_text)
    argv = [command, str(path)] if command == "solve" else [command, str(inst_file), str(path)]
    start = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (1, "")
    assert err.startswith("galloc: error:") and message in err
    assert err.count("\n") == 1


def test_brute_counts_the_chain(ring_file, capsys):
    rc, out, _ = run(capsys, ["brute", ring_file])
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 5
    assert doc["xmin"] == X0
    assert doc["xmax"] == X4
    assert doc["properties_ok"] is True
    assert doc["problems"] == []


def test_the_empty_market_verifies_without_a_traceback(tmp_path, capsys):
    doc = {"workers": [], "firms": [], "edges": [], "worker_quotas": {},
           "worker_orders": {}, "firm_cfs": {}}
    path = write_json(tmp_path / "empty.json", doc)
    rc, out, err = run(capsys, ["brute", path])
    assert (rc, err) == (0, "")
    assert json.loads(out) == {
        "count": 1, "xmin": {}, "xmax": {}, "properties_ok": True, "problems": []
    }
    for argv in (["solve", "--verify"], ["route", "--verify"], ["poset", "--verify"],
                 ["poset", "--general", "--verify"]):
        rc, out, err = run(capsys, [argv[0], path, *argv[1:]])
        assert (rc, err) == (0, ""), argv
        assert json.loads(out)


def test_brute_refuses_large_stable_sets(tmp_path, capsys):
    # Five disjoint capacity-3 swaps: a 4**10-cell box, under the box
    # limit, holding 4**5 = 1024 stable points.
    n = range(5)
    doc = {
        "workers": [f"w{i}" for i in n],
        "firms": [f"f{i}" for i in n],
        "edges": [
            {"id": f"{s}{i}", "worker": f"w{i}", "firm": f"f{i}", "capacity": 3}
            for i in n
            for s in "ab"
        ],
        "worker_quotas": {f"w{i}": 3 for i in n},
        "worker_orders": {f"w{i}": [f"b{i}", f"a{i}"] for i in n},
        "firm_cfs": {
            f"f{i}": {"type": "linear", "order": [f"a{i}", f"b{i}"], "quota": 3}
            for i in n
        },
    }
    path = write_json(tmp_path / "pairs.json", doc)
    start = time.perf_counter()
    rc, out, err = run(capsys, ["brute", path])
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (1, "")
    assert err == (
        "galloc: error: enumeration found 1024 stable assignments, over the limit 128\n"
    )


def test_brute_respects_the_limit(ring_file, capsys, monkeypatch):
    rc, _, err = run(capsys, ["brute", ring_file, "--limit", "10"])
    assert rc == 1
    assert "over the limit" in err
    monkeypatch.setenv("GALLOC_LIMIT", "10")
    rc, _, err = run(capsys, ["brute", ring_file])
    assert rc == 1
    monkeypatch.setenv("GALLOC_LIMIT", "banana")
    rc, _, err = run(capsys, ["brute", ring_file])
    assert rc == 1
    assert "GALLOC_LIMIT" in err


def test_gen_is_deterministic(capsys):
    args = ["gen", "--seed", "7", "--family", "mixed", "--workers", "2"]
    rc, first, _ = run(capsys, args)
    assert rc == 0
    rc, second, _ = run(capsys, args)
    assert first == second
    doc = json.loads(first)
    assert doc["meta"]["seed"] == 7


def test_gen_output_that_cannot_be_written_exits_one(tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "x.json"):
        rc, out, err = run(capsys, ["gen", "--seed", "1", "-o", str(target)])
        assert rc == 1 and out == ""
        assert err.startswith("galloc: error: cannot write ") and err.count("\n") == 1


def test_gen_needs_a_seed(capsys):
    rc, _, err = run(capsys, ["gen"])
    assert rc == 1
    assert "needs --seed" in err


def test_negative_seeds_and_oversized_bounds_exit_one(ring_file, capsys):
    for argv in (
        ["gen", "--seed", "-1"],
        ["route", ring_file, "--seed", "-1"],
        ["gen", "--seed", "1", "--capacity-bound", str(2**63)],
        ["gen", "--seed", "1", "--quota-bound", str(2**63)],
    ):
        rc, out, err = run(capsys, argv)
        assert rc == 1 and out == ""
        assert err.startswith("galloc: error: ") and err.count("\n") == 1


def test_oversized_a3_quotas_exit_one(tmp_path, capsys):
    # The tableau-a3 filling has quota + 1 entries per column; a quota
    # over the limit is refused before it is built.
    q = A3_QUOTA_LIMIT + 2
    doc = make_ring_instance(2).to_dict()
    for e in doc["edges"]:
        e["capacity"] = q if e["id"].startswith("a") else q // 2
    doc["worker_quotas"] = dict.fromkeys(doc["worker_quotas"], q)
    for spec in doc["firm_cfs"].values():
        spec["quota"] = q
    path = write_json(tmp_path / "ring.json", doc)
    for argv in (
        ["gen", "--appendix", str(10**23)],
        ["gen", "--seed", "1", "--family", "tableau-a3", "--quota-bound", str(10**18)],
        ["solve", path],
    ):
        start = time.perf_counter()
        rc, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (1, "")
        assert err.startswith("galloc: error:") and f"over the limit {A3_QUOTA_LIMIT:,}" in err
        assert err.count("\n") == 1


def refused_fast(capsys, argv, message):
    start = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (1, "")
    assert err.startswith("galloc: error:") and message in err and err.count("\n") == 1


def test_gen_refuses_more_worker_firm_pairs_than_its_limit(capsys):
    # Drawing the pairs loops over all of them; a count over the limit is
    # refused before the first draw.
    refused_fast(
        capsys,
        ["gen", "--seed", "1", "--workers", "100000000"],
        f"300,000,000 worker-firm pairs are over the limit {PAIR_LIMIT:,}",
    )
    GeneratorConfig(seed=1, workers=2, firms=PAIR_LIMIT // 2).check()


def test_gen_refuses_tableau_fillings_over_their_cell_limit(capsys):
    # Each tableau filling deals one cell per unit of capacity; a bound
    # that could exceed the limit is refused before any filling is dealt.
    for family in ("tableau", "mixed"):
        refused_fast(
            capsys,
            ["gen", "--seed", "1", "--family", family, "--capacity-bound", str(10**12)],
            f"over the limit {TABLEAU_CELL_LIMIT:,}",
        )
    bound = TABLEAU_CELL_LIMIT // 9 - 1  # 3 workers and 3 firms
    GeneratorConfig(seed=1, family="tableau", capacity_bound=bound).check()
    rc, _, _ = run(capsys, ["gen", "--seed", "1", "--capacity-bound", str(10**12)])
    assert rc == 0  # linear firms deal no cells


def test_bench_reports_timings(ring_file, capsys):
    rc, out, _ = run(capsys, ["bench", ring_file])
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "bench"
    assert set(doc["timings"]) == {"capacity_reduction", "stages", "full_route", "firm_side"}
    assert doc["results"]["route_length"] == 4
    assert doc["results"]["capacity_reduction_rounds"] >= 1
    assert doc["oracle_calls_total"] > 0


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 1


def test_one_parser_serves_every_call(ring_file, capsys, monkeypatch):
    from galloc.cli import build_parser

    def limit_from_env():
        monkeypatch.setenv("GALLOC_LIMIT", "10")
        try:
            return main(["brute", ring_file])
        finally:
            monkeypatch.delenv("GALLOC_LIMIT")

    calls = [
        lambda: main(["solve", "--mode", "middle", ring_file]),
        lambda: main(["brute", ring_file, "--limit", "10"]),
        lambda: main(["brute", ring_file]),
        lambda: main(["solve", ring_file, "--mode", "max"]),
        lambda: main(["solve", ring_file]),
        limit_from_env,
    ]

    def outcome(call):
        try:
            rc = call()
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    first = [outcome(call) for call in calls]
    assert [rc for rc, _, _ in first] == [1, 1, 0, 0, 0, 1]
    assert first[0][2].startswith("usage: galloc solve")
    assert json.loads(first[3][1])["assignment"] == X4
    assert json.loads(first[4][1])["assignment"] == X0
    for order in (calls, calls[::-1]):
        again = [outcome(call) for call in order]
        assert again == [first[calls.index(call)] for call in order]
    assert build_parser() is build_parser()


def test_internal_failures_exit_two(ring_file, capsys, monkeypatch):
    import galloc.cli as cli_mod

    def boom(inst):
        raise InvariantViolation("forced")

    monkeypatch.setattr(cli_mod, "xmin_by_capacity_reduction", boom)
    rc, _, err = run(capsys, ["solve", ring_file])
    assert rc == 2
    assert "invariant violation" in err


def test_poset_verify_exits_two_unless_closed_functions_biject(ring_file, capsys, monkeypatch):
    import galloc.cli as cli_mod

    enumerate_closed = cli_mod.enumerate_closed_functions

    def repeating(poset):
        closed = enumerate_closed(poset)
        return closed + closed[:1]  # same image set, one function too many

    monkeypatch.setattr(cli_mod, "enumerate_closed_functions", repeating)
    rc, out, err = run(capsys, ["poset", ring_file, "--general", "--verify"])
    assert (rc, out) == (2, "")
    assert err == (
        "galloc: invariant violation: "
        "closed functions and enumerated stable set disagree\n"
    )


def ring4_file(*argv):
    """A command that runs ``argv`` with ring 4 as its instance."""

    def command(tmp_path):
        ring = write_json(tmp_path / "ring.json", make_ring_instance(4).to_dict())
        return [argv[0], ring, *argv[1:]]

    return command


def mincost_latin4(tmp_path):
    inst = latin(4)
    costs = write_json(tmp_path / "c.json", {e.id: 1 for e in inst.edges})
    return ["mincost", write_json(tmp_path / "latin4.json", inst.to_dict()), costs]


def latin4_file(*argv):
    """A command that runs ``argv`` on Latin 4, cap 2, quota 4.

    Its deferral routes leave its base route, so they walk steps of
    their own; those of ring 4 and of Latin 4 at cap 1 never do.
    """

    def command(tmp_path):
        inst = write_json(tmp_path / "latin4.json", latin(4, 2, 4).to_dict())
        return [argv[0], inst, *argv[1:]]

    return command


def deferral_routes(change):
    """A patch that applies ``change`` to each deferral route with steps of its own.

    A deferral route is walked with ``pick``, behind the base steps it
    replays (``taken``).
    """

    def patch(monkeypatch):
        walk = galloc.poset.walk_route

        def broken(*args, **kwargs):
            route = walk(*args, **kwargs)
            own = len(route.steps) > len(kwargs.get("taken", ()))
            return change(route) if "pick" in kwargs and own else route

        monkeypatch.setattr(galloc.poset, "walk_route", broken)

    return patch


def drop_last_step(route):
    return dataclasses.replace(route, steps=route.steps[:-1], end=route.steps[-2].end)


def heavier_last_step(route):
    last = dataclasses.replace(route.steps[-1], weight=route.steps[-1].weight + 1)
    return dataclasses.replace(route, steps=route.steps[:-1] + (last,))


def cut_without_a_predecessor(monkeypatch):
    def cut(g, s, t, flow_func):
        # The head of a precedence arc without its tail.
        b = next(b for a, b in g.edges if a != s and b != t)
        return 0, (set(g) - {t, b}, {t, b})

    monkeypatch.setattr(galloc.poset.nx, "minimum_cut", cut)


def replaced(name, by):
    """A patch that puts ``by`` in place of ``name`` in ``galloc.cli``."""
    return lambda monkeypatch: monkeypatch.setattr(f"galloc.cli.{name}", by)


def the_top(inst):
    return xmax_by_capacity_reduction(inst).assignment


def route_without_its_last_step(monkeypatch):
    build = galloc.cli.build_full_route
    monkeypatch.setattr(
        "galloc.cli.build_full_route", lambda *a, **k: drop_last_step(build(*a, **k))
    )


@pytest.mark.parametrize(
    "command, patch, message",
    [
        (
            ring4_file("solve", "--verify"),
            replaced("xmin_by_capacity_reduction", xmax_by_capacity_reduction),
            "solver and oracle disagree on the minimum stable assignment",
        ),
        (
            ring4_file("solve", "--mode", "max", "--verify"),
            replaced("xmax_by_capacity_reduction", xmin_by_capacity_reduction),
            "solver and oracle disagree on the maximum stable assignment",
        ),
        (
            ring4_file("route", "--verify"),
            route_without_its_last_step,
            "route endpoints disagree with the oracle",
        ),
        (
            ring4_file("bench"),
            replaced("solve_xmin_by_stages", the_top),
            "the two minimum pipelines disagree",
        ),
        (
            ring4_file("bench"),
            replaced("xmax_by_capacity_reduction", xmin_by_capacity_reduction),
            "the two maximum pipelines disagree",
        ),
        (
            latin4_file("poset", "--general"),
            deferral_routes(drop_last_step),
            "a deferred route ended away from its component's maximum",
        ),
        (
            latin4_file("poset", "--general"),
            deferral_routes(heavier_last_step),
            "route weight multisets differ between full routes of a component",
        ),
        (mincost_latin4, cut_without_a_predecessor, "minimum cut side is not a down-set"),
    ],
    ids=["solve-min", "solve-max", "route", "bench-min", "bench-max", "deferred-end",
         "deferred-multiset", "cut-down-set"],
)
def test_broken_invariants_exit_two(command, patch, message, tmp_path, capsys, monkeypatch):
    patch(monkeypatch)
    rc, out, err = run(capsys, command(tmp_path))
    assert (rc, out) == (2, "")
    assert err == f"galloc: invariant violation: {message}\n"


def test_solve_max_exits_two_when_a_rotation_applies_at_the_top(ring_file, capsys, monkeypatch):
    from galloc import Rotation

    top = ("a1", "d2", "a2", "d3", "a3", "d1")
    monkeypatch.setattr(
        "galloc.lattice.applicable_rotations", lambda inst, x, view=None: (Rotation(top),)
    )
    rc, out, err = run(capsys, ["solve", ring_file, "--mode", "max"])
    assert (rc, out) == (2, "")
    assert err == "galloc: invariant violation: a rotation applies at the firm-side fixpoint\n"
    rc, out, _ = run(capsys, ["solve", ring_file])
    assert rc == 0 and json.loads(out)["assignment"] == X0


# -- the cyclic collector --------------------------------------------------


def ring4_at_x0(*argv):
    """A command on the q=4 ring with its minimum as the assignment."""

    def command(tmp_path):
        x0 = write_json(tmp_path / "x0.json", {"assignment": X0})
        return ring4_file(argv[0], x0, *argv[1:])(tmp_path)

    return command


def latin4_file(*argv):
    def command(tmp_path):
        return [argv[0], write_json(tmp_path / "latin4.json", latin(4).to_dict()), *argv[1:]]

    return command


COLLECTOR_CASES = {
    "solve": (ring4_file("solve", "--verify"), 0),
    "solve-max": (ring4_file("solve", "--mode", "max", "--verify"), 0),
    "route": (ring4_file("route", "--verify"), 0),
    "route-seed": (ring4_file("route", "--seed", "3", "--verify"), 0),
    "rotations": (ring4_at_x0("rotations"), 0),
    "rotations-dot": (ring4_at_x0("rotations", "--dot"), 0),
    "poset": (latin4_file("poset", "--verify"), 0),
    "poset-general": (ring4_file("poset", "--general", "--verify"), 0),
    "poset-dot": (ring4_file("poset", "--general", "--dot"), 0),
    "mincost": (mincost_latin4, 0),
    "check": (ring4_at_x0("check"), 0),
    "brute": (ring4_file("brute"), 0),
    "gen": (lambda tmp_path: ["gen", "--seed", "3", "--family", "mixed"], 0),
    "gen-appendix": (lambda tmp_path: ["gen", "--appendix", "4"], 0),
    "bench": (ring4_file("bench"), 0),
    "refusal": (ring4_file("poset"), 1),
    "invariant": (ring4_file("solve", "--verify"), 2),  # with the solver broken
    "usage": (lambda tmp_path: ["solve"], 1),
}
# What the cyclic garbage of a command may hang from: mincost's flow
# graph, and the help formatters argparse builds to print a usage error.
GARBAGE_ROOTS = {"mincost": nx.Graph, "usage": argparse.HelpFormatter}


def reached_from(roots, among):
    """The ids of the objects of ``among`` that ``roots`` reach within it."""
    inside = {id(o) for o in among}
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            stack += [r for r in gc.get_referents(obj) if id(r) in inside]
    return seen


@pytest.mark.parametrize("case", COLLECTOR_CASES)
def test_a_command_restores_the_collector_and_leaves_no_galloc_cycle(
    case, tmp_path, capsys, monkeypatch
):
    command, code = COLLECTOR_CASES[case]
    if case == "invariant":
        replaced("xmin_by_capacity_reduction", xmax_by_capacity_reduction)(monkeypatch)
    argv = command(tmp_path)

    def outcome():
        try:
            return main(argv)
        except SystemExit as exc:  # usage errors
            return exc.code

    # A first run imports numpy for a seeded route, and networkx compiles
    # its decorators on their first call; both leave cyclic garbage once.
    assert outcome() == code
    enabled, flags = gc.isenabled(), gc.get_debug()
    try:
        for start in (True, False):
            (gc.enable if start else gc.disable)()
            gc.collect()
            # Keep everything unreachable, also what a collection inside
            # the command would have freed.
            gc.set_debug(gc.DEBUG_SAVEALL)
            assert outcome() == code
            assert gc.isenabled() is start
            gc.collect()
            garbage = list(gc.garbage)
            gc.set_debug(flags)
            gc.garbage.clear()
            assert not [o for o in garbage if type(o).__module__.startswith("galloc")]
            roots = [o for o in garbage if isinstance(o, GARBAGE_ROOTS.get(case, ()))]
            assert bool(roots) is (case in GARBAGE_ROOTS)
            assert reached_from(roots, garbage) == {id(o) for o in garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        (gc.enable if enabled else gc.disable)()
        capsys.readouterr()


def test_importing_the_cli_loads_no_numpy():
    # Only gen and route --seed draw, and they import numpy themselves.
    src = os.path.dirname(os.path.dirname(galloc.poset.__file__))
    code = "import sys, galloc.cli; print(sorted({'galloc', 'numpy'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert done.stdout == "['galloc']\n"


# -- fuzzing the instance boundary ----------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=5)
    | st.sampled_from(["w1", "f1", "a1", "linear", "tableau", "tableau-a3"]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
FUZZ_BASES = [two_swaps(1, 2), make_ring_instance(2)]


def field_paths(doc, prefix=()):
    """Paths to every value inside a parsed JSON document, nested ones too."""
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ()
    )
    out = []
    for key, value in children:
        out.append(prefix + (key,))
        out += field_paths(value, prefix + (key,))
    return out


def replace_one_field(data, doc):
    """Replace the value at one drawn path of ``doc`` with arbitrary JSON."""
    path = data.draw(st.sampled_from(field_paths(doc)))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(JSON_VALUES)


def assert_clean_exits(capsys, argvs):
    """Each command exits 0, 1 or 2, and a failure prints one stderr line."""
    for argv in argvs:
        rc, _, err = run(capsys, argv)
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in err
        if rc != 0:
            assert err.count("\n") == 1 and err.startswith("galloc: "), (argv, err)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_one_field_replaced_exits_cleanly(data, tmp_path, capsys):
    inst = data.draw(st.sampled_from(FUZZ_BASES))
    doc = inst.to_dict()
    replace_one_field(data, doc)
    inst_path = write_json(tmp_path / "inst.json", doc)
    xmin = xmin_by_capacity_reduction(inst).assignment.to_mapping(inst)
    x_path = write_json(tmp_path / "x.json", xmin)
    costs = write_json(tmp_path / "costs.json", {eid: 1 for eid in xmin})
    assert_clean_exits(capsys, [
        ["solve", inst_path],
        ["route", inst_path],
        ["rotations", inst_path, x_path],
        ["poset", inst_path],
        ["mincost", inst_path, costs],
        ["check", inst_path, x_path],
        ["brute", inst_path],
    ])


# -- fuzzing the assignment and cost boundary ------------------------------


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_one_assignment_or_cost_field_replaced_exits_cleanly(data, tmp_path, capsys):
    inst = data.draw(st.sampled_from(FUZZ_BASES))
    inst_path = write_json(tmp_path / "inst.json", inst.to_dict())
    xmin = xmin_by_capacity_reduction(inst).assignment.to_mapping(inst)
    docs = {"x": {"assignment": xmin, "stable": True}, "costs": {eid: 1 for eid in xmin}}
    replace_one_field(data, docs)  # either document, or a field inside one
    x_path = write_json(tmp_path / "x.json", docs["x"])
    costs = write_json(tmp_path / "costs.json", docs["costs"])
    assert_clean_exits(capsys, [
        ["check", inst_path, x_path],
        ["rotations", inst_path, x_path],
        ["mincost", inst_path, costs],
    ])


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.text()
    | st.sampled_from(["", "\"\\/\b\f\n\r\t\x00\x1f\x7f", "é☃\U0001f600", "\ud800"])
)
json_odd = st.floats(allow_nan=True) | st.tuples(st.integers())


@given(
    st.recursive(
        json_scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4) | json_scalars, inner, max_size=4),
        max_leaves=30,
    )
    | st.recursive(
        json_scalars | json_odd,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=10,
    )
)
@example({
    "a": [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 2.5e-8],
    "b": {"c": [[float("-inf")], {"d": float("nan")}]},
})
@settings(max_examples=300, deadline=None)
def test_output_text_is_that_of_json_dumps_with_indent(doc):
    # Escapes, non-ASCII text, lone surrogates, floats and keys that are
    # not strings included; tuples go to json.dumps itself.
    from galloc.cli import _dumps

    assert _dumps(doc) == json.dumps(doc, indent=2)


def test_gen_documents_are_written_as_json_dumps_writes_them():
    # A random family's document holds a float, its density.
    from galloc.cli import _dumps

    for family in FAMILIES:
        doc = generate(GeneratorConfig(seed=3, density=0.55, family=family)).to_dict()
        assert _dumps(doc) == json.dumps(doc, indent=2)

