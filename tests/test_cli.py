import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from galloc import InvariantViolation, make_ring_instance, xmin_by_capacity_reduction
from galloc.cli import main

from builders import one_on_one, two_swaps

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


def test_poset_plain_on_a_gapless_instance(swaps_file, capsys):
    rc, out, _ = run(capsys, ["poset", swaps_file, "--verify"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["mode"] == "gapless"
    assert doc["hasse"] == []
    assert len(doc["elements"]) == 2


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
    ],
    ids=["quotas-list", "edges-int", "cf-int", "workers-string", "order-string",
         "order-list-entry", "order-bool-entry", "firm-order-string", "firm-order-list-entry",
         "firm-columns-int"],
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


def test_bench_reports_timings(ring_file, capsys):
    rc, out, _ = run(capsys, ["bench", ring_file])
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "bench"
    assert set(doc["timings"]) == {"capacity_reduction", "stages", "full_route"}
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


def test_internal_failures_exit_two(ring_file, capsys, monkeypatch):
    import galloc.cli as cli_mod

    def boom(inst):
        raise InvariantViolation("forced")

    monkeypatch.setattr(cli_mod, "xmin_by_capacity_reduction", boom)
    rc, _, err = run(capsys, ["solve", ring_file])
    assert rc == 2
    assert "invariant violation" in err


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
