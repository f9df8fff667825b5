"""The package's public names and the functions the benchmark tracer hooks.

``perfbench/tracing.py`` looks its targets up by name when it installs,
and its hooks read arguments by position, so renaming a target or
moving an argument breaks the benchmark's traced passes, not the
solver.  These tests run traced commands end to end to catch that here.
"""

import io
import json
from collections import Counter
from contextlib import redirect_stdout

import galloc
import perfbench.tracing as tracing
from galloc import cli, instance_from_dict, make_ring_instance, xmin_by_capacity_reduction
from perfbench.corpus import latin
from perfbench.tracing import Tracer, install, layer_metrics, uninstall


def test_every_public_name_resolves_once():
    names = galloc.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(galloc, name), name
    for gone in ("revealed_prefers", "is_closed"):
        assert gone not in names and not hasattr(galloc, gone)


def commands(tmp_path, name, inst):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(inst.to_dict()))
    x = tmp_path / f"{name}-min.json"
    x.write_text(json.dumps(xmin_by_capacity_reduction(inst).assignment.to_mapping(inst)))
    p = str(path)
    return [
        ["route", p],
        ["route", p, "--seed", "1"],
        ["solve", p, "--mode", "max"],
        ["rotations", p, str(x)],
    ]


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


def test_traced_commands_run_every_hook(tmp_path, monkeypatch):
    ran = Counter()

    def counted(hook):
        def run_hook(*args):
            hook(*args)
            ran[hook.__name__] += 1

        return run_hook

    monkeypatch.setattr(
        tracing,
        "TARGETS",
        tuple(
            (home, attr, name, hook and counted(hook))
            for home, attr, name, hook in tracing.TARGETS
        ),
    )
    latin4 = instance_from_dict(latin(4).doc)
    costs = tmp_path / "latin4-costs.json"
    costs.write_text(json.dumps({e.id: i % 5 - 2 for i, e in enumerate(latin4.edges)}))
    argvs = commands(tmp_path, "ring4", make_ring_instance(4)) + commands(
        tmp_path, "latin4", latin4
    )
    # The cut reaches edmonds_karp through networkx's minimum_cut.
    argvs.append(["mincost", str(tmp_path / "latin4.json"), str(costs)])
    plain = [run(argv) for argv in argvs]
    t = Tracer()
    replaced = install(t)
    try:
        root = t.open("cli")
        traced = [run(argv) for argv in argvs]
        t.close(root)
    finally:
        uninstall(replaced)
    assert traced == plain
    names = {s.name for s in t.spans}
    assert {"rotation.search", "rotation.aux", "rotation.weight", "lattice.route"} <= names
    assert {"poset.build", "poset.mincut", "poset.closed"} <= names
    assert set(ran) == {"_on_search", "_on_weight", "_on_capred", "_on_route"}
    layers = layer_metrics(t, root.end - root.start)
    assert layers["lattice.route.steps"][0] > 0
    assert layers["lattice.capred.rounds"][0] > 0
    # Every evaluator answers a weight search in closed form, so the
    # searches run and call no rule.
    assert layers["rotation.weight.calls"][0] > 0
    assert layers["rotation.weight.oracle_calls"][0] == 0
