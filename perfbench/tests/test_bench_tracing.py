"""Self-time arithmetic and wrapper installation."""

import io
import sys
from contextlib import redirect_stdout

import networkx.algorithms.flow as flow
import pytest

import galloc
from galloc import cli
from galloc.choice import ChoiceEvaluator
from perfbench.tracing import (
    TARGETS,
    Span,
    Tracer,
    galloc_modules,
    install,
    layer_metrics,
    self_times,
    uninstall,
)


def test_self_time_subtracts_the_union_of_children_and_leaf_time():
    spans = [
        Span(0, None, "root", 0.0, 10.0, leaf=0.5),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0, leaf=1.0),  # overlaps a: union is [1, 6]
        Span(3, 1, "c", 2.0, 3.0),
        Span(4, 0, "a", 9.0, 12.0),  # runs past its parent: clipped to [9, 10]
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10 - 5 - 1 - 0.5)
    assert got["a"] == pytest.approx((3 - 1) + 3)
    assert got["b"] == pytest.approx(3 - 1)
    assert got["c"] == pytest.approx(1)


def test_tracer_spans_nest_and_account_for_the_root():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    root = t.open("root")
    child = t.open("child")
    t.stack[-1].leaf += 0.25
    t.close(child)
    t.close(root)
    assert (child.parent, root.parent) == (root.id, None)
    selfs = self_times(t.spans)
    assert sum(selfs.values()) + 0.25 == pytest.approx(root.end - root.start)


def bindings(fn):
    return [(m.__name__, k) for m in galloc_modules() for k, v in vars(m).items() if v is fn]


def test_install_replaces_every_module_binding_and_uninstall_restores_them():
    originals = {
        (home, attr): getattr(sys.modules[home], attr) for home, attr, _, _ in TARGETS
    }
    before = {key: bindings(fn) for key, fn in originals.items()}
    # These are imported by name into several modules.
    for key in (
        ("galloc.stability", "check_stability"),
        ("galloc.rotation", "applicable_rotations"),
        ("galloc.rotation", "max_feasible_weight"),
    ):
        assert len(before[key]) > 2
    call = ChoiceEvaluator.__call__
    replaced = install(Tracer())
    try:
        for key, fn in originals.items():
            assert bindings(fn) == [], key
            for name, attr in before[key]:
                assert getattr(sys.modules[name], attr) is not fn
        assert ChoiceEvaluator.__call__ is not call
        assert galloc.poset.edmonds_karp is not flow.edmonds_karp
        assert flow.edmonds_karp is originals[("galloc.poset", "edmonds_karp")]
    finally:
        uninstall(replaced)
    assert {key: bindings(fn) for key, fn in originals.items()} == before
    assert ChoiceEvaluator.__call__ is call


def test_traced_command_is_fully_accounted(tmp_path):
    path = tmp_path / "ring.json"
    cli.main(["gen", "--appendix", "4", "-o", str(path)])
    t = Tracer()
    replaced = install(t)
    try:
        root = t.open("cli")
        with redirect_stdout(io.StringIO()):
            assert cli.main(["poset", str(path), "--general", "--verify"]) == 0
        t.close(root)
    finally:
        uninstall(replaced)
    layers = layer_metrics(t, root.end - root.start)
    assert layers["trace.accounted_share"][0] == pytest.approx(1.0)
    assert layers["model.load.calls"][0] == 1
    assert layers["poset.rotation_search.calls"][0] > 0
    assert layers["oracle.enumerate.stable"][0] == 5
    assert layers["choice.calls"][0] <= layers["choice.evals"][0]

