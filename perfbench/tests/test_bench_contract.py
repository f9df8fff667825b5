"""BENCHMARK.json names what the benchmark prints."""

import json
from pathlib import Path

from perfbench.harness import END_TO_END
from perfbench.tracing import REPORT_ONLY, Tracer, layer_metrics
from perfbench.workloads import WORKLOADS

DOC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_and_their_reasons_match():
    assert {w["name"]: w["why"] for w in DOC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_metric_names_match():
    assert [m["name"] for m in DOC["end_to_end"]] == list(END_TO_END)
    layers = set(layer_metrics(Tracer(), 1.0)) | {"trace.overhead_s"}
    assert REPORT_ONLY < layers
    assert {m["name"] for m in DOC["per_layer"]} == layers - REPORT_ONLY
