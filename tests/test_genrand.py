from collections import deque

import pytest

from galloc import (
    GeneratorConfig,
    ValidationError,
    check_axioms,
    evaluator_for,
    generate,
    make_ring_instance,
)
from galloc.genrand import FAMILIES


def neighbours(inst):
    adj = {v: set() for v in inst.workers + inst.firms}
    for e in inst.edges:
        adj[e.worker].add(e.firm)
        adj[e.firm].add(e.worker)
    return adj


def test_same_seed_means_same_instance():
    cfg = GeneratorConfig(seed=11, workers=4, firms=3, family="mixed")
    assert generate(cfg).to_dict() == generate(cfg).to_dict()
    other = generate(GeneratorConfig(seed=12, workers=4, firms=3, family="mixed"))
    assert other.to_dict() != generate(cfg).to_dict()


def test_metadata_records_the_recipe():
    cfg = GeneratorConfig(seed=5, family="tableau")
    meta = generate(cfg).meta
    assert meta["generator"] == "galloc.genrand"
    assert meta["prng"] == "pcg64"
    assert meta["seed"] == 5
    assert meta["config"]["family"] == "tableau"


def test_generated_graphs_are_connected():
    for seed in range(12):
        inst = generate(GeneratorConfig(seed=seed, workers=4, firms=4, density=0.2))
        adj = neighbours(inst)
        seen = {inst.workers[0]}
        queue = deque(seen)
        while queue:
            for nxt in adj[queue.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        assert len(seen) == len(inst.workers) + len(inst.firms)


def test_full_density_is_complete():
    inst = generate(GeneratorConfig(seed=3, workers=3, firms=4, density=1.0))
    assert len(inst.edges) == 12


def test_capacity_caps_apply():
    inst = generate(
        GeneratorConfig(seed=9, capacity_bound=5, b_cap_for_gapless=2, family="mixed")
    )
    assert all(e.capacity <= 2 for e in inst.edges)
    assert inst.b_max <= 2


def test_family_controls_the_firm_side():
    linear = generate(GeneratorConfig(seed=2, family="linear"))
    assert all(
        inst_cf["type"] == "linear" for inst_cf in linear.firm_cfs.values()
    )
    tableau = generate(GeneratorConfig(seed=2, family="tableau"))
    assert all(cf["type"] == "tableau" for cf in tableau.firm_cfs.values())
    assert "mixed" in FAMILIES and "tableau-a3" in FAMILIES


def test_ring_family_goes_through_the_config():
    via = generate(GeneratorConfig(seed=0, family="tableau-a3", quota_bound=4))
    direct = make_ring_instance(4)
    assert via.to_dict() == direct.to_dict()
    with pytest.raises(ValidationError, match="3 workers and 3 firms"):
        generate(GeneratorConfig(seed=0, family="tableau-a3", workers=2))


def test_generated_choice_functions_obey_the_axioms():
    for seed in (1, 4, 7):
        inst = generate(
            GeneratorConfig(seed=seed, family="mixed", capacity_bound=2, quota_bound=3)
        )
        for v in inst.workers + inst.firms:
            report = check_axioms(evaluator_for(inst, v))
            assert report.passed, (seed, v, report.failures)


def test_config_validation():
    with pytest.raises(ValidationError, match="density"):
        generate(GeneratorConfig(seed=0, density=0.0))
    with pytest.raises(ValidationError, match="positive"):
        generate(GeneratorConfig(seed=0, workers=0))
    with pytest.raises(ValidationError, match="family"):
        generate(GeneratorConfig(seed=0, family="zigzag"))
    with pytest.raises(ValidationError, match="positive"):
        generate(GeneratorConfig(seed=0, b_cap_for_gapless=0))
    with pytest.raises(ValidationError, match="seed must be non-negative"):
        generate(GeneratorConfig(seed=-1))
    for bounds in ({"capacity_bound": 2**63}, {"quota_bound": 2**63}):
        with pytest.raises(ValidationError, match="below 2"):
            generate(GeneratorConfig(seed=0, **bounds))
    generate(GeneratorConfig(seed=0, capacity_bound=2**63 - 1, quota_bound=2**63 - 1))


def test_ring_needs_an_even_quota():
    for bad in (0, 1, 3):
        with pytest.raises(ValidationError, match="even quota"):
            make_ring_instance(bad)


def test_ring_shape():
    inst = make_ring_instance(6)
    assert [e.id for e in inst.edges] == [
        "a1", "c1", "d1", "a2", "c2", "d2", "a3", "c3", "d3",
    ]
    assert [e.capacity for e in inst.edges] == [6, 3, 3] * 3
    assert inst.worker_orders["w2"] == ("c2", "d2", "a2")
    assert inst.quota("w1") == 6
    assert inst.firm_cfs["f2"]["columns"] == ["a2", "c1", "d3"]
