"""The builders' closed forms against the brute-force oracle."""

import pytest

from galloc import (
    build_full_route,
    build_poset,
    enumerate_stable,
    instance_from_dict,
)
from perfbench.corpus import latin, oracle_corpus, random_complete, rings
from perfbench.workloads import closed_images, full, key_of


@pytest.mark.parametrize(
    "built",
    [latin(4, seed=3), latin(3, 2, 4, seed=3), rings(1, 4, seed=3), rings(2, 2, seed=3)],
    ids=lambda b: b.name,
)
def test_closed_forms_match_the_oracle(built):
    inst = instance_from_dict(built.doc)
    lat = enumerate_stable(inst)
    assert lat.min_element.to_mapping(inst) == full(built, built.xmin)
    assert lat.max_element.to_mapping(inst) == full(built, built.xmax)
    if built.unit_route is not None:
        route = build_full_route(inst)
        assert [s.weight for s in route.steps] == [1] * built.unit_route
    if built.unit_elements is not None:
        poset = build_poset(inst, general=True)
        assert [el.weight for el in poset.elements] == [1] * built.unit_elements


def test_latin_route_has_n_minus_one_unit_steps():
    built = latin(6, seed=1)
    route = build_full_route(instance_from_dict(built.doc))
    assert [s.weight for s in route.steps] == [1] * 5


def test_closed_images_are_the_stable_set():
    for built in (latin(4, seed=2), rings(2, 2, seed=2), latin(3, 2, 4, seed=2)):
        inst = instance_from_dict(built.doc)
        lat = enumerate_stable(inst)
        poset = build_poset(inst, general=True).to_dict()
        images = closed_images(poset, lat.min_element.to_mapping(inst))
        assert sorted(map(key_of, images)) == sorted(
            key_of(x.to_mapping(inst)) for x in lat.elements
        )


def test_seed_relabels_but_keeps_the_structure():
    a, b, again = latin(5, seed=1), latin(5, seed=2), latin(5, seed=1)
    assert a.doc == again.doc
    assert {e["id"] for e in a.doc["edges"]} != {e["id"] for e in b.doc["edges"]}
    ia, ib = instance_from_dict(a.doc), instance_from_dict(b.doc)
    assert len(build_full_route(ia).steps) == len(build_full_route(ib).steps) == 4


def test_random_complete_draw_is_fixed_apart_from_labels():
    one = random_complete(8, seed=1, draw=0)
    two = random_complete(8, seed=2, draw=0)
    assert one.doc != two.doc
    steps = [len(build_full_route(instance_from_dict(b.doc)).steps) for b in (one, two)]
    assert steps[0] == steps[1]


def test_oracle_corpus_fits_the_box_limit():
    corpus = oracle_corpus(0)
    assert len(corpus) == 100
    for built in corpus:
        box = 1
        for e in built.doc["edges"]:
            box *= e["capacity"] + 1
        assert box <= 10**7, built.name
