import pytest

from galloc import (
    LimitError,
    enumerate_stable,
    make_ring_instance,
    verify_lattice_properties,
)

from builders import one_on_one, two_swaps

RING_CHAIN = ((0, 2, 2), (1, 2, 1), (2, 1, 1), (3, 1, 0), (4, 0, 0))


def test_single_edge_lattice():
    inst = one_on_one()
    lat = enumerate_stable(inst)
    assert len(lat) == 1
    assert lat.elements[0].values == (1,)
    assert lat.min_element.values == (1,)
    assert lat.max_element.values == (1,)
    assert lat.order == (("equal",),)


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


def test_enumeration_refuses_oversized_boxes(ring4):
    with pytest.raises(LimitError, match="over the limit"):
        enumerate_stable(ring4, limit=1000)


def test_elements_come_back_sorted(ring4):
    lat = enumerate_stable(ring4)
    assert list(lat.elements) == sorted(lat.elements, key=lambda x: x.values)
