import pytest

from galloc import make_ring_instance


@pytest.fixture
def ring4():
    return make_ring_instance(4)
