import pytest

from cporders.census import enumerate_orders
from cporders.errors import NotRepresentableError
from cporders.flips import flippable_pairs
from cporders.represent import is_representable, unfriendly_flips


@pytest.fixture(scope="session")
def n3_census():
    return enumerate_orders(3)


@pytest.fixture(scope="session")
def n4_census():
    return enumerate_orders(4)


@pytest.fixture(scope="session")
def n5_census():
    return enumerate_orders(5)


@pytest.fixture(scope="session")
def facet_count():
    """Number of facets of a representable order's region: flippable pairs
    minus unfriendly flips.  The (empty set, first subset) pair, when
    flippable, is a facet of its own: it has no flip, so it is never
    unfriendly."""

    def count(order):
        base = is_representable(order)
        if not base.representable:
            raise NotRepresentableError("facet counting requires a representable order")
        return len(flippable_pairs(order)) - len(unfriendly_flips(order, base.utilities))

    return count
