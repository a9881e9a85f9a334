"""Critical pairs, flippability, the flip operation, and facet counting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cporders.census import enumerate_orders
from cporders.cones import characteristic_vector, cone_from_order, irreducible_elements
from cporders.errors import EmptySideError, NotRepresentableError, TieError, VerificationError
from cporders.flips import (
    CriticalPair,
    _translate_ranks,
    critical_pairs,
    flip,
    flip_neighbors,
    flippable_pairs,
    is_flippable,
)
from cporders.orders import (
    ComparativeOrder,
    Subset,
    lexicographic_utilities,
    maclagan_utilities,
    ValidationReport,
    order_from_utilities,
    validate_order,
)
from cporders.represent import facet_count
from cporders.repro import random_utility_order


@pytest.fixture(scope="module")
def lex3():
    return order_from_utilities(lexicographic_utilities(3))


@pytest.fixture(scope="module")
def lex4():
    return order_from_utilities(lexicographic_utilities(4))


class TestCriticalPairs:
    def test_lex3(self, lex3):
        pairs = [(p.a.to_text(), p.b.to_text()) for p in critical_pairs(lex3)]
        assert pairs == [("-", "1"), ("1", "2"), ("1,2", "3")]

    @pytest.mark.parametrize("utilities", [(1, 2, 4), (2, 3, 4, 8), (7, 3, 11)])
    def test_first_pair_is_empty_vs_first(self, utilities):
        order = order_from_utilities(utilities)
        first = critical_pairs(order)[0]
        assert first.a.mask == 0 and first.rank_a == 0

    def test_ranks_are_consecutive(self, lex4):
        for pair in critical_pairs(lex4):
            assert lex4.rank(pair.b) == lex4.rank(pair.a) + 1
            assert pair.a.mask & pair.b.mask == 0


class TestIsFlippable:
    def test_lex3_middle_pair(self, lex3):
        pair = critical_pairs(lex3)[1]
        assert (pair.a.to_text(), pair.b.to_text()) == ("1", "2")
        assert is_flippable(lex3, pair)

    def test_central_pair_always_flippable(self):
        for utilities in [(1, 2, 4), (2, 3, 4, 8), (2, 4, 5, 8, 16)]:
            order = order_from_utilities(utilities)
            half = (1 << order.n) // 2
            pair = CriticalPair(order.subset_at(half - 1), order.subset_at(half), half - 1)
            assert pair.a.mask & pair.b.mask == 0
            assert is_flippable(order, pair)

    def test_lex4_examples(self, lex4):
        by_text = {
            (p.a.to_text(), p.b.to_text()): p for p in critical_pairs(lex4)
        }
        assert is_flippable(lex4, by_text[("1", "2")])
        assert is_flippable(lex4, by_text[("-", "1")])


class TestFlippablePairs:
    def test_lex3_count_matches_critical(self, lex3):
        assert len(flippable_pairs(lex3)) == 3

    def test_construction_counts(self):
        five = order_from_utilities(maclagan_utilities(4))
        six = order_from_utilities(maclagan_utilities(5))
        assert len(flippable_pairs(five)) == 8
        assert len(flippable_pairs(six)) == 13

    def test_adjacencies_field(self, lex3):
        for fp in flippable_pairs(lex3):
            r = 3 - len(fp.a) - len(fp.b)
            assert fp.adjacencies == 1 << r

    def test_json_shape(self, lex3):
        blob = flippable_pairs(lex3)[1].to_json()
        assert blob == {"A": [1], "B": [2], "rank": 1, "adjacencies": 2}


class TestFlip:
    def test_lex3_flip_sequence(self, lex3):
        fp = next(p for p in flippable_pairs(lex3) if p.a.to_text() == "1")
        flipped = flip(lex3, fp)
        assert [s.to_text() for s in flipped.subsets()] == [
            "-", "2", "1", "1,2", "3", "2,3", "1,3", "1,2,3",
        ]
        assert validate_order(flipped).ok

    def test_involution(self, lex3):
        fp = next(p for p in flippable_pairs(lex3) if p.a.to_text() == "1")
        flipped = flip(lex3, fp)
        image = next(
            p for p in flippable_pairs(flipped)
            if {p.a.to_text(), p.b.to_text()} == {"1", "2"}
        )
        assert flip(flipped, image) == lex3

    def test_empty_side_rejected(self, lex3):
        fp = next(p for p in flippable_pairs(lex3) if p.a.mask == 0)
        with pytest.raises(EmptySideError):
            flip(lex3, fp)
        # a critical pair with a nonempty side but a non-adjacent translate
        # is rejected too: under (2, 4, 5, 8, 16), {4} (8) falls between
        # {1,3} (7) and {2,3} (9)
        order = order_from_utilities((2, 4, 5, 8, 16))
        pair = next(p for p in critical_pairs(order) if p.a.mask and not is_flippable(order, p))
        assert (pair.a.to_text(), pair.b.to_text()) == ("1", "2")
        with pytest.raises(ValueError):
            flip(order, pair)

    def test_invalid_flip_result_raises(self, monkeypatch, lex3):
        # the self-check is a raise, so it also holds under python -O
        monkeypatch.setattr("cporders.flips.validate_order", lambda order: ValidationReport(False))
        fp = next(p for p in flippable_pairs(lex3) if p.a.to_text() == "1")
        with pytest.raises(VerificationError):
            flip(lex3, fp)

    def test_changed_ranks_exactly(self, lex3):
        fp = next(p for p in flippable_pairs(lex3) if p.a.to_text() == "1")
        flipped = flip(lex3, fp)
        diff = [k for k in range(8) if flipped.ranked[k] != lex3.ranked[k]]
        assert len(diff) == 2 * fp.adjacencies

    @pytest.mark.parametrize("n", range(3, 7))
    def test_flip_outputs_validate(self, n):
        order = order_from_utilities(maclagan_utilities(n)) if n > 3 else order_from_utilities(
            lexicographic_utilities(n)
        )
        for _, neighbor in flip_neighbors(order):
            assert validate_order(neighbor).ok


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda n: st.lists(st.integers(1, 500), min_size=n, max_size=n)
    ),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
)
def test_flip_keeps_validity_and_is_an_involution(entries, choices):
    # a short random walk in the flip graph from a random-utility order, so
    # nonrepresentable orders are flipped too; flip itself self-validates
    # only up to 5 atoms, so validity is checked here
    try:
        order = order_from_utilities(entries)
    except TieError:
        order = order_from_utilities(lexicographic_utilities(len(entries)))
    for choice in choices:
        pairs = [fp for fp in flippable_pairs(order) if fp.a.mask != 0]
        if not pairs:
            break
        fp = pairs[choice % len(pairs)]
        flipped = flip(order, fp)
        assert validate_order(flipped).ok
        image = next(
            p for p in flippable_pairs(flipped) if (p.a, p.b) == (fp.b, fp.a)
        )
        assert flip(flipped, image) == order
        order = flipped


def neighbors(order):
    return [neighbor for _, neighbor in flip_neighbors(order)]


class TestNeighbors:
    def test_lex3_has_two(self, lex3):
        assert len(neighbors(lex3)) == 2

    def test_symmetry(self, lex3):
        for other in neighbors(lex3):
            assert lex3 in neighbors(other)

    def test_five_atom_construction_count(self):
        order = order_from_utilities(maclagan_utilities(4))
        eligible = [fp for fp in flippable_pairs(order) if fp.a.mask != 0]
        assert len(neighbors(order)) == len(eligible)
        assert len(eligible) in (7, 8)

    def test_lazy_pairs_and_flips(self, lex4):
        walk = flip_neighbors(lex4)
        assert iter(walk) is walk
        pairs = []
        for fp, neighbor in walk:
            assert neighbor == flip(lex4, fp)
            pairs.append(fp)
        assert pairs == [fp for fp in flippable_pairs(lex4) if fp.a.mask != 0]


class TestFacetCount:
    def test_lex3(self, lex3):
        assert facet_count(lex3) == 3

    def test_five_atom_construction(self):
        assert facet_count(order_from_utilities(maclagan_utilities(4))) == 8

    def test_nonrepresentable_rejected(self, n5_census):
        bad = next(
            o for o, rep in zip(n5_census.orders, n5_census.representable) if not rep
        )
        with pytest.raises(NotRepresentableError):
            facet_count(bad)

    def test_facets_bounded_by_flips(self, lex4):
        assert facet_count(lex4) <= len(flippable_pairs(lex4))


class TestTheorem2Bijection:
    @staticmethod
    def assert_bijection(order):
        pairs = flippable_pairs(order)
        chi = {characteristic_vector(fp.a, fp.b) for fp in pairs}
        irr = irreducible_elements(cone_from_order(order))
        assert chi == set(irr)
        assert len(chi) == len(pairs)

    @pytest.mark.parametrize(
        "utilities",
        [
            (1,),
            (1, 2),
            (1, 2, 4),
            (2, 3, 4),
            (2, 3, 4, 8),
            (2, 4, 5, 8, 16),
            maclagan_utilities(9),  # 10 atoms, F_11 = 89 flippable pairs
        ],
    )
    def test_flippable_pairs_match_irreducibles(self, utilities):
        self.assert_bijection(order_from_utilities(utilities))

    def test_random_orders_beyond_brute_force(self):
        # 8-10 atoms: too many members for the pairwise oracle in
        # test_cones, so the flippable pairs are the reference
        rng = random.Random(20261019)
        for n in (8, 9, 10):
            for _ in range(4):
                self.assert_bijection(random_utility_order(n, rng))


def test_empty_pair_flippable_examples(lex3):
    empty_pair = critical_pairs(lex3)[0]
    assert empty_pair.a.mask == 0 and is_flippable(lex3, empty_pair)
    # it has no flip, so facet_count counts it by itself: 2 neighbours + 1
    assert facet_count(lex3) == len(neighbors(lex3)) + 1
    order = order_from_utilities((2, 3, 4, 8))
    assert not is_flippable(order, critical_pairs(order)[0])


class TestMaskWalk:
    """``flippable_pairs`` walks translates on masks and builds Subsets only
    for the pairs it keeps; it must agree with the definition, pair by pair."""

    @staticmethod
    def assert_definition(order):
        pairs = flippable_pairs(order)
        assert pairs == [p for p in critical_pairs(order) if is_flippable(order, p)]
        for p in pairs:
            assert p.adjacencies == len(_translate_ranks(order, p.a.mask, p.b.mask))

    def test_census_orders(self, n3_census, n4_census, n5_census):
        censuses = [enumerate_orders(1), enumerate_orders(2), n3_census, n4_census, n5_census]
        for census in censuses:
            for order in census.orders:
                self.assert_definition(order)

    def test_random_orders(self):
        rng = random.Random(20261019)
        for _ in range(50):
            self.assert_definition(random_utility_order(rng.randint(6, 10), rng))
