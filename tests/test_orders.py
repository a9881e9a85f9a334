"""Subset algebra, order construction and validation, utility constructions."""

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cporders.census import enumerate_orders
from cporders.errors import DuplicateError, NotSortedError, TieError
from cporders.flips import flip, flippable_pairs
from cporders.orders import (
    ComparativeOrder,
    Subset,
    insert_utility,
    lexicographic_utilities,
    maclagan_utilities,
    order_from_lines,
    order_from_line,
    order_from_utilities,
    order_to_line,
    order_to_lines,
    subset_sums,
    validate_order,
)

LEX3_RANKED = ["-", "1", "2", "1,2", "3", "1,3", "2,3", "1,2,3"]


def texts(order):
    return [s.to_text() for s in order.subsets()]


class TestSubset:
    def test_roundtrip_and_algebra(self):
        a = Subset.from_atoms([1, 3], 4)
        b = Subset.from_atoms([2, 3], 4)
        assert a.atoms == (1, 3)
        assert a.union(b).atoms == (1, 2, 3)
        assert a.complement().atoms == (2, 4)
        assert a.union(a.complement()).mask == (1 << 4) - 1
        assert 3 in a and 2 not in a

    def test_text_forms(self):
        assert Subset(0, 3).to_text() == "-"
        assert Subset.from_text("1,3", 3).mask == 0b101
        assert Subset.from_text("-", 3).mask == 0
        with pytest.raises(ValueError):
            Subset.from_text("1,1", 3)
        with pytest.raises(ValueError):
            Subset.from_text("4", 3)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,x", "cannot parse subset '1,x'"),
            ("9,x", "cannot parse subset '9,x'"),
            ("4,4", "repeated atom in subset '4,4'"),
            ("1,1", "repeated atom in subset '1,1'"),
            ("2,4", r"atom 4 outside universe \[1..3\]"),
            ("0", r"atom 0 outside universe \[1..3\]"),
        ],
    )
    def test_text_errors_parse_then_repeat_then_range(self, text, message):
        with pytest.raises(ValueError, match=message):
            Subset.from_text(text, 3)
        lines = order_to_lines(order_from_utilities((1, 2, 4)))
        with pytest.raises(ValueError, match=message):
            order_from_lines(lines[:2] + [text] + lines[3:])

    @pytest.mark.parametrize(
        "atoms, message",
        [
            ([True], r"atoms must be ints, got \[True\]"),
            ([1, "2"], r"atoms must be ints, got \[1, '2'\]"),
            ([1.0, 1.0], r"atoms must be ints, got \[1.0, 1.0\]"),
            ([1, 1], "repeated atom in subset '1,1'"),
            ([4, 4], "repeated atom in subset '4,4'"),
            ([2, 4], r"atom 4 outside universe \[1..3\]"),
        ],
    )
    def test_atom_errors_type_then_repeat_then_range(self, atoms, message):
        with pytest.raises(ValueError, match=message):
            Subset.from_atoms(atoms, 3)

    def test_bounds(self):
        with pytest.raises(ValueError):
            Subset(8, 3)
        with pytest.raises(ValueError):
            Subset(0, 17)


class TestOrderFromUtilities:
    def test_lexicographic_n3(self):
        order = order_from_utilities((1, 2, 4))
        assert texts(order) == LEX3_RANKED
        assert validate_order(order).ok

    def test_tie_is_an_error(self):
        with pytest.raises(TieError) as exc:
            order_from_utilities((1, 1, 2))
        assert {exc.value.first.mask, exc.value.second.mask} == {0b001, 0b010}

    def test_inserted_small_weight_rank(self):
        # independent oracle: sort all 16 subset sums computed via combinations
        u = (2, 4, 8, 3)
        sums = {}
        for r in range(5):
            for combo in itertools.combinations(range(4), r):
                sums[sum(1 << i for i in combo)] = sum(u[i] for i in combo)
        expected = sorted(sums, key=sums.get)
        order = order_from_utilities(u)
        assert list(order.ranked) == expected
        assert order.rank(Subset.from_atoms([4], 4)) == 2

    def test_rejects_bad_utilities(self):
        with pytest.raises(ValueError):
            order_from_utilities((0, 1))
        with pytest.raises(ValueError):
            order_from_utilities((1.5, 2))
        with pytest.raises(ValueError):
            order_from_utilities(tuple(range(1, 18)))


class TestValidateOrder:
    def test_lexicographic_passes(self):
        assert validate_order(order_from_utilities((1, 2, 4))).ok

    def test_swap_fails_with_witness(self):
        lex = order_from_utilities((1, 2, 4))
        ranked = list(lex.ranked)
        i, j = lex.rank(0b010), lex.rank(0b011)  # {2} and {1,2}
        ranked[i], ranked[j] = ranked[j], ranked[i]
        report = validate_order(ComparativeOrder(3, ranked))
        assert not report.ok
        a, b, c = report.triple
        assert (a.mask, b.mask, c.mask) == (0b000, 0b001, 0b010)

    def test_empty_set_must_be_first(self):
        report = validate_order(ComparativeOrder(2, (1, 0, 2, 3)))
        assert not report.ok
        assert report.empty_set_witness is not None
        assert report.message == "empty set is not strictly first (see 1)"

    def test_positions_invert_ranks(self):
        order = order_from_utilities((3, 5, 9, 18))
        for k in range(16):
            assert order.rank(order.ranked[k]) == k


def assert_position_inverts(order):
    assert len(order.position) == len(order.ranked)
    for r, mask in enumerate(order.ranked):
        assert order.position[mask] == r


class TestComparativeOrder:
    @pytest.mark.parametrize(
        "ranked",
        [(0, 1, 2), (0, 1, 2, 3, 3), (0, 1, 1, 3), (0, 1, 2, 4), (0, 1, 2, -1), (0, 1, -3, 3)],
        ids=["short", "long", "repeated", "mask-too-large", "negative", "negative-alias"],
    )
    def test_rejects_non_permutations(self, ranked):
        with pytest.raises(ValueError, match="permutation of 0..3"):
            ComparativeOrder(2, ranked)

    def test_position_inverts_census_orders(self, n3_census, n4_census, n5_census):
        small = [enumerate_orders(n, with_flags=False, with_edges=False) for n in (1, 2)]
        for census in small + [n3_census, n4_census, n5_census]:
            for order in census.orders:
                assert_position_inverts(order)

    def test_position_of_a_12_atom_flip_neighbour_and_its_pickle(self):
        order = order_from_utilities(maclagan_utilities(11))
        pair = next(fp for fp in flippable_pairs(order) if fp.a.mask != 0)
        neighbor = flip(order, pair)
        # the pickle is taken before the inverse is ever read, as a worker
        # process receives a freshly flipped order
        copy = pickle.loads(pickle.dumps(neighbor))
        assert_position_inverts(neighbor)
        assert_position_inverts(copy)
        assert copy == neighbor and hash(copy) == hash(neighbor)
        assert copy.position == neighbor.position
        # flipping back recovers the base order, inverse included
        image = next(fp for fp in flippable_pairs(neighbor) if (fp.a, fp.b) == (pair.b, pair.a))
        back = flip(neighbor, image)
        assert back == order and back.position == order.position

    def test_position_and_its_cache_are_read_only(self):
        order = order_from_utilities((1, 2, 4))
        inverse = order.position
        with pytest.raises(AttributeError):
            order.position = inverse
        with pytest.raises(AttributeError):
            order._position = None
        with pytest.raises(AttributeError):
            object.__setattr__(order, "position", inverse)
        assert order.position is inverse
        assert_position_inverts(order)


class TestLexicographicUtilities:
    def test_values(self):
        assert lexicographic_utilities(3) == (1, 2, 4)
        assert lexicographic_utilities(1) == (1,)

    def test_sums_cover_range(self):
        sums = subset_sums(lexicographic_utilities(5))
        assert sorted(sums) == list(range(32))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_binary_order_ranks_by_mask(self, n):
        order = order_from_utilities(lexicographic_utilities(n))
        assert list(order.ranked) == list(range(1 << n))


class TestInsertUtility:
    def test_examples(self):
        assert insert_utility((2, 4, 8), 3) == (2, 3, 4, 8)
        assert insert_utility((2, 4), 1) == (1, 2, 4)
        assert insert_utility((2, 4, 8, 16, 32), 11) == (2, 4, 8, 11, 16, 32)

    def test_append_at_top(self):
        assert insert_utility((1, 2), 9) == (1, 2, 9)

    def test_errors(self):
        with pytest.raises(DuplicateError):
            insert_utility((2, 4, 8), 4)
        with pytest.raises(NotSortedError):
            insert_utility((4, 2), 3)

    @given(
        st.lists(st.integers(1, 500), unique=True, min_size=1, max_size=8),
        st.integers(1, 501),
    )
    def test_matches_sorted_merge(self, entries, q):
        base = tuple(sorted(entries))
        if q in base:
            with pytest.raises(DuplicateError):
                insert_utility(base, q)
        else:
            assert insert_utility(base, q) == tuple(sorted(base + (q,)))


class TestMaclaganUtilities:
    def test_small_cases(self):
        assert maclagan_utilities(3) == (2, 3, 4, 8)
        assert maclagan_utilities(4) == (2, 4, 5, 8, 16)
        assert maclagan_utilities(5) == (2, 4, 8, 11, 16, 32)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_orders_are_valid(self, n):
        order = order_from_utilities(maclagan_utilities(n))
        if n <= 6:
            assert validate_order(order).ok
        assert order.n == n + 1

    @pytest.mark.parametrize("n", range(3, 10))
    def test_consecutive_gaps_at_most_two(self, n):
        utilities = maclagan_utilities(n)
        sums = subset_sums(utilities)
        order = order_from_utilities(utilities)
        gaps = {
            sums[order.ranked[k + 1]] - sums[order.ranked[k]]
            for k in range(len(order.ranked) - 1)
        }
        assert gaps <= {1, 2}

    @pytest.mark.parametrize("n", range(3, 10))
    def test_inserted_atom_alternates(self, n):
        utilities = maclagan_utilities(n)
        order = order_from_utilities(utilities)
        sums = subset_sums(utilities)
        j_bit = 1 << (n - 2)
        start = order.rank(j_bit)
        stop = max(k for k, mask in enumerate(order.ranked) if not mask & j_bit)
        for k in range(start, stop):
            assert bool(order.ranked[k] & j_bit) != bool(order.ranked[k + 1] & j_bit)
            assert sums[order.ranked[k + 1]] - sums[order.ranked[k]] == 1


class TestOrderSerialization:
    def test_multiline_roundtrip(self):
        order = order_from_utilities((2, 4, 8, 3))
        lines = order_to_lines(order)
        assert order_from_lines(lines) == order

    def test_single_line_roundtrip(self):
        order = order_from_utilities((1, 2, 4))
        assert order_from_line(order_to_line(order)) == order

    def test_parser_rejects_broken_files(self):
        good = order_to_lines(order_from_utilities((1, 2)))
        with pytest.raises(ValueError):
            order_from_lines(good[:-1])  # one subset line short
        with pytest.raises(ValueError):
            order_from_lines(good[:-1] + [good[1]])  # a subset line repeated
        swapped = [good[0], good[2], good[1]] + good[3:]
        with pytest.raises(ValueError):
            order_from_lines(swapped)  # empty set not first
        with pytest.raises(ValueError):
            order_from_lines(["x"] + good[1:])


@settings(max_examples=60)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=5))
def test_any_utility_order_is_valid(entries):
    try:
        order = order_from_utilities(tuple(entries))
    except TieError:
        return
    assert validate_order(order).ok


@settings(max_examples=30)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=5), st.integers(2, 5))
def test_scaling_leaves_order_unchanged(entries, factor):
    try:
        order = order_from_utilities(tuple(entries))
    except TieError:
        return
    scaled = order_from_utilities(tuple(v * factor for v in entries))
    assert scaled == order


def _union_consistent_by_brute_force(order):
    """Empty set first and, for every X, Y and every C disjoint from X|Y,
    X < Y exactly when X|C < Y|C."""
    full = 1 << order.n
    pos = order.position
    if pos[0] != 0:
        return False
    for x in range(full):
        for y in range(full):
            rest = ~(x | y) & (full - 1)
            for c in range(full):
                if c & ~rest == 0 and (pos[x] < pos[y]) != (pos[x | c] < pos[y | c]):
                    return False
    return True


@st.composite
def perturbed_orders(draw, max_atoms=5):
    """A random-utility order with a few adjacent ranks swapped (the swap
    may move the empty set)."""
    n = draw(st.integers(1, max_atoms))
    entries = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
    try:
        order = order_from_utilities(entries)
    except TieError:
        order = order_from_utilities(lexicographic_utilities(n))
    ranked = list(order.ranked)
    for k in draw(st.lists(st.integers(0, len(ranked) - 2), max_size=3)):
        ranked[k], ranked[k + 1] = ranked[k + 1], ranked[k]
    return ComparativeOrder(n, ranked)


@settings(max_examples=300, deadline=None)
@given(perturbed_orders())
def test_validate_order_matches_brute_force(order):
    report = validate_order(order)
    assert report.ok == _union_consistent_by_brute_force(order)
    if report.ok:
        return
    pos = order.position
    if report.empty_set_witness is not None:
        assert report.triple is None and pos[0] != 0
        assert report.empty_set_witness.mask == order.ranked[0]
        return
    a, b, c = (s.mask for s in report.triple)
    assert c & (a | b) == 0
    assert pos[a] < pos[b] and not pos[a | c] < pos[b | c]
    # the witness comes from one atom map: C is a single atom, and A, B are
    # consecutive among the subsets avoiding it
    assert c.bit_count() == 1
    avoiding = [s for s in order.ranked if not s & c]
    assert avoiding.index(b) == avoiding.index(a) + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.integers(1, 10**6), min_size=n, max_size=n)
))
def test_subset_sums_match_per_mask_sums(entries):
    sums = subset_sums(entries)
    assert len(sums) == 1 << len(entries)
    for mask, total in enumerate(sums):
        assert total == sum(u for i, u in enumerate(entries) if mask >> i & 1)
