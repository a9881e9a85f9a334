"""Discrete cones, characteristic vectors, irreducible elements."""

import itertools
import random

import pytest

from cporders.cones import (
    DiscreteCone,
    _partner_masks,
    _partners_in,
    _ternary_tables,
    characteristic_vector,
    cone_from_order,
    irreducible_elements,
    pack_ternary,
    unpack_ternary,
)
from cporders.census import enumerate_orders
from cporders.errors import ConeAxiomError
from cporders.repro import random_utility_order
from cporders.orders import (
    Subset,
    lexicographic_utilities,
    maclagan_utilities,
    order_from_utilities,
)


def brute_force_irreducibles(cone):
    """Independent reducibility scan: try every ordered member pair."""
    members = [unpack_ternary(p, cone.n) for p in cone.packed_members()]
    member_set = set(members)
    out = set()
    for w in members:
        if all(e == 0 for e in w):
            continue
        reducible = False
        for u in members:
            if u == w or all(e == 0 for e in u):
                continue
            v = tuple(we - ue for we, ue in zip(w, u))
            if v == w or any(e not in (-1, 0, 1) for e in v):
                continue
            if v in member_set:
                reducible = True
                break
        if not reducible:
            out.add(w)
    return out


def disjoint_pair_members(order):
    """Packed members of the order's cone by a plain scan of the disjoint
    pairs: chi(A,B) for the one of A, B that ranks first."""
    n, full = order.n, 1 << order.n
    rank = order.position
    packed = {0}
    for a in range(full):
        for b in range(a + 1, full):
            if not a & b:
                packed.add(b << n | a if rank[a] < rank[b] else a << n | b)
    return packed


def member_tuples(cone):
    return {unpack_ternary(p, cone.n) for p in cone.packed_members()}


def d2_oracle(cone):
    """Of every nonzero vector and its negation exactly one is a member."""
    members = member_tuples(cone)
    return all(
        (v in members) != (tuple(-e for e in v) in members)
        for v in itertools.product((-1, 0, 1), repeat=cone.n)
        if any(v)
    )


def d3_oracle(cone):
    """Every ternary sum of two members is a member."""
    members = member_tuples(cone)
    for u, v in itertools.product(members, repeat=2):
        s = tuple(a + b for a, b in zip(u, v))
        if all(-1 <= e <= 1 for e in s) and s not in members:
            return False
    return True


def swapped_cone(cone, rng, swap):
    """A right-size cone: ``cone`` itself, or with one nonzero, non-basis
    member x replaced by -x ("negate": D2 still holds) or by -y for another
    member y ("other": y and -y are both members, so D2 fails)."""
    if swap is None:
        return cone
    n = cone.n
    basis = {(1 << i) << n for i in range(n)}
    packed = sorted(cone.packed_members())
    free = [p for p in packed if p and p not in basis]
    x = rng.choice(free)
    y = rng.choice([p for p in free if p != x]) if swap == "other" else x
    negated = (y & ((1 << n) - 1)) << n | y >> n
    return DiscreteCone(n, [p for p in packed if p != x] + [negated])


def unpack_ternary_index(k, n):
    """Entries of the vector with index k: digit i of k in base 3, minus 1."""
    entries = []
    for _ in range(n):
        k, digit = divmod(k, 3)
        entries.append(digit - 1)
    return tuple(entries)


class TestCharacteristicVector:
    def test_basis_case(self):
        assert characteristic_vector(Subset(0, 3), Subset.from_atoms([1], 3)) == (1, 0, 0)

    def test_disjoint_pair(self):
        a = Subset.from_atoms([1], 3)
        b = Subset.from_atoms([2], 3)
        assert characteristic_vector(a, b) == (-1, 1, 0)

    def test_two_against_one(self):
        a = Subset.from_atoms([1, 2], 3)
        b = Subset.from_atoms([3], 3)
        assert characteristic_vector(a, b) == (-1, -1, 1)

    def test_overlap_cancels(self):
        a = Subset.from_atoms([1, 2], 3)
        b = Subset.from_atoms([2, 3], 3)
        assert characteristic_vector(a, b) == (-1, 0, 1)

    def test_antisymmetry(self):
        a = Subset.from_atoms([1, 4], 4)
        b = Subset.from_atoms([2], 4)
        forward = characteristic_vector(a, b)
        assert characteristic_vector(b, a) == tuple(-e for e in forward)


class TestPacking:
    @pytest.mark.parametrize(
        "vec", [(1, 0, -1), (0, 0, 0), (-1, -1, -1), (1, 1, 1), (0, 1, -1)]
    )
    def test_roundtrip(self, vec):
        assert unpack_ternary(pack_ternary(vec, 3), 3) == vec


class TestConeFromOrder:
    def test_lexicographic_n2(self):
        cone = cone_from_order(order_from_utilities((1, 2)))
        expected = {(0, 0), (1, 0), (0, 1), (-1, 1), (1, 1)}
        assert {unpack_ternary(p, 2) for p in cone.packed_members()} == expected
        assert len(cone) == 5

    @pytest.mark.parametrize("utilities", [(1, 2, 4), (2, 3, 4), (5, 3, 9)])
    def test_size_n3(self, utilities):
        assert len(cone_from_order(order_from_utilities(utilities))) == 14

    @pytest.mark.parametrize("n", range(1, 7))
    def test_size_formula_and_axioms(self, n):
        cone = cone_from_order(order_from_utilities(lexicographic_utilities(n)))
        assert len(cone) == (3**n - 1) // 2 + 1
        assert cone.check_d2_exhaustive()
        assert cone.check_d3_exhaustive()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_disjoint_pair_oracle_on_census(self, n):
        for order in enumerate_orders(n, with_flags=False, with_edges=False).orders:
            assert cone_from_order(order).packed_members() == disjoint_pair_members(order)

    def test_matches_disjoint_pair_oracle_on_random_orders(self):
        rng = random.Random(678)
        for n in (6, 7, 8):
            for _ in range(5):
                order = random_utility_order(n, rng)
                assert cone_from_order(order).packed_members() == disjoint_pair_members(order)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_packed_members_round_trip(self, n):
        cone = cone_from_order(random_utility_order(n, random.Random(n)))
        packed = cone.packed_members()
        rebuilt = DiscreteCone(n, packed)
        assert rebuilt.packed_members() == packed
        assert len(rebuilt) == len(cone) == len(packed)
        assert all(p in rebuilt and p in cone for p in packed)
        assert irreducible_elements(rebuilt) == irreducible_elements(cone)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_non_ternary_ints_are_not_members(self, n):
        cone = cone_from_order(order_from_utilities(lexicographic_utilities(n)))
        overlap = 1 << n | 1  # atom 1 both positive and negative
        for stray in (1 << 2 * n, overlap, -1):
            assert stray not in cone
        assert 1 << n in cone  # e_1

    def test_rejects_non_cone(self):
        with pytest.raises(ConeAxiomError):
            DiscreteCone(2, [0])  # wrong size
        # right size but missing a basis vector
        bad = [0, pack_ternary((-1, 0), 2), pack_ternary((0, 1), 2), pack_ternary((1, 1), 2), pack_ternary((-1, 1), 2)]
        with pytest.raises(ConeAxiomError):
            DiscreteCone(2, bad)

    @pytest.mark.parametrize(
        "stray",
        [1 << 9, 1 << 4, 5, -1],
        ids=["beyond-2n-bits", "bit-2n", "pos-and-neg-overlap", "negative"],
    )
    def test_rejects_members_that_are_not_ternary(self, stray):
        # right size, holds 0 and both basis vectors; only the stray
        # member is malformed (5 sets atom 1 both positive and negative)
        with pytest.raises(ConeAxiomError, match="not a ternary vector"):
            DiscreteCone(2, [0, 4, 8, 3, stray])


class TestIrreducibles:
    def test_lexicographic_n3_exact(self):
        cone = cone_from_order(order_from_utilities((1, 2, 4)))
        irr = irreducible_elements(cone)
        assert irr == {(1, 0, 0), (-1, 1, 0), (-1, -1, 1)}

    def test_construction_five_atoms(self):
        cone = cone_from_order(order_from_utilities(maclagan_utilities(4)))
        assert len(irreducible_elements(cone)) == 8

    def test_zero_never_irreducible(self):
        cone = cone_from_order(order_from_utilities((1, 2, 4)))
        n3_zero = (0, 0, 0)
        assert n3_zero not in irreducible_elements(cone)

    @pytest.mark.parametrize(
        "utilities", [(1, 2), (1, 2, 4), (2, 3, 4), (1, 2, 4, 8), (3, 5, 14, 7)]
    )
    def test_matches_brute_force(self, utilities):
        cone = cone_from_order(order_from_utilities(utilities))
        assert irreducible_elements(cone) == brute_force_irreducibles(cone)

    def test_basis_vector_can_be_irreducible(self):
        cone = cone_from_order(order_from_utilities((1, 2, 4)))
        assert (1, 0, 0) in irreducible_elements(cone)


class TestAxiomChecks:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "swap, d2_holds, d3_breaks",
        [(None, True, False), ("negate", True, True), ("other", False, True)],
    )
    def test_checks_match_tuple_oracles(self, n, swap, d2_holds, d3_breaks):
        rng = random.Random(n)
        d2_seen, d3_seen = set(), set()
        for _ in range(25):
            cone = swapped_cone(cone_from_order(random_utility_order(n, rng)), rng, swap)
            d2, d3 = cone.check_d2_exhaustive(), cone.check_d3_exhaustive()
            assert d2 == d2_oracle(cone)
            assert d3 == d3_oracle(cone)
            d2_seen.add(d2)
            d3_seen.add(d3)
        assert d2_seen == {d2_holds}
        assert (False in d3_seen) == d3_breaks


class TestD3Tables:
    """``check_d3_exhaustive`` reads each member's partners off two tables
    per n split at digit n // 2; both must match the digit-by-digit mask."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_tabled_masks_match_partners_in(self, n):
        _, not_plus, not_minus = _ternary_tables(n)
        full = (1 << 3**n) - 1
        split = 3 ** (n // 2)
        low, high = _partner_masks(n, 0, n // 2), _partner_masks(n, n // 2, n)
        assert len(low) * len(high) == 3**n
        for k in range(3**n):
            pos, neg = 0, 0
            for i, digit in enumerate(unpack_ternary_index(k, n)):
                pos |= (digit == 1) << i
                neg |= (digit == -1) << i
            want = _partners_in(full, pos, neg, not_plus, not_minus)
            assert low[k % split] & high[k // split] == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_pairwise_oracle_on_swapped_cones(self, n):
        rng = random.Random(500 + n)
        seen = set()
        for swap in (None, "negate", "other"):
            for _ in range(6):
                cone = swapped_cone(cone_from_order(random_utility_order(n, rng)), rng, swap)
                d3 = cone.check_d3_exhaustive()
                assert d3 == d3_oracle(cone)
                seen.add((swap is None, d3))
        # real cones pass; some swapped ones fail (a swap may leave D3 intact)
        assert (True, False) not in seen and (False, False) in seen


class TestIrreduciblesAgainstBruteForce:
    def test_nonrepresentable_n5_orders(self, n5_census):
        orders = [o for o, r in zip(n5_census.orders, n5_census.representable) if not r]
        assert len(orders) == 30
        for order in orders:
            cone = cone_from_order(order)
            assert irreducible_elements(cone) == brute_force_irreducibles(cone)

    def test_random_six_atom_orders(self):
        rng = random.Random(6)
        for _ in range(20):
            cone = cone_from_order(random_utility_order(6, rng))
            assert irreducible_elements(cone) == brute_force_irreducibles(cone)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cone_breaking_d2_at_support_two(self, n):
        # a member x with two nonzero entries is replaced by -y for another
        # such member y: neither of +-x is a member and both of +-y are, so
        # the prune by members of support <= 2 meets both defects
        rng = random.Random(n)
        low = (1 << n) - 1
        for _ in range(10):
            cone = cone_from_order(random_utility_order(n, rng))
            packed = sorted(cone.packed_members())
            pairs = [p for p in packed if (p >> n | p & low).bit_count() == 2]
            x, y = rng.sample(pairs, 2)
            broken = DiscreteCone(n, [p for p in packed if p != x] + [(y & low) << n | y >> n])
            assert not broken.check_d2_exhaustive()
            assert irreducible_elements(broken) == brute_force_irreducibles(broken)

    def test_cone_breaking_d2(self):
        # -e_1 replaces (-1,1,0): both +-e_1 are members and neither of
        # +-(-1,1,0), so a kernel that read one sign off the other would err
        cone = cone_from_order(order_from_utilities((1, 2, 4)))
        x, y = pack_ternary((-1, 1, 0), 3), pack_ternary((-1, 0, 0), 3)
        assert x in cone and y not in cone
        broken = DiscreteCone(3, [p for p in cone.packed_members() if p != x] + [y])
        assert not broken.check_d2_exhaustive()
        irr = irreducible_elements(broken)
        assert irr == brute_force_irreducibles(broken)
        assert irr != irreducible_elements(cone)
