"""Discrete cones: the sets of {-1,0,+1}-vectors that encode a comparative
probability order through the signs chi(A,B) = chi_B - chi_A of its
comparisons, and their irreducible (non-decomposable) elements.

Vectors are exposed as tuples over {-1, 0, 1} but stored packed as a pair of
bitmasks (positive part << n | negative part).  Sums are tested in a base-3
view: x has index idx(x) = sum_i (x_i + 1) 3^i, and a set of vectors is a
3^n-bit integer.  When x + y stays ternary, idx(x + y) = idx(x) + idx(y) -
idx(0) with no carries, so shifting the set of those y by idx(x) - idx(0)
gives exactly the set of sums {x + y}.  The D2 and D3 checks and
irreducibility take a few big-integer operations per vector, not a loop
over member pairs.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

from .errors import ConeAxiomError
from .orders import ComparativeOrder, Subset

TernaryVector = tuple[int, ...]


def pack_ternary(vector: TernaryVector, n: int) -> int:
    pos = neg = 0
    if len(vector) != n:
        raise ValueError(f"expected {n} entries, got {len(vector)}")
    for i, entry in enumerate(vector):
        if entry == 1:
            pos |= 1 << i
        elif entry == -1:
            neg |= 1 << i
        elif entry != 0:
            raise ValueError(f"entries must be -1, 0 or 1, got {entry}")
    return pos << n | neg


def unpack_ternary(packed: int, n: int) -> TernaryVector:
    pos, neg = packed >> n, packed & ((1 << n) - 1)
    return tuple((pos >> i & 1) - (neg >> i & 1) for i in range(n))


def characteristic_vector(a: Subset, b: Subset) -> TernaryVector:
    """chi(A,B) = chi_B - chi_A: +1 on B\\A, -1 on A\\B, 0 elsewhere.

    A and B need not be disjoint; common atoms cancel to 0.
    """
    if a.n != b.n:
        raise ValueError("subsets live in different universes")
    pos, neg = b.mask & ~a.mask, a.mask & ~b.mask
    return unpack_ternary(pos << a.n | neg, a.n)


@cache
def _ternary_tables(n: int) -> tuple[list[int], list[int], list[int]]:
    """Base-3 tables for n atoms.

    ``weight[m]`` is the sum of 3^i over the atoms i in mask m, so packed
    (pos, neg) has index idx(0) + weight[pos] - weight[neg], with idx(0) =
    weight[2^n - 1].  ``not_plus[i]`` and ``not_minus[i]`` are the 3^n-bit
    sets of indices whose entry i is not +1, and not -1.
    """
    weight = [0]
    for i in range(n):
        weight += [w + 3**i for w in weight]
    not_plus, not_minus = [], []
    for i in range(n):
        # digit i runs 0, 1, 2 (entry -1, 0, +1) in blocks of 3^i
        block, period = 3**i, 3 ** (i + 1)
        repeat = ((1 << 3**n) - 1) // ((1 << period) - 1)
        two_blocks = (1 << 2 * block) - 1
        not_plus.append(two_blocks * repeat)
        not_minus.append((two_blocks << block) * repeat)
    return weight, not_plus, not_minus


def _index_sets(n: int, packed: Iterable[int]) -> tuple[int, int]:
    """The indices of the packed vectors, and of their negations, as
    3^n-bit sets."""
    weight = _ternary_tables(n)[0]
    low = (1 << n) - 1
    zero = weight[low]
    flags = bytearray(b"0" * 3**n)
    for p in packed:
        flags[zero + weight[p >> n] - weight[p & low]] = 49  # ord("1")
    # flags[k] is the flag of index k; read forwards it lands on bit
    # 3^n - 1 - k, the index of the negated vector
    return int(flags[::-1], 2), int(flags, 2)


def _ternary_partners(pos: int, neg: int, not_plus: list[int], not_minus: list[int]) -> int:
    """The indices y for which x + y stays ternary, x packed as (pos, neg):
    y_i != +1 where x_i = +1 and y_i != -1 where x_i = -1 (-1 when x = 0)."""
    partners = -1
    i = 0
    while pos or neg:
        if pos & 1:
            partners &= not_plus[i]
        elif neg & 1:
            partners &= not_minus[i]
        pos >>= 1
        neg >>= 1
        i += 1
    return partners


def _translate(bits: int, offset: int) -> int:
    return bits << offset if offset >= 0 else bits >> -offset


class DiscreteCone:
    """A set of ternary vectors satisfying

    D1: all standard basis vectors are members;
    D2: of every vector and its negation, exactly one is a member;
    D3: membership is closed under addition when the sum stays ternary.

    D1, the size implied by D2 (0 is a member, plus one of each +-pair) and
    that every packed member is a ternary vector (it fits 2n bits and its
    positive and negative parts are disjoint) are always enforced at
    construction.  The exhaustive checks are separate methods on the
    3^n-bit member set: D2 compares it with its negation, D3 makes one
    masked shift of it per member.
    """

    __slots__ = ("n", "_packed")

    def __init__(self, n: int, packed_members: Iterable[int]):
        packed = frozenset(packed_members)
        expected = (3**n - 1) // 2 + 1
        if len(packed) != expected:
            raise ConeAxiomError(
                f"cone on {n} atoms must have {expected} members, got {len(packed)}"
            )
        limit = 1 << 2 * n
        bad = next((p for p in packed if not 0 <= p < limit or p >> n & p), None)
        if bad is not None:
            raise ConeAxiomError(f"packed member {bad} is not a ternary vector on {n} atoms")
        if 0 not in packed:
            raise ConeAxiomError("zero vector missing (violates D2)")
        for i in range(n):
            if (1 << i) << n not in packed:
                raise ConeAxiomError(f"basis vector e_{i + 1} missing (violates D1)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_packed", packed)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteCone is immutable")

    def __len__(self) -> int:
        return len(self._packed)

    def __contains__(self, vector) -> bool:
        if isinstance(vector, int):
            return vector in self._packed
        return pack_ternary(vector, self.n) in self._packed

    def packed_members(self) -> frozenset[int]:
        return self._packed

    def check_d2_exhaustive(self) -> bool:
        """Every vector in {-1,0,1}^n or its negation is a member, never both:
        the members and their negations meet only in 0 and cover all 3^n
        indices."""
        members, negated = _index_sets(self.n, self._packed)
        zero = _ternary_tables(self.n)[0][-1]
        return members & negated == 1 << zero and members | negated == (1 << 3**self.n) - 1

    def check_d3_exhaustive(self) -> bool:
        """All member pairs whose sum stays ternary have the sum inside.

        For each member x, the members y with x + y ternary, shifted by
        idx(x) - idx(0), are exactly the sums x + y; none may fall outside.
        """
        n = self.n
        weight, not_plus, not_minus = _ternary_tables(n)
        low = (1 << n) - 1
        members = _index_sets(n, self._packed)[0]
        outside = ~members
        for x in self._packed:
            pos, neg = x >> n, x & low
            partners = members & _ternary_partners(pos, neg, not_plus, not_minus)
            if _translate(partners, weight[pos] - weight[neg]) & outside:
                return False
        return True


def cone_from_order(order: ComparativeOrder) -> DiscreteCone:
    """The cone {chi(A,B) : A <= B} of a comparative probability order.

    Only disjoint pairs are enumerated: chi(A,B) = chi(A\\B, B\\A), so each
    nonzero ternary vector is realised by exactly one disjoint pair and the
    full 4^n pair scan would revisit the same images.
    """
    n = order.n
    full = 1 << n
    pos = order.position
    packed = [0]
    for a in range(full):
        comp = ~a & (full - 1)
        b = comp
        while b:
            if b > a:
                if pos[a] < pos[b]:
                    packed.append(b << n | a)
                else:
                    packed.append(a << n | b)
            b = (b - 1) & comp
    try:
        return DiscreteCone(n, packed)
    except ConeAxiomError as exc:  # pragma: no cover - constructor invariants
        raise ConeAxiomError(f"order does not induce a discrete cone: {exc}") from exc


def irreducible_elements(cone: DiscreteCone) -> frozenset[TernaryVector]:
    """All nonzero members that are not sums of two other members.

    w = u + v with members u, v other than w means u and v are both
    nonzero.  A basis vector settles most members: w - e_i is a nonzero
    member for some i with w_i != -1, found for every w at once by shifting
    the nonzero members by 3^i.  For each remaining w, the set
    {-v : v a nonzero member with w - v ternary}, shifted by
    idx(w) - idx(0), is exactly {w - v}; w is reducible iff it meets the
    nonzero members.  Only membership is read, so D2 is not assumed.
    """
    n = cone.n
    weight, not_plus, not_minus = _ternary_tables(n)
    zero = weight[-1]
    members, negated = _index_sets(n, cone.packed_members())
    nonzero = members & ~(1 << zero)
    negated &= ~(1 << zero)
    by_basis = 0
    for i in range(n):
        by_basis |= (nonzero << 3**i) & not_minus[i]
    bits = bin(nonzero & ~by_basis)[:1:-1]  # bits[k] is bit k
    result = []
    k = bits.find("1")
    while k >= 0:
        pos = neg = 0
        rest = k
        for i in range(n):
            rest, digit = divmod(rest, 3)
            if digit == 2:
                pos |= 1 << i
            elif digit == 0:
                neg |= 1 << i
        partners = negated & _ternary_partners(pos, neg, not_plus, not_minus)
        if not _translate(partners, k - zero) & nonzero:
            result.append(unpack_ternary(pos << n | neg, n))
        k = bits.find("1", k + 1)
    return frozenset(result)
