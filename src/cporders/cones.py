"""Discrete cones: the sets of {-1,0,+1}-vectors that encode a comparative
probability order through the signs chi(A,B) = chi_B - chi_A of its
comparisons, and their irreducible (non-decomposable) elements.

A set of vectors is stored as one 3^n-bit integer: vector x has index
idx(x) = sum_i (x_i + 1) 3^i, and bit idx(x) is set when x is in the set.
Negation reverses the bits, since idx(-x) = 3^n - 1 - idx(x).  When x + y
stays ternary, idx(x + y) = idx(x) + idx(y) - idx(0) with no carries, so
shifting the set of those y by idx(x) - idx(0) gives exactly the set of sums
{x + y}.  The D2 and D3 checks and irreducibility take a few big-integer
operations per vector, not a loop over member pairs.

Vectors are exposed as tuples over {-1, 0, 1}, or packed as a pair of
bitmasks (positive part << n | negative part); a cone's packed members are
derived from its bit set on each request.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, compress
from typing import Iterable, Iterator

from .errors import ConeAxiomError
from .orders import ComparativeOrder, Subset, subset_sums

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
    weight = subset_sums([3**i for i in range(n)])
    not_plus, not_minus = [], []
    for i in range(n):
        # digit i runs 0, 1, 2 (entry -1, 0, +1) in blocks of 3^i
        block, period = 3**i, 3 ** (i + 1)
        repeat = ((1 << 3**n) - 1) // ((1 << period) - 1)
        two_blocks = (1 << 2 * block) - 1
        not_plus.append(two_blocks * repeat)
        not_minus.append((two_blocks << block) * repeat)
    return weight, not_plus, not_minus


@cache
def _small_vectors(n: int) -> tuple[tuple[int, int, int], ...]:
    """(index, pos, neg) of every vector with one or two nonzero entries."""
    weight = _ternary_tables(n)[0]
    zero = weight[-1]
    atoms = [1 << i for i in range(n)]
    out = []
    for support in atoms + [a | b for a, b in combinations(atoms, 2)]:
        low = support & -support
        # each split of the support into +1 and -1 entries (two for one atom)
        for pos in {0, low, support ^ low, support}:
            neg = support ^ pos
            out.append((zero + weight[pos] - weight[neg], pos, neg))
    return tuple(out)


def _bit_text(bits: int, size: int) -> str:
    """``text[k]`` is bit k of ``bits`` as '0' or '1', for k < size.  Read
    as a binary numeral, the text is the negated set."""
    return format(bits, f"0{size}b")[::-1]


# bit text to bytes 0 and 1, the selectors ``compress`` reads
_FLAG_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _packed_members(n: int, bits: int) -> Iterator[int]:
    """The packed vectors in the 3^n-bit set ``bits``, by index.  This
    builds a 3^n-entry table, so the cone build, irreducibles and the D3
    check never call it."""
    table = [0]  # table[k] is the packed vector with index k
    for i in range(n):
        # the new digit i is the most significant: 0, 1, 2 is entry -1, 0, +1
        neg, pos = 1 << i, 1 << n + i
        table = [p | neg for p in table] + table + [p | pos for p in table]
    return compress(table, _bit_text(bits, 3**n).encode().translate(_FLAG_BYTES))


def _partners_in(bits: int, pos: int, neg: int, not_plus: list[int], not_minus: list[int]) -> int:
    """The indices y in ``bits`` for which x + y stays ternary, x packed as
    (pos, neg): y_i != +1 where x_i = +1 and y_i != -1 where x_i = -1."""
    i = 0
    while pos or neg:
        if pos & 1:
            bits &= not_plus[i]
        elif neg & 1:
            bits &= not_minus[i]
        pos >>= 1
        neg >>= 1
        i += 1
    return bits


@cache
def _partner_masks(n: int, first: int, last: int) -> tuple[int, ...]:
    """``masks[j]`` is the 3^n-bit set of the y with x + y ternary in
    digits first..last - 1, for every x whose digits there spell j in base
    3 (digit first lowest); the other digits of x do not matter.  Tabled
    as ``_packed_members`` tables vectors, one digit at a time."""
    _, not_plus, not_minus = _ternary_tables(n)
    masks = [(1 << 3**n) - 1]
    for i in range(first, last):
        # digit i of x is 0, 1, 2 (entry -1, 0, +1) in blocks of the table so far
        masks = [m & not_minus[i] for m in masks] + masks + [m & not_plus[i] for m in masks]
    return tuple(masks)


def _translate(bits: int, offset: int) -> int:
    return bits << offset if offset >= 0 else bits >> -offset


class DiscreteCone:
    """A set of ternary vectors satisfying

    D1: all standard basis vectors are members;
    D2: of every vector and its negation, exactly one is a member;
    D3: membership is closed under addition when the sum stays ternary.

    The members are stored as one 3^n-bit set (bit idx(x) for member x);
    ``packed_members`` derives the packed ints from it on each call.
    D1 and the size implied by D2 (0 is a member, plus one of each +-pair)
    are always enforced at construction, and the constructor also checks
    that every packed member it is given is a ternary vector (it fits 2n
    bits and its positive and negative parts are disjoint).  The exhaustive
    checks are separate methods on the member set: D2 compares it with its
    negation, D3 makes one masked shift of it per member.
    """

    __slots__ = ("n", "_bits")

    def __init__(self, n: int, packed_members: Iterable[int]):
        packed = frozenset(packed_members)
        limit = 1 << 2 * n
        bad = next((p for p in packed if not 0 <= p < limit or p >> n & p), None)
        if bad is not None:
            raise ConeAxiomError(f"packed member {bad} is not a ternary vector on {n} atoms")
        weight = _ternary_tables(n)[0]
        low = (1 << n) - 1
        zero = weight[low]
        flags = bytearray(b"0") * 3**n
        for p in packed:
            # flags[k] lands on bit 3^n - 1 - k, so flag the negated index
            flags[zero - weight[p >> n] + weight[p & low]] = 49  # ord("1")
        self._store(n, int(flags, 2))

    def _store(self, n: int, bits: int) -> None:
        """Keep the 3^n-bit member set once D1 and the size implied by D2
        (0 plus one of each +-pair) hold on it."""
        expected = (3**n - 1) // 2 + 1
        count = bits.bit_count()
        if count != expected:
            raise ConeAxiomError(f"cone on {n} atoms must have {expected} members, got {count}")
        zero = 3**n // 2
        if not bits >> zero & 1:
            raise ConeAxiomError("zero vector missing (violates D2)")
        for i in range(n):
            if not bits >> zero + 3**i & 1:
                raise ConeAxiomError(f"basis vector e_{i + 1} missing (violates D1)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteCone is immutable")

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __contains__(self, vector) -> bool:
        n = self.n
        if not isinstance(vector, int):
            vector = pack_ternary(vector, n)
        elif not 0 <= vector < 1 << 2 * n or vector >> n & vector:
            return False
        weight = _ternary_tables(n)[0]
        index = 3**n // 2 + weight[vector >> n] - weight[vector & ((1 << n) - 1)]
        return bool(self._bits >> index & 1)

    def packed_members(self) -> frozenset[int]:
        return frozenset(_packed_members(self.n, self._bits))

    def check_d2_exhaustive(self) -> bool:
        """Every vector in {-1,0,1}^n or its negation is a member, never both:
        the members and their negations meet only in 0 and cover all 3^n
        indices."""
        size = 3**self.n
        members = self._bits
        negated = int(_bit_text(members, size), 2)
        return members & negated == 1 << size // 2 and members | negated == (1 << size) - 1

    def check_d3_exhaustive(self) -> bool:
        """All member pairs whose sum stays ternary have the sum inside.

        For each member x, the members y with x + y ternary, shifted by
        idx(x) - idx(0), are exactly the sums x + y; none may fall outside.
        The y with x + y ternary are read off two tables per n, one for the
        low n // 2 digits of idx(x) and one for the rest, each 3^(n/2) sets
        of 3^n bits.
        """
        n = self.n
        size = 3**n
        zero, split = size // 2, 3 ** (n // 2)
        low, high = _partner_masks(n, 0, n // 2), _partner_masks(n, n // 2, n)
        members = self._bits
        outside = ~members
        text = _bit_text(members, size)
        k = text.find("1")
        while k >= 0:
            partners = members & low[k % split] & high[k // split]
            if _translate(partners, k - zero) & outside:
                return False
            k = text.find("1", k + 1)
        return True


def cone_from_order(order: ComparativeOrder) -> DiscreteCone:
    """The cone {chi(A,B) : A <= B} of a comparative probability order.

    Only disjoint pairs are enumerated: chi(A,B) = chi(A\\B, B\\A), so each
    nonzero ternary vector is realised by exactly one disjoint pair {a, b}
    and the full 4^n pair scan would revisit the same images.  The pair is
    met once, with b > a, as the submasks of the complement of a are walked
    downwards.  Each member's flag goes straight into the 3^n-bit set.
    """
    n = order.n
    full = 1 << n
    weight = _ternary_tables(n)[0]
    rank = order.position
    zero = 3**n // 2
    flags = bytearray(b"0") * 3**n
    # flags[k] lands on bit 3^n - 1 - k, the index of the negated vector:
    # A before B makes chi(A,B) a member, flagged at idx(-chi(A,B)) =
    # idx(0) + weight[a] - weight[b]
    flags[zero] = 49  # ord("1")
    for a in range(full):
        comp = full - 1 - a
        ra = rank[a]
        before, after = zero + weight[a], zero - weight[a]
        b = comp
        while b > a:
            flags[before - weight[b] if ra < rank[b] else after + weight[b]] = 49
            b = (b - 1) & comp
    cone = DiscreteCone.__new__(DiscreteCone)
    try:
        cone._store(n, int(flags, 2))
    except ConeAxiomError as exc:  # pragma: no cover - constructor invariants
        raise ConeAxiomError(f"order does not induce a discrete cone: {exc}") from exc
    return cone


def irreducible_elements(cone: DiscreteCone) -> frozenset[TernaryVector]:
    """All nonzero members that are not sums of two other members.

    w = u + v with members u, v other than w means u and v are both
    nonzero.  The members v with one or two nonzero entries settle most
    members at once: shifting the nonzero members y with v + y ternary by
    idx(v) - idx(0) gives sums v + y, which are reducible.  For each
    remaining w, the set {-v : v a nonzero member with w - v ternary},
    shifted by idx(w) - idx(0), is exactly {w - v}; w is reducible iff it
    meets the nonzero members.  Only membership is read, so D2 is not
    assumed.
    """
    n = cone.n
    _, not_plus, not_minus = _ternary_tables(n)
    size = 3**n
    zero = size // 2
    members = cone._bits
    text = _bit_text(members, size)
    nonzero = members & ~(1 << zero)
    reducible = 0
    for k, pos, neg in _small_vectors(n):
        if text[k] == "1":
            partners = _partners_in(nonzero, pos, neg, not_plus, not_minus)
            reducible |= _translate(partners, k - zero)
    negated = int(text, 2) & ~(1 << zero)
    survivors = bin(nonzero & ~reducible)[:1:-1]  # survivors[k] is bit k
    result = []
    k = survivors.find("1")
    while k >= 0:
        pos = neg = 0
        rest = k
        for i in range(n):
            rest, digit = divmod(rest, 3)
            if digit == 2:
                pos |= 1 << i
            elif digit == 0:
                neg |= 1 << i
        partners = _partners_in(negated, pos, neg, not_plus, not_minus)
        if not _translate(partners, k - zero) & nonzero:
            result.append(unpack_ternary(pos << n | neg, n))
        k = survivors.find("1", k + 1)
    return frozenset(result)
