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

An order's member set is gathered, not looped over pair by pair:
``cone_from_order`` turns cached byte patterns of the sides of every index
above idx(0) into lanes of ranks with ``bytes.translate``, compares up to
3^7 lanes with one subtraction, and reads the lower half off D2.  The
irreducible elements are a 3^n-bit set as well (``_irreducible_bits``),
which the census compares with its flippable pairs as one int;
``irreducible_elements`` decodes it to tuples.  A survivor of the sweep
by small vectors gets its (pos, neg) masks from two tables of 3^(n/2)
digit halves and ANDs one 3^n-bit set per nonzero entry.  It reads no
per-n table of 3^n-bit sets, as D3 does: those tables (``_partner_masks``)
hold 3^(n/2) such sets per half, ~97 MB at 12 atoms, and would stay
cached for every n an irreducible count meets.

Vectors are exposed as tuples over {-1, 0, 1}, or packed as a pair of
bitmasks (positive part << n | negative part); a cone's packed members are
derived from its bit set on each request.
"""

from __future__ import annotations

import struct
from functools import cache
from itertools import combinations, compress, product
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
    """(index, keep, keep2) of every vector x with one or two nonzero
    entries: keep & keep2 is the set of y with x + y ternary, the
    ``not_plus`` set of each +1 entry of x and ``not_minus`` of each -1
    (the one entry's twice, for one nonzero entry)."""
    _, not_plus, not_minus = _ternary_tables(n)
    # (index offset, kept set) of the entries +1 and -1 at each atom
    atoms = [((3**i, not_plus[i]), (-(3**i), not_minus[i])) for i in range(n)]
    zero = 3**n // 2
    out = [(zero + d, keep, keep) for signs in atoms for d, keep in signs]
    for first, second in combinations(atoms, 2):
        for (d, keep), (d2, keep2) in product(first, second):
            out.append((zero + d + d2, keep, keep2))
    return tuple(out)


def _bit_text(bits: int, size: int) -> str:
    """``text[k]`` is bit k of ``bits`` as '0' or '1', for k < size.  Read
    as a binary numeral, the text is the negated set."""
    return format(bits, f"0{size}b")[::-1]


# bit text to bytes 0 and 1, the selectors ``compress`` reads, and flag
# bytes back to the bit text of a set and of its complement
_FLAG_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")
_NOT_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"10")


def _ternary_digits(count: int) -> tuple[list[int], list[int]]:
    """``pos[j]`` and ``neg[j]``: the masks of the +1 and of the -1 entries
    of the vector on ``count`` atoms with index j."""
    pos, neg = [0], [0]
    for i in range(count):
        # the new digit i is the most significant: 0, 1, 2 is entry -1, 0, +1
        bit = 1 << i
        pos = pos * 2 + [p | bit for p in pos]
        neg = [q | bit for q in neg] + neg * 2
    return pos, neg


def _packed_members(n: int, bits: int) -> Iterator[int]:
    """The packed vectors in the 3^n-bit set ``bits``, by index.  This
    builds a 3^n-entry table, so the cone build, irreducibles and the D3
    check never call it."""
    pos, neg = _ternary_digits(n)
    table = [p << n | q for p, q in zip(pos, neg)]  # table[k] has index k
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
    as ``_ternary_digits`` tables masks, one digit at a time."""
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


# The cone build gathers ranks into 3-byte lanes: the rank's low byte, its
# high byte, and a byte that the comparison clears and whose lowest bit it
# then uses as a guard.  Ranks stay below 2^MAX_ATOMS = 2^16, so one lane
# width serves every n.
_LANE = 3
# an index's low atoms (at most 7) pick its lane in a block; their masks m
# stay below 0x80, so a rank table holds the low byte of a rank at m and
# its high byte at 0x80 | m
_BLOCK_ATOMS = 7
_HIGH = 0x80


@cache
def _lane_patterns(b: int) -> tuple[bytes, ...]:
    """The lane patterns of the -1 masks and of the +1 masks of the 3^b
    vectors on b atoms, in index order (the same for every n >= b): one
    lane [m, 0x80 | m, 0x80] per mask m, which a rank table turns into the
    low and the high byte of the rank, then a byte the comparison clears
    (the high byte of another rank)."""
    pos, neg = _ternary_digits(b)
    patterns = []
    for masks in (neg, pos):
        lanes = bytearray([_HIGH]) * (_LANE * len(masks))
        lanes[::_LANE] = bytes(masks)
        lanes[1::_LANE] = bytes(_HIGH | m for m in masks)
        patterns.append(bytes(lanes))
    return tuple(patterns)


@cache
def _lane_masks(count: int) -> tuple[int, int]:
    """The rank bytes and the guard bit (bit 16) of ``count`` lanes."""
    ranks = int.from_bytes(b"\xff\xff\x00" * count, "little")
    return ranks, int.from_bytes(b"\x00\x00\x01" * count, "little")


def _before(lanes_a: int, lanes_b: int, count: int) -> bytes:
    """Byte j is 1 where rank j of ``lanes_a`` is at most rank j of
    ``lanes_b``, else 0, for ``count`` lanes whose low two bytes hold a
    rank (below 2^16) and whose third byte is ignored.  With the third
    bytes cleared, lane j of (B | guards) - A holds 2^16 + rank_b -
    rank_a, in [1, 2^17), so no lane borrows from the next and its third
    byte is the guard bit."""
    ranks, guards = _lane_masks(count)
    diff = (lanes_b & ranks | guards) - (lanes_a & ranks)
    return diff.to_bytes(_LANE * count, "little")[_LANE - 1 :: _LANE]


def cone_from_order(order: ComparativeOrder) -> DiscreteCone:
    """The cone {chi(A,B) : A <= B} of a comparative probability order.

    The vector with -1 entries A and +1 entries B (disjoint) is chi(A, B),
    a member iff A ranks before B.  Only the indices above idx(0) are
    compared, a block of up to 3^7 at a time.  A block fixes A and B on
    the high atoms, so ``bytes.translate`` through the rank tables of those
    two masks turns the cached low-atom masks of A, and of B, into lanes of
    ranks, and ``_before`` compares them all with one subtraction.  The
    indices below idx(0) hold the negations of those above, members iff
    those are not (D2), so the rest of the bit text is the upper half
    reversed and complemented.
    """
    n = order.n
    # the low b atoms of index k spell its lane, k mod 3^b, and the other
    # atoms its block, k div 3^b
    b = min(n, _BLOCK_ATOMS)
    whole = _lane_patterns(b)
    past = _LANE * (3**b // 2 + 1)  # where the lanes past idx(0) start
    tail = [lanes[past:] for lanes in whole]
    high_pos, high_neg = _ternary_digits(n - b)
    raw = struct.pack(f"<{1 << n}H", *order.position)
    low, high = raw[::2], raw[1::2]
    # table h holds the ranks of the masks h << b | m
    step = 1 << b
    tables = [
        low[start : start + step].ljust(_HIGH, b"\x00")
        + high[start : start + step].ljust(_HIGH, b"\x00")
        for start in range(0, 1 << n, step)
    ]
    first = len(high_pos) // 2  # the block holding idx(0)
    upper = []  # byte k - idx(0) - 1 is 1 iff index k is a member
    for h in range(first, len(high_pos)):
        neg_lanes, pos_lanes = tail if h == first else whole
        lanes_a = int.from_bytes(neg_lanes.translate(tables[high_neg[h]]), "little")
        lanes_b = int.from_bytes(pos_lanes.translate(tables[high_pos[h]]), "little")
        upper.append(_before(lanes_a, lanes_b, len(neg_lanes) // _LANE))
    flags = b"".join(upper)
    # read as a binary numeral, bit k of the text is text[3^n - 1 - k]
    text = flags.translate(_BIT_CHARS)[::-1] + b"1" + flags.translate(_NOT_BIT_CHARS)
    cone = DiscreteCone.__new__(DiscreteCone)
    try:
        cone._store(n, int(text, 2))
    except ConeAxiomError as exc:  # pragma: no cover - constructor invariants
        raise ConeAxiomError(f"order does not induce a discrete cone: {exc}") from exc
    return cone


@cache
def _digit_halves(n: int) -> tuple[tuple[list[int], list[int]], tuple[list[int], list[int]]]:
    """``_ternary_digits`` of the low n // 2 atoms and of the others."""
    return _ternary_digits(n // 2), _ternary_digits(n - n // 2)


def _vectors_in(n: int, bits: int) -> Iterator[tuple[int, int, int]]:
    """(k, pos, neg) for each index k in the 3^n-bit set ``bits``,
    ascending: the +1 and -1 masks of the vector, read off the tables of
    the low n // 2 digits and of the rest."""
    half = n // 2
    split = 3**half
    (low_pos, low_neg), (high_pos, high_neg) = _digit_halves(n)
    text = bin(bits)[:1:-1]  # text[k] is bit k
    k = text.find("1")
    while k >= 0:
        h, j = divmod(k, split)
        yield k, low_pos[j] | high_pos[h] << half, low_neg[j] | high_neg[h] << half
        k = text.find("1", k + 1)


def _irreducible_bits(cone: DiscreteCone) -> int:
    """The 3^n-bit set of the nonzero members that are not sums of two
    other members.

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
    for k, keep, keep2 in _small_vectors(n):
        if text[k] == "1":
            reducible |= _translate(nonzero & keep & keep2, k - zero)
    negated = int(text, 2) & ~(1 << zero)
    irreducible = survivors = nonzero & ~reducible
    for k, pos, neg in _vectors_in(n, survivors):
        partners = _partners_in(negated, pos, neg, not_plus, not_minus)
        if _translate(partners, k - zero) & nonzero:
            irreducible ^= 1 << k
    return irreducible


def irreducible_elements(cone: DiscreteCone) -> frozenset[TernaryVector]:
    """All nonzero members that are not sums of two other members (see
    ``_irreducible_bits``), as tuples."""
    n = cone.n
    return frozenset(
        unpack_ternary(pos << n | neg, n) for _, pos, neg in _vectors_in(n, _irreducible_bits(cone))
    )
