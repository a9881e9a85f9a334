"""Subsets of [n] as bitmasks, comparative probability orders, their
validation, and the classic integer-utility constructions
(binary/lexicographic weights, odd-value insertion) used to build orders
with many flippable pairs.

An order is built from its ranked masks alone: the constructor checks, at
builtin speed, that they are a permutation of all 2^n masks, and the
inverse (rank by mask) is built on first read of ``position``, so an order
that is only compared or hashed never pays for it.  Flips and laned copies
skip that check through the private ``_from_permutation``: their ranked
masks come from an order that passed it, by swaps of ranks or unchanged,
and so are a permutation already.

An order is validated by single-atom monotonicity: union consistency holds
iff S -> S|{c} is increasing for every atom c, and the first atom map that
is not names a violating triple.

Atoms are labelled 1..n; atom i corresponds to bit i-1 of a mask.  Everything
is exact integer arithmetic; n is capped at 16 so a subset always fits a
machine word, while utilities themselves may be arbitrarily large.

Order files (and the ';'-joined lines of census and checkpoint records)
hold n, then one subset per line, smallest first, each written by
:meth:`Subset.to_text`.  Text goes through two tables cached per n:
``_subset_texts(n)`` holds every mask's text, built by doubling as
``subset_sums`` is, and ``_text_masks(n)`` is its inverse.  Writing is one
index per line; reading is a dict lookup per stripped line, and only a
line the table lacks (``3,1``, ``1 , 2``, ``01`` or a malformed one) goes
through ``_mask_from_text``, which defines what the format accepts and
names the first bad line.  Atoms and the atom count are ASCII decimal
digits; a sign, an underscore or a non-ASCII digit is malformed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import lt, mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DuplicateError, NotSortedError, TieError, VerificationError
from .sequences import q_value

MAX_ATOMS = 16


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_ATOMS:
        raise ValueError(f"atom count must be in 1..{MAX_ATOMS}, got {n}")


@dataclass(frozen=True, order=True)
class Subset:
    """A subset of [n] encoded as an n-bit mask (bit i-1 set <=> atom i in A)."""

    mask: int
    n: int

    def __post_init__(self):
        _check_n(self.n)
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask} out of range for n={self.n}")

    @classmethod
    def from_atoms(cls, atoms: Iterable[int], n: int) -> "Subset":
        return cls(_mask_from_atoms(atoms, n), n)

    @property
    def atoms(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, atom: int) -> bool:
        return 1 <= atom <= self.n and bool(self.mask >> (atom - 1) & 1)

    def union(self, other: "Subset") -> "Subset":
        return Subset(self.mask | other.mask, self.n)

    def complement(self) -> "Subset":
        return Subset(~self.mask & ((1 << self.n) - 1), self.n)

    def to_text(self) -> str:
        """Comma-separated ascending atom list, '-' for the empty set."""
        return ",".join(map(str, self.atoms)) if self.mask else "-"

    @classmethod
    def from_text(cls, text: str, n: int) -> "Subset":
        return cls(_mask_from_text(text, n), n)

    def __repr__(self) -> str:
        return f"Subset({{{self.to_text()}}}, n={self.n})"


def _mask_from_atoms(atoms: Iterable[int], n: int) -> int:
    """Mask of a list of atoms; checks, in order, that each is an int (a
    bool is not), that none repeats and that each lies in 1..n."""
    atoms = list(atoms)
    if not all(isinstance(a, int) and not isinstance(a, bool) for a in atoms):
        raise ValueError(f"atoms must be ints, got {atoms!r}")
    if len(set(atoms)) != len(atoms):
        raise ValueError(f"repeated atom in subset {','.join(map(str, atoms))!r}")
    mask = 0
    for a in atoms:
        if not 1 <= a <= n:
            raise ValueError(f"atom {a} outside universe [1..{n}]")
        mask |= 1 << (a - 1)
    return mask


def _decimal(token: str) -> int:
    """Value of a token of ASCII decimal digits, ``01`` included; ValueError
    for what else ``int()`` takes, such as ``+1``, ``0_1`` or ``\u0661``."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a decimal number: {token!r}")
    return int(token)


def _mask_from_text(text: str, n: int) -> int:
    """Mask of a subset written as by :meth:`Subset.to_text`; the atoms
    must parse, then pass :func:`_mask_from_atoms`."""
    text = text.strip()
    if text == "-":
        return 0
    try:
        atoms = [_decimal(tok.strip()) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse subset {text!r}") from None
    return _mask_from_atoms(atoms, n)


def subset_sums(utilities: Sequence[int]) -> list[int]:
    """Utility of every subset of [n], indexed by mask.

    sums[m] = sum of utilities[i] over set bits i of m, built by doubling:
    the masks with bit i set are those below 1 << i plus utilities[i], so
    each entry costs one addition inside a list comprehension.
    """
    _check_n(len(utilities))
    sums = [0]
    for u in utilities:
        sums += [s + u for s in sums]
    return sums


def check_utilities(utilities: Sequence[int]) -> tuple[int, ...]:
    u = tuple(utilities)
    _check_n(len(u))
    for value in u:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"utilities must be integers, got {value!r}")
        if value <= 0:
            raise ValueError(f"utilities must be strictly positive, got {value}")
    return u


@cache
def _all_masks(n: int) -> frozenset[int]:
    return frozenset(range(1 << n))


class ComparativeOrder:
    """A linear order on all 2^n subsets of [n], smallest first.

    Stored as the ranked sequence of masks.  Three private caches take no
    part in equality, hashing or pickling: ``_position``, the inverse rank
    by mask, built on first read of ``position``; ``_lanes``, the order's
    rank lanes (see ``_laned_copy``) when something attached them; and
    ``_flippable``, an int whose bit k marks a flippable pair at ranks k
    and k + 1, filled by ``flips._flippable_masks`` on first use.  A laned
    copy shares the first and the last; a flip's result starts without
    them.  Construction only checks that ``ranked`` is a permutation of all
    masks; the semantic axioms are checked by :func:`validate_order`.
    ``_from_permutation`` skips that check for flips and laned copies,
    whose ranked masks come from a checked order by swaps of ranks or
    unchanged.  Instances are immutable and hashable.
    """

    __slots__ = ("n", "ranked", "_position", "_lanes", "_flippable")

    def __init__(self, n: int, ranked: Sequence[int]):
        _check_n(n)
        full = 1 << n
        ranked = tuple(ranked)
        # equal length and equal sets: no mask repeats and none is missing
        if len(ranked) != full or _all_masks(n) != set(ranked):
            raise ValueError(f"ranked must be a permutation of 0..{full - 1}")
        self._set_slots(n, ranked)

    @classmethod
    def _from_permutation(cls, n: int, ranked: tuple[int, ...]) -> "ComparativeOrder":
        """The order of ``ranked``, a tuple known to be a permutation of all
        2^n masks, built without checking that again."""
        return cls.__new__(cls)._set_slots(n, ranked)

    def _set_slots(self, n: int, ranked: tuple[int, ...]) -> "ComparativeOrder":
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ranked", ranked)
        object.__setattr__(self, "_position", None)
        object.__setattr__(self, "_lanes", None)
        object.__setattr__(self, "_flippable", None)
        return self

    @property
    def position(self) -> tuple[int, ...]:
        """Rank of every mask, indexed by mask."""
        position = self._position
        if position is None:
            inverse = [0] * len(self.ranked)
            for rank, mask in enumerate(self.ranked):
                inverse[mask] = rank
            position = tuple(inverse)
            object.__setattr__(self, "_position", position)
        return position

    def __setattr__(self, name, value):
        raise AttributeError("ComparativeOrder is immutable")

    def rank(self, subset: "Subset | int") -> int:
        mask = subset.mask if isinstance(subset, Subset) else subset
        return self.position[mask]

    def subset_at(self, rank: int) -> Subset:
        return Subset(self.ranked[rank], self.n)

    def subsets(self) -> Iterator[Subset]:
        for mask in self.ranked:
            yield Subset(mask, self.n)

    def precedes(self, a: "Subset | int", b: "Subset | int") -> bool:
        return self.rank(a) < self.rank(b)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ComparativeOrder)
            and self.n == other.n
            and self.ranked == other.ranked
        )

    def __hash__(self) -> int:
        return hash((self.n, self.ranked))

    def __reduce__(self):
        return (ComparativeOrder, (self.n, self.ranked))

    def __repr__(self) -> str:
        if self.n <= 4:
            seq = " < ".join(s.to_text() for s in self.subsets())
            return f"ComparativeOrder(n={self.n}: {seq})"
        return f"ComparativeOrder(n={self.n}, 2^{self.n} subsets)"


# ---------------------------------------------------------------------------
# Rank lanes: the ranked masks packed so that the subset sums of a utility
# vector along the ranking come out of n big-int products.  ``_lanes`` is
# (L, lanes, (G, LOW, ONES)): L a lane width in whole bytes, lanes[i] the int
# whose L-bit lane k is bit i of ranked[k], and three masks over lanes
# 0..2^n - 2 (G holds each one's top bit, LOW fills them, ONES puts 1 in
# each).  Then sum_i u_i * lanes[i] has lane k equal to u(ranked[k]),
# exactly while every sum stays below 2^L.

def _laned_copy(order: ComparativeOrder, bits: int) -> ComparativeOrder:
    """An equal order carrying rank lanes at least ``bits`` wide; it shares
    ``order``'s position table and flippable ranks when those are built."""
    step = -(-bits // 8)
    width, ranked = 8 * step, order.ranked
    copy = ComparativeOrder._from_permutation(order.n, ranked)
    object.__setattr__(copy, "_position", order._position)
    object.__setattr__(copy, "_flippable", order._flippable)
    buf = bytearray(len(ranked) * step)
    lanes = []
    for i in range(order.n):
        buf[::step] = bytes([m >> i & 1 for m in ranked])
        lanes.append(int.from_bytes(buf, "little"))
    count = len(ranked) - 1
    ones = int.from_bytes(bytes([1] + [0] * (step - 1)) * count, "little")
    masks = (ones << (width - 1), (1 << width * count) - 1, ones)
    object.__setattr__(copy, "_lanes", (width, tuple(lanes), masks))
    return copy


def _pass_lanes(
    order: ComparativeOrder, result: ComparativeOrder, a: int, b: int, ranks: Sequence[int]
) -> None:
    """Give ``result`` the rank lanes of ``order``, if it has any, where
    ``result`` is ``order`` with ranks k and k + 1 swapped for each k in
    ``ranks``, and ranked[k] = A|D, ranked[k + 1] = B|D with D disjoint from
    A|B (masks a, b).  Bit i of A|D and B|D differs only for the atoms of A
    and B, so with M = sum_k 2^(kL) each atom of B gains M - (M << L), each
    atom of A loses it, and every other atom's int is shared."""
    if order._lanes is None:
        return
    width, lanes, masks = order._lanes
    step = width // 8
    buf = bytearray(len(order.ranked) * step)
    for k in ranks:
        buf[k * step] = 1
    m = int.from_bytes(buf, "little")
    delta = m - (m << width)
    lanes = tuple(
        lane + delta if b >> i & 1 else lane - delta if a >> i & 1 else lane
        for i, lane in enumerate(lanes)
    )
    object.__setattr__(result, "_lanes", (width, lanes, masks))


def _lanes_rise(order: ComparativeOrder, utilities: Sequence[int]) -> Optional[bool]:
    """Whether the subset sums of n positive ``utilities`` rise strictly
    along ``order.ranked``, read off its rank lanes; None when the order
    has none or sum(utilities) >= 2^(L-1).  Below that bound every lane of
    ((p >> L) | G) - (p & LOW) - ONES, p = sum_i u_i * lanes[i], holds
    2^(L-1) + u(ranked[k + 1]) - u(ranked[k]) - 1 in [0, 2^L), so no lane
    borrows, and its guard bit (the top one) is set iff the step rises."""
    if order._lanes is None:
        return None
    width, lanes, (guard, low, ones) = order._lanes
    if sum(utilities) >= 1 << (width - 1):
        return None
    p = sum(map(mul, utilities, lanes))
    return ((p >> width | guard) - (p & low) - ones) & guard == guard


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the order axioms check.

    On failure exactly one of ``empty_set_witness`` (some nonempty subset
    ranked at or before the empty set) or ``triple`` is set; ``triple`` is
    (A, B, C) with C a single atom outside A and B, A and B consecutive in
    rank among the subsets avoiding C, A before B, but A|C after B|C.
    """

    ok: bool
    empty_set_witness: Optional[Subset] = None
    triple: Optional[tuple[Subset, Subset, Subset]] = None

    def __bool__(self) -> bool:
        return self.ok

    @property
    def message(self) -> str:
        if self.ok:
            return "pass"
        if self.empty_set_witness is not None:
            return f"empty set is not strictly first (see {self.empty_set_witness.to_text()})"
        a, b, c = self.triple
        return (
            f"union consistency fails: {a.to_text()} < {b.to_text()} "
            f"but not {a.union(c).to_text()} < {b.union(c).to_text()}"
        )


def validate_order(order: ComparativeOrder) -> ValidationReport:
    """Check the two order axioms: empty set strictly first, and the
    union-consistency axiom A <= B <=> A|C <= B|C for C disjoint from A|B.

    Union consistency holds exactly when, for every atom c, S -> S|{c} is
    strictly increasing on the subsets avoiding c.  One way: (A|D, B|D) is
    reached from (A, B) by adding the atoms of D one at a time.  The other
    way: adding c leaves the disjoint reduction (X\\Y, Y\\X) of a pair
    unchanged, so every pair compares as its reduction does.  That is
    n * 2^(n-1) comparisons.  The first atom c whose map is not increasing
    names the witness: S, T consecutive in rank among the subsets avoiding
    c with S|c after T|c give the violating triple (S, T, {c}).
    """
    n = order.n
    pos = order.position
    if pos[0] != 0:
        return ValidationReport(False, empty_set_witness=order.subset_at(0))
    ranked = order.ranked
    for i in range(n):
        bit = 1 << i
        images = [pos[s | bit] for s in ranked if not s & bit]
        if not all(map(lt, images, images[1:])):
            k = next(k for k in range(len(images) - 1) if images[k] > images[k + 1])
            s, t = [s for s in ranked if not s & bit][k:k + 2]
            return ValidationReport(False, triple=(Subset(s, n), Subset(t, n), Subset(bit, n)))
    return ValidationReport(True)


def order_from_utilities(utilities: Sequence[int]) -> ComparativeOrder:
    """Rank all subsets by ascending exact utility sum.

    Raises TieError if two distinct subsets share a utility, since the
    order must be linear (no indifference).
    """
    u = check_utilities(utilities)
    n = len(u)
    sums = subset_sums(u)
    ranked = sorted(range(1 << n), key=sums.__getitem__)
    if len(set(sums)) < len(sums):
        for k in range(len(ranked) - 1):
            if sums[ranked[k]] == sums[ranked[k + 1]]:
                raise TieError(Subset(ranked[k], n), Subset(ranked[k + 1], n), sums[ranked[k]])
    return ComparativeOrder(n, ranked)


def lexicographic_utilities(n: int) -> tuple[int, ...]:
    """Binary weights (1, 2, 4, ..., 2^(n-1)); the induced order is
    lexicographic and its subset utilities are exactly 0..2^n-1."""
    _check_n(n)
    return tuple(1 << i for i in range(n))


def insert_utility(utilities: Sequence[int], q: int) -> tuple[int, ...]:
    """Merge a new value q into a strictly increasing utility vector.

    q may be smaller than every entry or larger than every entry; it must
    not equal any entry.
    """
    u = check_utilities(utilities)
    if any(u[i] >= u[i + 1] for i in range(len(u) - 1)):
        raise NotSortedError(f"utilities must be strictly increasing: {u}")
    if not isinstance(q, int) or q <= 0:
        raise ValueError(f"inserted utility must be a positive integer, got {q!r}")
    if q in u:
        raise DuplicateError(f"inserted value {q} already present in {u}")
    j = sum(1 for value in u if value < q)
    return u[:j] + (q,) + u[j:]


def maclagan_utilities(n: int) -> tuple[int, ...]:
    """Doubled binary weights on n atoms with the odd value q_n inserted,
    q_n = (2^n + (-1)^(n+1)) / 3; the result has n+1 entries and q_n sits
    at position n-1.  This is the construction whose order attains the
    Fibonacci flippable-pair count."""
    if not 3 <= n <= MAX_ATOMS - 1:
        raise ValueError(f"base atom count must be in 3..{MAX_ATOMS - 1}, got {n}")
    doubled = tuple(2 << i for i in range(n))
    merged = insert_utility(doubled, q_value(n).q)
    if merged.index(q_value(n).q) != n - 2:  # 0-based; position n-1 among n+1
        raise VerificationError(f"q_{n} is not inserted at position {n - 1}")
    return merged


# ---------------------------------------------------------------------------
# Order file format: line 1 is n, then 2^n lines of subsets, smallest first.

@cache
def _subset_texts(n: int) -> tuple[str, ...]:
    """``Subset(m, n).to_text()`` for every mask m, indexed by mask: the
    masks holding atom i+1 append ``,i+1`` to the texts below 1 << i."""
    texts = [""]
    for atom in range(1, n + 1):
        texts += [f"{t},{atom}" if t else str(atom) for t in texts]
    texts[0] = "-"
    return tuple(texts)


@cache
def _text_masks(n: int) -> dict[str, int]:
    """Mask of every canonical subset text: the inverse of ``_subset_texts``."""
    return {text: mask for mask, text in enumerate(_subset_texts(n))}


def order_to_lines(order: ComparativeOrder) -> list[str]:
    texts = _subset_texts(order.n)
    return [str(order.n)] + [texts[m] for m in order.ranked]


def order_from_lines(lines: Sequence[str]) -> ComparativeOrder:
    lines = [s for ln in lines if (s := ln.strip())]
    if not lines:
        raise ValueError("empty order description")
    try:
        n = _decimal(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the atom count, got {lines[0]!r}") from None
    _check_n(n)
    body = lines[1:]
    if len(body) != 1 << n:
        raise ValueError(f"expected {1 << n} subset lines for n={n}, got {len(body)}")
    masks = _text_masks(n)
    ranked = [masks[t] if t in masks else _mask_from_text(t, n) for t in body]
    if ranked[0] != 0:
        raise ValueError("first-ranked subset must be the empty set")
    return ComparativeOrder(n, ranked)


def order_to_line(order: ComparativeOrder) -> str:
    """Single-line variant with ';' separators, used in census files."""
    return ";".join(order_to_lines(order))


def order_from_line(line: str) -> ComparativeOrder:
    return order_from_lines(line.split(";"))


def write_order(order: ComparativeOrder, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(order_to_lines(order)) + "\n")


def read_order(path) -> ComparativeOrder:
    with open(path, "r", encoding="utf-8") as fh:
        return order_from_lines(fh.readlines())
