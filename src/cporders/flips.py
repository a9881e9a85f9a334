"""Critical and flippable pairs of a comparative probability order, and the
flip operation that reverses one flippable comparison family to produce a
neighbouring order in the flip graph.

A disjoint pair (A, B) of consecutive subsets is critical; it is flippable
when every translate (A|D, B|D) by D inside the complement of A|B is also
consecutive.  Flipping swaps all 2^r such translates at once (r the size of
the complement) and always yields another valid order, provided A is
nonempty.

One type, ``CriticalPair``, describes both kinds: a flippable pair is a
critical pair that passes ``is_flippable``.  Its ``adjacencies`` count,
2^r, follows from the masks alone; for a flippable pair it is the number of
consecutive-rank slots the translates occupy.  The translate walk reads
masks, so ``flippable_pairs`` builds Subsets only for the pairs it returns.

``_flippable_masks`` walks an order's critical pairs once and keeps the
flippable ranks as bits of the order's ``_flippable`` cache, so each later
reader of its (rank, a, b) masks (representability columns, census edges
and facet counts, the Theorem-2 and adjacency-budget checks) reads the int.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import EmptySideError, VerificationError
from .orders import ComparativeOrder, Subset, _pass_lanes, validate_order


@dataclass(frozen=True)
class CriticalPair:
    """Disjoint subsets at ranks ``rank_a`` and ``rank_a + 1``, smaller side
    first."""

    a: Subset
    b: Subset
    rank_a: int

    @property
    def adjacencies(self) -> int:
        """Number of translates (A|D, B|D), D inside the complement of A|B."""
        return 1 << (self.a.n - (self.a.mask | self.b.mask).bit_count())

    def to_json(self) -> dict:
        return {
            "A": list(self.a.atoms),
            "B": list(self.b.atoms),
            "rank": self.rank_a,
            "adjacencies": self.adjacencies,
        }


def critical_pairs(order: ComparativeOrder) -> list[CriticalPair]:
    """All disjoint consecutive pairs, in rank order."""
    n, ranked = order.n, order.ranked
    return [
        CriticalPair(Subset(a, n), Subset(b, n), k)
        for k, (a, b) in enumerate(zip(ranked, ranked[1:]))
        if not a & b
    ]


def _translate_ranks(order: ComparativeOrder, a: int, b: int) -> Optional[list[int]]:
    """Rank of A|D for every D inside the complement of A|B (masks a, b),
    or None as soon as some translate (A|D, B|D) is not adjacent."""
    pos = order.position
    comp = ~(a | b) & ((1 << order.n) - 1)
    ranks = []
    d = comp
    while True:
        k = pos[a | d]
        if pos[b | d] != k + 1:
            return None
        ranks.append(k)
        if d == 0:
            return ranks
        d = (d - 1) & comp


def is_flippable(order: ComparativeOrder, pair: CriticalPair) -> bool:
    """Every translate (A|D, B|D) with D disjoint from A|B must be adjacent."""
    return _translate_ranks(order, pair.a.mask, pair.b.mask) is not None


def _flippable_masks(order: ComparativeOrder) -> list[tuple[int, int, int]]:
    """(rank, a, b) of each flippable pair, masks a and b, in rank order.
    The first call on an order walks its critical pairs and keeps bit k of
    ``order._flippable`` set for a flippable pair at ranks k, k + 1."""
    ranked = order.ranked
    flippable = order._flippable
    if flippable is None:
        ranks = [
            k
            for k, (a, b) in enumerate(zip(ranked, ranked[1:]))
            if not a & b and _translate_ranks(order, a, b) is not None
        ]
        object.__setattr__(order, "_flippable", sum(1 << k for k in ranks))
    else:
        bits = bin(flippable)[:1:-1]  # bits[k] is bit k
        ranks = [k for k, bit in enumerate(bits) if bit == "1"]
    return [(k, ranked[k], ranked[k + 1]) for k in ranks]


def flippable_pairs(order: ComparativeOrder) -> list[CriticalPair]:
    """The critical pairs that pass ``is_flippable``, in rank order."""
    n = order.n
    return [CriticalPair(Subset(a, n), Subset(b, n), k) for k, a, b in _flippable_masks(order)]


def _flipped(order: ComparativeOrder, a: int, b: int) -> ComparativeOrder:
    """``order`` with every translate (A|D, B|D) of the flippable pair of
    masks (a, b) swapped; rank lanes on ``order`` pass on to the result.
    The result is not validated (``flip`` does that)."""
    ranks = _translate_ranks(order, a, b)
    if ranks is None:
        n = order.n
        raise ValueError(
            f"pair ({Subset(a, n).to_text()}, {Subset(b, n).to_text()}) "
            "is not flippable for this order"
        )
    ranked = list(order.ranked)
    for k in ranks:
        ranked[k], ranked[k + 1] = ranked[k + 1], ranked[k]
    # swaps of ranks keep the input's permutation a permutation
    result = ComparativeOrder._from_permutation(order.n, tuple(ranked))
    _pass_lanes(order, result, a, b, ranks)
    return result


def flip(order: ComparativeOrder, pair: CriticalPair) -> ComparativeOrder:
    """Reverse every comparison (A|D, B|D) of a flippable pair with A nonempty.

    The result is again a comparative probability order; flipping the image
    pair back recovers the input.  Rank lanes on ``order`` pass on to the
    result.
    """
    if pair.a.mask == 0:
        raise EmptySideError(
            f"cannot flip ({pair.a.to_text()}, {pair.b.to_text()}): "
            "the empty set must stay strictly first"
        )
    result = _flipped(order, pair.a.mask, pair.b.mask)
    # the guard against a faulty transposition, capped at 5 atoms:
    # validate_order makes n passes over the order, which at 12 atoms
    # (~3-4 ms) costs over ten times a flip plus the hint check of the
    # neighbour it yields on rank lanes (~0.15 + ~0.1 ms), and
    # verify-fibonacci flips every flippable pair.  The census edges skip
    # it through ``_flipped``: a neighbour found in the census is a
    # validated order (see ``census._annotate_edges``)
    if order.n <= 5 and not validate_order(result).ok:
        raise VerificationError(
            f"flip over ({pair.a.to_text()}, {pair.b.to_text()}) gave an invalid order"
        )
    return result


def flip_neighbors(
    order: ComparativeOrder,
) -> Iterator[tuple[CriticalPair, ComparativeOrder]]:
    """Each flippable pair with nonempty smaller side and the order its flip
    yields, in ``flippable_pairs`` order.  Lazy, so a caller holds one
    neighbour at a time: a 12-atom order has hundreds of them."""
    for fp in flippable_pairs(order):
        if fp.a.mask != 0:
            yield fp, flip(order, fp)
