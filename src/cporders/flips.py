"""Critical and flippable pairs of a comparative probability order, and the
flip operation that reverses one flippable comparison family to produce a
neighbouring order in the flip graph.

A disjoint pair (A, B) of consecutive subsets is critical; it is flippable
when every translate (A|D, B|D) by D inside the complement of A|B is also
consecutive.  Flipping swaps all 2^r such translates at once (r the size of
the complement) and always yields another valid order, provided A is
nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import EmptySideError, VerificationError
from .orders import ComparativeOrder, Subset, validate_order


@dataclass(frozen=True)
class CriticalPair:
    """Disjoint subsets occupying consecutive ranks, smaller side first."""

    a: Subset
    b: Subset
    rank_a: int

    @property
    def rank_b(self) -> int:
        return self.rank_a + 1


@dataclass(frozen=True)
class FlippablePair:
    """A critical pair all of whose translates are adjacent.

    ``adjacencies`` is 2^r with r the complement size of A|B: the number of
    consecutive-rank slots this pair occupies in the order.
    """

    pair: CriticalPair
    adjacencies: int

    @property
    def a(self) -> Subset:
        return self.pair.a

    @property
    def b(self) -> Subset:
        return self.pair.b

    def to_json(self) -> dict:
        return {
            "A": list(self.a.atoms),
            "B": list(self.b.atoms),
            "rank": self.pair.rank_a,
            "adjacencies": self.adjacencies,
        }


def critical_pairs(order: ComparativeOrder) -> list[CriticalPair]:
    """All disjoint consecutive pairs, in rank order."""
    n = order.n
    ranked = order.ranked
    out = []
    for k in range(len(ranked) - 1):
        if ranked[k] & ranked[k + 1] == 0:
            out.append(CriticalPair(Subset(ranked[k], n), Subset(ranked[k + 1], n), k))
    return out


def _translate_ranks(order: ComparativeOrder, pair: CriticalPair) -> Optional[list[int]]:
    """Rank of A|D for every D inside the complement of A|B, or None as
    soon as some translate (A|D, B|D) is not adjacent."""
    pos = order.position
    a, b = pair.a.mask, pair.b.mask
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
    return _translate_ranks(order, pair) is not None


def flippable_pairs(order: ComparativeOrder) -> list[FlippablePair]:
    out = []
    for pair in critical_pairs(order):
        ranks = _translate_ranks(order, pair)
        if ranks is not None:
            out.append(FlippablePair(pair, len(ranks)))
    return out


def flip(order: ComparativeOrder, pair: "FlippablePair | CriticalPair") -> ComparativeOrder:
    """Reverse every comparison (A|D, B|D) of a flippable pair with A nonempty.

    The result is again a comparative probability order; flipping the image
    pair back recovers the input.
    """
    if isinstance(pair, FlippablePair):
        pair = pair.pair
    if pair.a.mask == 0:
        raise EmptySideError(
            f"cannot flip ({pair.a.to_text()}, {pair.b.to_text()}): "
            "the empty set must stay strictly first"
        )
    ranks = _translate_ranks(order, pair)
    if ranks is None:
        raise ValueError(f"pair ({pair.a}, {pair.b}) is not flippable for this order")
    ranked = list(order.ranked)
    for k in ranks:
        ranked[k], ranked[k + 1] = ranked[k + 1], ranked[k]
    result = ComparativeOrder(order.n, ranked)
    # capped at 5 atoms: validate_order makes n passes over the order, which
    # at 12 atoms (~3.4 ms) still costs more than a flip plus the hint check
    # of the neighbour it yields (~0.2 + ~0.75 ms), and verify-fibonacci
    # flips every flippable pair
    if order.n <= 5 and not validate_order(result).ok:
        raise VerificationError(f"flip over ({pair.a}, {pair.b}) gave an invalid order")
    return result


def flip_neighbors(
    order: ComparativeOrder,
) -> Iterator[tuple[FlippablePair, ComparativeOrder]]:
    """Each flippable pair with nonempty smaller side and the order its flip
    yields, in ``flippable_pairs`` order.  Lazy, so a caller holds one
    neighbour at a time: a 12-atom order has hundreds of them."""
    for fp in flippable_pairs(order):
        if fp.a.mask != 0:
            yield fp, flip(order, fp)
