"""Discrete cones: the sets of {-1,0,+1}-vectors that encode a comparative
probability order through the signs chi(A,B) = chi_B - chi_A of its
comparisons, and their irreducible (non-decomposable) elements.

Vectors are exposed as tuples over {-1, 0, 1} but stored packed as a pair of
bitmasks (positive part << n | negative part), which makes the quadratic
irreducibility scan a matter of a few integer operations per candidate.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ConeAxiomError, VerificationError
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


class DiscreteCone:
    """A set of ternary vectors satisfying

    D1: all standard basis vectors are members;
    D2: of every vector and its negation, exactly one is a member;
    D3: membership is closed under addition when the sum stays ternary.

    D1 and the size implied by D2 (0 is a member, plus one of each +-pair)
    are always enforced at construction; the exhaustive D2/D3 scans are
    separate methods since they cost 3^n and |C|^2 respectively.
    """

    __slots__ = ("n", "_packed")

    def __init__(self, n: int, packed_members: Iterable[int]):
        packed = frozenset(packed_members)
        expected = (3**n - 1) // 2 + 1
        if len(packed) != expected:
            raise ConeAxiomError(
                f"cone on {n} atoms must have {expected} members, got {len(packed)}"
            )
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
        """Every vector in {-1,0,1}^n or its negation is a member, never both."""
        n = self.n
        low = (1 << n) - 1
        count = 0
        for pos in range(1 << n):
            rest = ~pos & low
            neg = rest
            while True:
                packed = pos << n | neg
                flipped = neg << n | pos
                inside = packed in self._packed
                if inside == (flipped in self._packed) and packed != flipped:
                    return False
                count += 1
                if neg == 0:
                    break
                neg = (neg - 1) & rest
        if count != 3**n:
            raise VerificationError(f"D2 scan visited {count} vectors, not 3^{n}")
        return True

    def check_d3_exhaustive(self) -> bool:
        """All member pairs whose sum stays ternary have the sum inside."""
        n = self.n
        members = sorted(self._packed)
        low = (1 << n) - 1
        for i, x in enumerate(members):
            xp, xn = x >> n, x & low
            for y in members[i:]:
                yp, yn = y >> n, y & low
                if xp & yp or xn & yn:
                    continue  # some entry would reach +-2
                pos = (xp | yp) & ~(xn | yn)
                neg = (xn | yn) & ~(xp | yp)
                if (pos << n | neg) not in self._packed:
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


def _is_reducible(w: int, members: list[int], packed: frozenset[int], n: int) -> bool:
    """Whether w = u + v for members u, v both different from w.

    ``members`` never holds 0, so only u = w, which forces v = 0, is
    skipped; excluding it also excludes v = w, since v = w forces u = 0.
    Works on packed vectors: v = w - u stays ternary iff no coordinate of u
    has the opposite sign magnitude exceeded, checked with two mask tests.
    """
    low = (1 << n) - 1
    wp, wn = w >> n, w & low
    for u in members:
        if u == w:
            continue
        up, un = u >> n, u & low
        # v_i = w_i - u_i must lie in {-1,0,1}: forbidden exactly when
        # (w_i, u_i) = (1,-1) or (-1,1).
        if wp & un or wn & up:
            continue
        vp = (wp & ~up) | (un & ~wp & ~wn)
        vn = (wn & ~un) | (up & ~wp & ~wn)
        if (vp << n | vn) in packed:
            return True
    return False


def irreducible_elements(cone: DiscreteCone) -> frozenset[TernaryVector]:
    """All nonzero members that are not sums of two other members.

    Basis vectors are tried first as decomposition candidates since they
    witness reducibility for most members, keeping the full scan for the
    few genuine irreducibles.
    """
    n = cone.n
    packed = cone.packed_members()
    basis = [(1 << i) << n for i in range(n)]
    skip = {0, *basis}
    others = sorted(p for p in packed if p not in skip)
    members = basis + others
    result = []
    for w in packed:
        if w == 0:
            continue
        if not _is_reducible(w, members, packed, n):
            result.append(unpack_ternary(w, n))
    return frozenset(result)
