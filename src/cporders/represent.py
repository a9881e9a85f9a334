"""Exact representability: deciding whether a comparative probability order
is induced by an additive integer utility vector, with a certificate either
way -- a reproducing utility vector, or a trading transform witnessing the
impossibility.

The order is representable iff some u has u . d > 0 for every column d =
chi(B) - chi(A) with A ranked before B.  Every facet of a representable
order's region is a flippable pair (Maclagan 1999), so the columns of the
flippable pairs and (empty set, first subset) suffice.  By Gordan's
alternative exactly one of that system and {y >= 0, sum_j y_j d_j = 0,
sum_j y_j >= 1} is solvable; one exact phase-1 solve of the second decides.

Its n + 2 rows, one column per pair, are D_i y >= 0 for each atom i (D_i
the i-th entries of the columns), -(sum_i D_i) y >= 0 and sum_j y_j >= 1.
Nonnegative rows whose sum is <= 0 are all zero, so these rows admit the
same y as D y = 0 written as 2n opposite inequalities.  A solution y,
scaled to integers, is a trading transform (Kraft-Pratt-Seidenberg): y_j
copies of (A_j, B_j).  Otherwise the solver's integer Farkas multipliers
(lambda_1..lambda_n, mu, nu) give utilities u_i = mu - lambda_i with u .
d_j >= nu > 0 on every column, which re-derive the order if it is
representable.  If not, each consecutive gap (S, T) they break has u . d
<= 0, so is a new column: its disjoint parts when those are in order,
else (S, T).  The system is solved again with them, so the rounds end, at
worst at one column per gap.  Verdicts equal the whole-gap system's; the
Farkas utilities differ, and transforms are not the shortest
(``find_trading_transform`` finds those).

:func:`check_certificate` is the one checker; ``is_representable`` returns
only what it passes, else VerificationError (also under ``python -O``).  A
certificate's JSON is {"verdict": "representable", "utilities": [u_1, ...,
u_n]} or {"verdict": "nonrepresentable", "transform": {"As": [[atoms], ...],
"Bs": [[atoms], ...]}}, atoms numbered from 1; ``Certificate.from_json``
reads back exactly what ``Certificate.to_json`` writes.

On an order carrying rank lanes (only the flip neighbours inside
``unfriendly_flips`` do; see ``orders._laned_copy``), utilities are
checked without their 2^n subset sums.  Lane k of p = sum_i u_i *
lanes[i] is u(ranked[k]), so subtracting p from itself shifted down one
lane compares every adjacent pair at once: a guard bit put at the top of
each L-bit lane survives exactly where the sums rise strictly.  That is
exact while sum(u) < 2^(L-1), so that no lane overflows or borrows;
larger utilities take the list path.  ``unfriendly_flips`` sets L two
bits above (2n + 1) sum(u) + 2n, which bounds every gap-1 hint's sum,
rounded up to whole bytes.  ``flip`` hands the lanes on by the swap
identity: bit i of A|D and of B|D differ only for the atoms of A and B,
so only their ints change.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import lt
from typing import Optional, Sequence

from .cones import cone_from_order
from .errors import CporderError, LengthMismatchError, ResourceError, VerificationError
from .flips import CriticalPair, _flippable_masks, flip_neighbors
from .lp import solve_feasibility
from .orders import ComparativeOrder, Subset, _laned_copy, _lanes_rise, subset_sums


@dataclass(frozen=True)
class TradingTransform:
    """Sequences (A_1..A_k; B_1..B_k) where every atom appears equally often
    on both sides, i.e. the A's can be rearranged into the B's."""

    a_sets: tuple[Subset, ...]
    b_sets: tuple[Subset, ...]

    @property
    def length(self) -> int:
        return len(self.a_sets)

    def is_balanced(self) -> bool:
        a, b = ([atom for s in sets for atom in s.atoms] for sets in (self.a_sets, self.b_sets))
        return len(self.a_sets) == len(self.b_sets) and sorted(a) == sorted(b)

    def to_json(self) -> dict:
        return {
            "As": [list(s.atoms) for s in self.a_sets],
            "Bs": [list(s.atoms) for s in self.b_sets],
        }

    @classmethod
    def from_json(cls, data, n: int) -> "TradingTransform":
        """Inverse of :meth:`to_json`; ValueError on any other shape."""
        if not isinstance(data, dict) or data.keys() != {"As", "Bs"} or not all(
            isinstance(side, list) and all(isinstance(atoms, list) for atoms in side)
            for side in data.values()
        ):
            raise ValueError("transform must be {As: [atom lists], Bs: [atom lists]}")
        if len(data["As"]) != len(data["Bs"]):
            raise ValueError(f"{len(data['As'])} left sets vs {len(data['Bs'])} right sets")
        return cls(*(tuple(Subset.from_atoms(atoms, n) for atoms in data[k]) for k in ("As", "Bs")))


@dataclass(frozen=True)
class Certificate:
    """Representability verdict plus its proof object."""

    verdict: str  # "representable" | "nonrepresentable"
    utilities: Optional[tuple[int, ...]] = None
    transform: Optional[TradingTransform] = None

    @property
    def representable(self) -> bool:
        return self.verdict == "representable"

    def to_json(self) -> dict:
        out = {"verdict": self.verdict}
        if self.utilities is not None:
            out["utilities"] = list(self.utilities)
        if self.transform is not None:
            out["transform"] = self.transform.to_json()
        return out

    @classmethod
    def from_json(cls, data, n: int) -> "Certificate":
        """Inverse of :meth:`to_json` on a certificate holding just its
        verdict's proof object; VerificationError on any other shape."""
        verdict = data.get("verdict") if isinstance(data, dict) else None
        if verdict not in ("representable", "nonrepresentable"):
            raise VerificationError("certificate must be a JSON object with a known verdict")
        proof = "utilities" if verdict == "representable" else "transform"
        try:
            if data.keys() != {"verdict", proof}:
                raise ValueError(f"keys must be verdict and {proof}, got {sorted(data)}")
            if proof == "transform":
                return cls(verdict, transform=TradingTransform.from_json(data[proof], n))
            utilities = data[proof]
            if not isinstance(utilities, list) or not all(type(v) is int for v in utilities):
                raise ValueError(f"utilities must be a list of ints, got {utilities!r}")
            return cls(verdict, utilities=tuple(utilities))
        except (ValueError, CporderError) as exc:
            raise VerificationError(f"malformed {verdict} certificate: {exc}") from None


def check_certificate(cert: Certificate, order: ComparativeOrder) -> bool:
    """Whether ``cert`` proves its verdict for ``order``: n positive utilities
    whose subset sums rise strictly along ``order.ranked`` (so they sort back
    to it with no tie), or a transform check_trading_transform accepts."""
    if cert.verdict == "representable":
        u = cert.utilities
        if u is None or len(u) != order.n or not all(v > 0 for v in u):
            return False
        rises = _lanes_rise(order, u)
        if rises is not None:
            return rises
        ranked_sums = list(map(subset_sums(u).__getitem__, order.ranked))
        return all(map(lt, ranked_sums, ranked_sums[1:]))
    if cert.verdict != "nonrepresentable" or cert.transform is None:
        return False
    return check_trading_transform(cert.transform, order)


def _scale_to_integers(values) -> tuple[int, ...]:
    nums = [int(v.numerator) for v in values]
    dens = [int(v.denominator) for v in values]
    scale = lcm(*dens) if dens else 1
    ints = [num * (scale // den) for num, den in zip(nums, dens)]
    shrink = gcd(*ints) if any(ints) else 1
    return tuple(v // shrink for v in ints)


def _gordan_system(n: int, columns) -> tuple[list[list[int]], list[int]]:
    """Rows and right-hand sides of sum_j y_j (chi(B_j) - chi(A_j)) = 0 (as
    one inequality per atom and one for minus their sum) and sum_j y_j >=
    1, one column per mask pair (A_j, B_j) in ``columns``."""
    rows = [[(b >> i & 1) - (a >> i & 1) for a, b in columns] for i in range(n)]
    rows.append([a.bit_count() - b.bit_count() for a, b in columns])
    rows.append([1] * len(columns))
    return rows, [0] * (n + 1) + [1]


def is_representable(
    order: ComparativeOrder, hint: Optional[Sequence[int]] = None
) -> Certificate:
    """Decide representability; total for every order with the empty set
    ranked first.

    ``hint`` is an optional candidate integer utility vector tried before
    any pivoting (e.g. a perturbed witness for a flip neighbour).  It is
    accepted exactly when :func:`check_certificate` passes it, as LP
    utilities must; a hint never changes the verdict, only the route to it.
    Otherwise the pair system decides, in rounds (see the module doc).
    """
    n, ranked = order.n, order.ranked
    if ranked[0] != 0:
        raise ValueError("the empty set must rank first")
    if hint is not None:
        cert = Certificate("representable", utilities=tuple(int(v) for v in hint))
        if check_certificate(cert, order):
            return cert

    pos = order.position
    columns = {(a, b) for _, a, b in _flippable_masks(order)} | {(0, ranked[1])}
    while True:
        ordered = sorted(columns)
        result = solve_feasibility(*_gordan_system(n, ordered))
        if result.solution is not None:
            break
        lam = result.farkas
        utilities = _scale_to_integers([lam[n] - lam[i] for i in range(n)])
        cert = Certificate("representable", utilities)
        if check_certificate(cert, order):
            return cert
        # a gap's disjoint parts are out of order only if union-consistency fails
        sums = subset_sums(utilities)
        broken = {
            (s & ~t, t & ~s) if pos[s & ~t] < pos[t & ~s] else (s, t)
            for s, t in zip(ranked, ranked[1:])
            if sums[t] <= sums[s]
        }
        if broken <= columns:
            raise VerificationError(f"Farkas utilities {utilities} do not re-derive the order")
        columns |= broken

    copies = [ab for ab, y in zip(ordered, _scale_to_integers(result.solution)) for _ in range(y)]
    transform = TradingTransform(*(tuple(Subset(ab[k], n) for ab in copies) for k in (0, 1)))
    cert = Certificate("nonrepresentable", transform=transform)
    if not check_certificate(cert, order):
        raise VerificationError("Gordan solution does not give a trading transform")
    return cert


def check_trading_transform(transform: TradingTransform, order: ComparativeOrder) -> bool:
    """Whether ``transform`` certifies nonrepresentability of ``order``:
    the balance condition holds and A_i strictly precedes B_i for every i."""
    if len(transform.a_sets) != len(transform.b_sets):
        raise LengthMismatchError(
            f"{len(transform.a_sets)} left sets vs {len(transform.b_sets)} right sets"
        )
    if transform.length == 0:
        return False
    for s in transform.a_sets + transform.b_sets:
        if s.n != order.n:
            raise ValueError("transform subsets live in a different universe")
    if not transform.is_balanced():
        return False
    return all(
        order.precedes(a, b) for a, b in zip(transform.a_sets, transform.b_sets)
    )


def find_trading_transform(
    order: ComparativeOrder, k_max: int = 4
) -> Optional[TradingTransform]:
    """Shortest trading transform with every pair A_i < B_i, up to ``k_max``.

    Candidates are the nonzero members chi(A, B) of the order's cone, one
    per disjoint pair with A before B (intersections can always be removed
    from a transform).  Vector x gets the int code sum_i x_i b^i with b =
    2 k_max + 1, tabled per mask by ``subset_sums``; codes
    add like vectors and are one-to-one on entries in [-k_max, k_max], so a
    sum of at most k_max members is zero exactly when its code is 0.
    ``sums[j]`` maps the code of each sum of j members to the code of a
    last member, whose removal leads into ``sums[j - 1]``.  A length-k
    transform exists iff a code in ``sums[k // 2]`` has its negation in
    ``sums[k - k // 2]``; lengths rise from 2, so the first hit is minimal.
    A None result proves nothing beyond ``k_max``.  ``sums[j]`` holds at
    most (2j + 1)^n codes, so ResourceError is raised before the cone is
    built when (2 ceil(k_max / 2) + 1)^n exceeds 2^21.  The empty set must
    rank first, as the cone requires (ConeAxiomError otherwise).
    """
    if k_max < 2:
        return None
    n = order.n
    if (2 * ((k_max + 1) // 2) + 1) ** n > 1 << 21:
        raise ResourceError(f"transform search to length {k_max} on {n} atoms exceeds 2^21 sums")
    code = subset_sums([(2 * k_max + 1) ** i for i in range(n)])
    low = (1 << n) - 1
    members = {code[p >> n] - code[p & low]: p for p in cone_from_order(order).packed_members() if p}
    sums = [{0: 0}]
    for k in range(2, k_max + 1):
        if len(sums) <= k - k // 2:
            sums.append({c + m: m for c in sums[-1] for m in members})
        hit = next((c for c in sums[k // 2] if -c in sums[k - k // 2]), None)
        if hit is not None:
            found = []
            for c, j in ((hit, k // 2), (-hit, k - k // 2)):
                for table in sums[j:0:-1]:
                    found.append(members[table[c]])
                    c -= table[c]
            transform = TradingTransform(
                tuple(Subset(p & low, n) for p in found), tuple(Subset(p >> n, n) for p in found)
            )
            if not check_trading_transform(transform, order):
                raise VerificationError("search result fails check_trading_transform")
            return transform
    return None


def neighbor_witness_hint(
    utilities: Sequence[int], pair: CriticalPair
) -> Optional[tuple[int, ...]]:
    """Perturbed utilities representing the flip of a gap-1 flippable pair.

    If u represents the order and u(B) - u(A) = 1 for the flipped pair,
    then (2w-1)*u - 2*chi(A,B) with w = |A| + |B| represents the flipped
    order: the flipped translates land at gap -1 while every other adjacent
    gap stays >= 1.  Returns None when the gap precondition fails; callers
    must verify the hint regardless with :func:`check_certificate` (as
    is_representable does).
    """
    a, b = pair.a.mask, pair.b.mask
    w = (a | b).bit_count()
    if w < 2:
        return None
    sign = [(b >> i & 1) - (a >> i & 1) for i in range(len(utilities))]
    if sum(s * u for s, u in zip(sign, utilities)) != 1:  # the gap u(B) - u(A)
        return None
    return tuple((2 * w - 1) * u - 2 * s for s, u in zip(sign, utilities))


def unfriendly_flips(
    order: ComparativeOrder, utilities: Sequence[int]
) -> list[CriticalPair]:
    """Flippable pairs of an order represented by ``utilities`` whose flip
    is nonrepresentable; each neighbour is decided with its witness hint.

    The neighbours come from a copy of ``order`` carrying rank lanes wide
    enough for every gap-1 hint (see the module doc); ``order`` itself
    stays without."""
    n = order.n
    laned = _laned_copy(order, ((2 * n + 1) * sum(utilities) + 2 * n).bit_length() + 2)
    return [
        fp
        for fp, neighbor in flip_neighbors(laned)
        if not is_representable(
            neighbor, hint=neighbor_witness_hint(utilities, fp)
        ).representable
    ]
