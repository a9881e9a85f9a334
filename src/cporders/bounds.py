"""Counting apparatus for the Fibonacci lower bound and the binomial/entropy
upper bounds on flippable-pair numbers.

g_n counts disjoint pairs of the doubled-binary order on [n] at utility gap
q_n + 1, h_n the same at gap q_n - 1; their sum is the flippable-pair count
of the inserted-value order on n+1 atoms and follows the Fibonacci
recurrences.  The upper bounds come from the adjacency budget (every
flippable pair occupies 2^r adjacencies) and from binary-entropy estimates
of binomial sums, certified here in fixed point with Python ints.

Each entropy helper returns its real value times 2^120 as an int, rounded
down, or up when ``up`` is set.  Each step is monotone in each input, so a
lower bound uses the bound of each input that makes it least (the upper
one for an input negated, or dividing a positive value): no endpoint moves
inward.  Series have nonnegative terms; the lower bound sums floored terms
and the upper bound adds to its ceiled terms a bound on the rest.  For
atanh z = sum of z^k / k over odd k, 0 <= z <= 1/3, the rest is at most
z^k / (1 - z^2) <= 9 z^k / 8; ln 2 = 2 atanh(1/3) and, for x = 2^k m with
1 <= m < 2, ln x = k ln 2 + 2 atanh((m - 1) / (m + 1)).  For exp t = sum
of t^j / j!, 0 <= t < 1, the rest is at most 2 t^j / j! (j >= 1); and
2^y = 2^floor(y) exp(frac(y) ln 2).  Endpoints come back as exact dyadic
Fractions, so comparisons on them are exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import RangeError, VerificationError
from .flips import critical_pairs, is_flippable
from .orders import maclagan_utilities, order_from_utilities, subset_sums
from .represent import unfriendly_flips
from .sequences import fibonacci, q_value

_P = 120  # fraction bits of the entropy enclosures
_ONE = 1 << _P
_LAMBDA_BITS = 48  # > 14 decimal digits


@dataclass(frozen=True)
class GHCounts:
    n: int
    g: int
    h: int


def _pairs_at_gap(n: int, gap: int) -> int:
    """Disjoint pairs of the doubled-binary order on [n] at an even utility
    ``gap`` = 2d: the a < 2^n - d with a & (a + d) == 0.

    The count runs over the bits from the lowest, carrying the addition
    a + d: ``ways[c]`` counts the low bits of a so far whose sum with d's
    leaves carry c, and bit i of a may be 1 only where bit i of a + d is
    0.  A final carry means a + d >= 2^n.  So it takes O(n) steps, not a
    sweep of 2^n masks.
    """
    if gap % 2:
        raise VerificationError(f"gap {gap} is odd; doubled weights give even gaps only")
    d = gap // 2
    if not 0 <= d < 1 << n:
        return 0
    ways = [1, 0]
    for i in range(n):
        bit = d >> i & 1
        nxt = [0, 0]
        for carry, count in enumerate(ways):
            for x in (0, 1):
                total = x + bit + carry
                if not x & total:
                    nxt[total >> 1] += count
        ways = nxt
    return ways[0]


def gh_counts(n: int) -> GHCounts:
    """Disjoint-pair counts of the doubled-binary order at gaps q_n +- 1.

    Subset utilities under weights (2, 4, ..., 2^n) are exactly twice the
    mask value, so pairs at an even gap 2d are masks (a, a+d) that are
    bitwise disjoint (``_pairs_at_gap``).
    """
    if not 3 <= n <= 20:
        raise ValueError(f"gh_counts supports 3 <= n <= 20, got {n}")
    q = q_value(n)
    return GHCounts(n, _pairs_at_gap(n, q.q_plus), _pairs_at_gap(n, q.q_minus))


@dataclass(frozen=True)
class BoundReport:
    n: int
    fib_lower: int
    s_star: int
    count_upper: int


def upper_bound(n: int) -> BoundReport:
    """Adjacency-budget upper bound: the least s with
    sum_{i<=s} 2^i C(n,i) >= 2^n - 1 caps flippable pairs by
    sum_{i<=s} C(n,i); paired with the Fibonacci lower bound F_{n+1}."""
    if n < 1:
        raise ValueError(f"atom count must be positive, got {n}")
    target = (1 << n) - 1
    weighted = 0
    plain = 0
    for s in range(n + 1):
        weighted += (1 << s) * comb(n, s)
        plain += comb(n, s)
        if weighted >= target:
            return BoundReport(n, fibonacci(n + 1), s, plain)
    raise AssertionError("unreachable: the full sum is 3^n >= 2^n - 1")


# ---------------------------------------------------------------------------
# Entropy machinery, in fixed point at _P bits (see the module docstring).


def _div(a: int, b: int, up: bool) -> int:
    """a / b for b > 0, rounded down (up: rounded up)."""
    return -(-a // b) if up else a // b


def _atanh(num: int, den: int, up: bool) -> int:
    """atanh z = sum of z^k / k over odd k, for 0 <= z = num / den <= 1/3."""
    t = _div(num << _P, den, up)  # z^k
    zz, total, k = _div(t * t, _ONE, up), 0, 1
    while t > up:
        total, t, k = total + _div(t, k, up), _div(t * zz, _ONE, up), k + 2
    return total + up * _div(9 * t, 8, up)  # the rest: z^k / (1 - z^2) <= 9 z^k / 8


_LN2 = (2 * _atanh(1, 3, False), 2 * _atanh(1, 3, True))


def _ln(x: Fraction, up: bool) -> int:
    """ln x = k ln 2 + 2 atanh((m - 1) / (m + 1)) for x = 2^k m, 1 <= m < 2."""
    p, q = x.numerator, x.denominator
    k = p.bit_length() - q.bit_length()
    p, q = (p, q << k) if k >= 0 else (p << -k, q)
    if p < q:
        p, k = p << 1, k - 1
    return k * (_LN2[up] if k >= 0 else _LN2[not up]) + 2 * _atanh(p - q, p + q, up)


def _entropy(x: Fraction, up: bool) -> int:
    """H(x) = -(x ln x + (1 - x) ln(1 - x)) / ln 2 for 0 < x < 1."""
    e = sum(_div(-_ln(w, not up) * w.numerator, w.denominator, up) for w in (x, 1 - x))
    return _div(e << _P, _LN2[(e >= 0) != up], up)


def _side(x: Fraction) -> int:
    """-1 if x is below lambda, the root of x + H(x) = 1, 1 if above, 0 if undecided."""
    p, q = x.numerator, x.denominator
    return (_entropy(x, False) * q > (q - p) << _P) - (_entropy(x, True) * q < (q - p) << _P)


def _exp2(y: int, up: bool) -> Fraction:
    """2^(y / 2^P) = 2^floor * exp(t), t = frac * ln 2 < 1, as a Fraction."""
    k, frac = divmod(y, _ONE)
    t = _div(frac * _LN2[up], _ONE, up)
    total, term, j = 0, _ONE, 0  # t^j / j!
    while term > up:
        total, j = total + term, j + 1
        term = _div(term * t, j << _P, up)
    return Fraction(total + 2 * term * up, _ONE) * Fraction(2) ** k  # the rest <= 2 t^j / j!


@functools.cache
def lambda_bracket() -> tuple[Fraction, Fraction]:
    """Certified enclosure of the root of x + H(x) = 1, width < 2^-48."""
    lo, hi = Fraction(1, 5), Fraction(1, 4)
    if (_side(lo), _side(hi)) != (-1, 1):
        raise AssertionError("bisection seed does not bracket lambda")
    for _ in range(_LAMBDA_BITS + 3):
        mid = (lo + hi) / 2
        side = _side(mid)
        if side == 0:  # pragma: no cover - 120-bit enclosures decide dyadic midpoints
            raise AssertionError("interval too wide to place bisection midpoint")
        lo, hi = (mid, hi) if side < 0 else (lo, mid)
    return lo, hi


@dataclass(frozen=True)
class EntropyBound:
    """Certified enclosures of 2^{H(c)} and 2^{H(c) n}; all endpoints are
    exact dyadic rationals bounding the true values from outside."""

    c: Fraction
    n: int
    rate_lower: Fraction
    rate_upper: Fraction
    bound_lower: Fraction
    bound_upper: Fraction


def entropy_bound(n: int, c) -> EntropyBound:
    """Growth rate 2^{H(c)} and bound 2^{H(c) n} for c in (lambda, 1/2)."""
    c = Fraction(c)
    if not 0 < c < Fraction(1, 2):
        raise RangeError(f"c must lie strictly between lambda and 1/2, got {c}")
    side = _side(c)
    if side < 0:
        raise RangeError(f"c = {c} is not above lambda")
    if side == 0:
        raise RangeError(f"c = {c} is indistinguishable from lambda at working precision")
    h = _entropy(c, False), _entropy(c, True)
    y = sorted(v * n for v in h)
    rate, bound = (_exp2(h[0], False), _exp2(h[1], True)), (_exp2(y[0], False), _exp2(y[1], True))
    return EntropyBound(c, n, *rate, *bound)


def lambda_rate_bracket() -> tuple[Fraction, Fraction]:
    """Certified enclosure of the limiting growth rate 2^{H(lambda)}.

    H is strictly increasing on (0, 1/2) and lambda < 1/4, so evaluating the
    rate at the two bracket endpoints enclosing lambda brackets the value.
    """
    lo, hi = lambda_bracket()
    return _exp2(_entropy(lo, False), False), _exp2(_entropy(hi, True), True)


# ---------------------------------------------------------------------------
# The inserted-value construction and its verification.


@dataclass(frozen=True)
class FibonacciReport:
    base_n: int
    atoms: int
    flippable_count: int
    g: int
    h: int
    fibonacci_expected: int
    critical_count: int
    neighbors_checked: int
    all_friendly: bool

    def summary(self) -> str:
        return (
            f"base n={self.base_n}: order on {self.atoms} atoms has "
            f"{self.flippable_count} flippable pairs = F_{self.base_n + 2} "
            f"= g+h = {self.g}+{self.h}; "
            f"friendly flips: {'yes' if self.all_friendly else 'NO'} "
            f"({self.neighbors_checked} neighbors)"
        )


def verify_fibonacci_construction(base_n: int, check_friendly: bool = True) -> FibonacciReport:
    """Build the inserted-value order on base_n + 1 atoms and verify:

    (i)   its flippable-pair count equals g + h and the Fibonacci number
          F_{base_n + 2};
    (ii)  on every critical pair, flippable <=> exactly one side contains
          the inserted atom <=> utility gap is 1 (the three-way equivalence);
    (iii) every flip neighbour is representable (all flips friendly).

    Raises VerificationError naming the first failed assertion, and
    ValueError (from ``maclagan_utilities``) unless 3 <= base_n <= 15.
    """
    utilities = maclagan_utilities(base_n)
    order = order_from_utilities(utilities)
    sums = subset_sums(utilities)
    j_bit = 1 << (base_n - 2)  # inserted atom has index base_n - 1 (1-based)

    crits = critical_pairs(order)
    flips = []
    for pair in crits:
        flippable = is_flippable(order, pair)
        one_side = bool(pair.a.mask & j_bit) != bool(pair.b.mask & j_bit)
        gap = sums[pair.b.mask] - sums[pair.a.mask]
        if flippable != one_side or one_side != (gap == 1):
            raise VerificationError(
                f"trichotomy fails at ranks {pair.rank_a},{pair.rank_a + 1}: "
                f"flippable={flippable}, one_side={one_side}, gap={gap}"
            )
        if flippable:
            flips.append(pair)

    gh = gh_counts(base_n)
    fib = fibonacci(base_n + 2)
    if len(flips) != gh.g + gh.h:
        raise VerificationError(
            f"flippable count {len(flips)} != g+h = {gh.g}+{gh.h}"
        )
    if len(flips) != fib:
        raise VerificationError(
            f"flippable count {len(flips)} != F_{base_n + 2} = {fib}"
        )

    neighbors_checked = 0
    if check_friendly:
        unfriendly = unfriendly_flips(order, utilities)
        if unfriendly:
            raise VerificationError(
                f"flip over ({unfriendly[0].a.to_text()}, {unfriendly[0].b.to_text()}) "
                "yields a nonrepresentable neighbor"
            )
        # neither side of (empty set, {1}) holds the inserted atom, so the
        # trichotomy keeps it out of ``flips``: every flip has a neighbour
        neighbors_checked = len(flips)

    return FibonacciReport(
        base_n=base_n,
        atoms=base_n + 1,
        flippable_count=len(flips),
        g=gh.g,
        h=gh.h,
        fibonacci_expected=fib,
        critical_count=len(crits),
        neighbors_checked=neighbors_checked,
        all_friendly=check_friendly,
    )
