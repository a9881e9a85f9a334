"""Counting apparatus for the Fibonacci lower bound and the binomial/entropy
upper bounds on flippable-pair numbers.

g_n counts disjoint pairs of the doubled-binary order on [n] at utility gap
q_n + 1, h_n the same at gap q_n - 1; their sum is the flippable-pair count
of the inserted-value order on n+1 atoms and follows the Fibonacci
recurrences.  The upper bounds come from the adjacency budget (every
flippable pair occupies 2^r adjacencies) and from binary-entropy estimates
of binomial sums, certified here with outward-rounded interval arithmetic.
"""

from __future__ import annotations

import functools
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from mpmath import iv

from .errors import RangeError, VerificationError
from .flips import critical_pairs, is_flippable
from .orders import maclagan_utilities, order_from_utilities, subset_sums
from .represent import unfriendly_flips
from .sequences import fibonacci, q_value

_IV_PREC = 96
_LAMBDA_BITS = 48  # > 14 decimal digits


@dataclass(frozen=True)
class GHCounts:
    n: int
    g: int
    h: int


def gh_counts(n: int) -> GHCounts:
    """Disjoint-pair counts of the doubled-binary order at gaps q_n +- 1.

    Subset utilities under weights (2, 4, ..., 2^n) are exactly twice the
    mask value, so pairs at an even gap 2d are masks (a, a+d) that are
    bitwise disjoint; one O(2^n) sweep per gap.
    """
    if not 3 <= n <= 20:
        raise ValueError(f"gh_counts supports 3 <= n <= 20, got {n}")
    q = q_value(n)

    def pairs_at_gap(gap: int) -> int:
        if gap % 2:
            raise VerificationError(f"gap {gap} is odd; doubled weights give even gaps only")
        d = gap // 2
        top = 1 << n
        return sum(1 for a in range(top - d) if a & (a + d) == 0)

    return GHCounts(n, pairs_at_gap(q.q_plus), pairs_at_gap(q.q_minus))


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
# Entropy machinery.  All inequalities are certified with interval
# arithmetic: an interval endpoint is converted to an exact dyadic Fraction
# before any comparison, so directed rounding is preserved end to end.


def _fraction_from_raw(raw) -> Fraction:
    sign, man, exp, _ = raw
    value = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -value if sign else value


def _interval_bounds(x) -> tuple[Fraction, Fraction]:
    lo_raw, hi_raw = x._mpi_
    return _fraction_from_raw(lo_raw), _fraction_from_raw(hi_raw)


def _iv_fraction(value: Fraction):
    return iv.mpf(value.numerator) / value.denominator


def _entropy_iv(x):
    """Binary entropy -x log2 x - (1-x) log2 (1-x) as an interval."""
    ln2 = iv.log(2)
    return -(x * iv.log(x) + (1 - x) * iv.log(1 - x)) / ln2


def _excess_iv(x):
    """x + H(x) - 1; strictly increasing on (0, 1/2), root at lambda."""
    return x + _entropy_iv(x) - 1


@contextmanager
def _working_precision():
    """Run the block with mpmath's interval context at _IV_PREC bits."""
    old = iv.prec
    iv.prec = _IV_PREC
    try:
        yield
    finally:
        iv.prec = old


@functools.cache
def lambda_bracket() -> tuple[Fraction, Fraction]:
    """Certified enclosure of the root of x + H(x) = 1, width < 2^-48."""
    with _working_precision():
        lo, hi = Fraction(1, 5), Fraction(1, 4)
        _, f_lo_upper = _interval_bounds(_excess_iv(_iv_fraction(lo)))
        f_hi_lower, _ = _interval_bounds(_excess_iv(_iv_fraction(hi)))
        if not (f_lo_upper < 0 < f_hi_lower):
            raise AssertionError("bisection seed does not bracket lambda")
        for _ in range(_LAMBDA_BITS + 3):
            mid = (lo + hi) / 2
            f_lo, f_hi = _interval_bounds(_excess_iv(_iv_fraction(mid)))
            if f_hi < 0:
                lo = mid
            elif f_lo > 0:
                hi = mid
            else:  # pragma: no cover - 96-bit intervals decide dyadic midpoints
                raise AssertionError("interval too wide to place bisection midpoint")
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
    with _working_precision():
        f_lo, f_hi = _interval_bounds(_excess_iv(_iv_fraction(c)))
        if f_lo <= 0:
            if f_hi < 0:
                raise RangeError(f"c = {c} is not above lambda")
            raise RangeError(f"c = {c} is indistinguishable from lambda at working precision")
        ln2 = iv.log(2)
        entropy = _entropy_iv(_iv_fraction(c))
        rate = iv.exp(entropy * ln2)
        bound = iv.exp(entropy * ln2 * n)
        rate_lo, rate_hi = _interval_bounds(rate)
        bound_lo, bound_hi = _interval_bounds(bound)
        return EntropyBound(c, n, rate_lo, rate_hi, bound_lo, bound_hi)


def lambda_rate_bracket() -> tuple[Fraction, Fraction]:
    """Certified enclosure of the limiting growth rate 2^{H(lambda)}.

    H is strictly increasing on (0, 1/2) and lambda < 1/4, so evaluating the
    rate at the two bracket endpoints enclosing lambda brackets the value.
    """
    lo, hi = lambda_bracket()
    with _working_precision():
        ln2 = iv.log(2)
        at_lo = _interval_bounds(iv.exp(_entropy_iv(_iv_fraction(lo)) * ln2))
        at_hi = _interval_bounds(iv.exp(_entropy_iv(_iv_fraction(hi)) * ln2))
        return at_lo[0], at_hi[1]


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


def verify_fibonacci_construction(
    base_n: int, check_friendly: bool = True, allow_large: bool = False
) -> FibonacciReport:
    """Build the inserted-value order on base_n + 1 atoms and verify:

    (i)   its flippable-pair count equals g + h and the Fibonacci number
          F_{base_n + 2};
    (ii)  on every critical pair, flippable <=> exactly one side contains
          the inserted atom <=> utility gap is 1 (the three-way equivalence);
    (iii) every flip neighbour is representable (all flips friendly).

    Raises VerificationError naming the first failed assertion.
    """
    if base_n < 3:
        raise ValueError(f"construction needs base_n >= 3, got {base_n}")
    if base_n > 11:
        if not allow_large:
            raise ValueError(
                "base_n > 11 is outside the checked range; pass allow_large=True"
            )
        warnings.warn(
            f"verifying base_n={base_n} beyond the standard range; this is slow",
            RuntimeWarning,
            stacklevel=2,
        )
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
                f"trichotomy fails at ranks {pair.rank_a},{pair.rank_b}: "
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
