"""Reproduction checks: every published number and structural claim this
package is built around, as pass/fail functions shared by the test suite
and the ``repro`` CLI subcommand.

Each check is declared once with ``@criterion(number, name)``, which
registers it in ALL_CRITERIA.  A check returns its PASS detail, raises
VerificationError(detail) to FAIL, or raises Skipped(detail) to SKIP; the
registered wrapper turns that into a CriterionResult.  Nothing here prints
or exits by itself.  Expensive intermediates (censuses, verified
constructions) are memoised on a ReproContext so overlapping criteria share
work.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from typing import Callable, Optional

from .bounds import (
    entropy_bound,
    gh_counts,
    lambda_rate_bracket,
    upper_bound,
    verify_fibonacci_construction,
)
from .census import (
    OrderCensus,
    _irreducible_count,
    brute_force_oracle,
    census_stats,
    enumerate_orders,
    worker_map,
)
from .cones import cone_from_order
from .errors import ResourceError, TieError, VerificationError
from .flips import _flippable_masks
from .orders import ComparativeOrder, maclagan_utilities, order_from_utilities
from .represent import (
    check_trading_transform,
    find_trading_transform,
    is_representable,
    unfriendly_flips,
)
from .sequences import fibonacci

FIB_BASE_RANGE = range(3, 12)  # base n; orders live on 4..12 atoms


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    skipped: bool = False

    @property
    def status(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return f"criterion {self.number:2d} [{self.name}]: {self.status} - {self.detail}"


class Skipped(Exception):
    """Raised by a check that was not attempted or ran out of budget; the
    message is the SKIP detail."""


class ReproContext:
    """Shared memo for censuses and verified constructions, and the seconds
    criterion 6 may spend (None: skip it)."""

    def __init__(self, threads: int = 1, n6_budget: Optional[float] = None):
        self.threads = threads
        self.n6_budget = n6_budget
        self._census: dict[int, OrderCensus] = {}
        self._construction: dict[tuple[int, bool], object] = {}

    def census(self, n: int) -> OrderCensus:
        if n not in self._census:
            self._census[n] = enumerate_orders(n, threads=self.threads)
        return self._census[n]

    def construction(self, base_n: int, check_friendly: bool):
        key = (base_n, check_friendly)
        if key not in self._construction:
            self._construction[key] = verify_fibonacci_construction(
                base_n, check_friendly=check_friendly
            )
        return self._construction[key]


Check = Callable[[ReproContext], str]
Criterion = Callable[[ReproContext], CriterionResult]
ALL_CRITERIA: dict[int, Criterion] = {}


def criterion(number: int, name: str) -> Callable[[Check], Criterion]:
    """Declare a check as criterion ``number``: the returned wrapper is
    registered in ALL_CRITERIA and reports the check as a CriterionResult."""

    def register(check: Check) -> Criterion:
        @wraps(check)
        def run(ctx: ReproContext) -> CriterionResult:
            try:
                return CriterionResult(number, name, True, check(ctx))
            except VerificationError as exc:
                return CriterionResult(number, name, False, str(exc))
            except Skipped as exc:
                return CriterionResult(number, name, True, str(exc), skipped=True)

        ALL_CRITERIA[number] = run
        return run

    return register


def random_utility_order(n: int, rng: random.Random) -> ComparativeOrder:
    """Order induced by random positive integer utilities; retries ties."""
    while True:
        utilities = tuple(rng.randrange(1, 1_000_000) for _ in range(n))
        try:
            return order_from_utilities(utilities)
        except TieError:
            continue


@criterion(1, "fibonacci-counts")
def criterion_1_fibonacci_counts(ctx: ReproContext) -> str:
    expected = {n: fibonacci(n + 2) for n in FIB_BASE_RANGE}
    got = {n: ctx.construction(n, check_friendly=False).flippable_count for n in FIB_BASE_RANGE}
    detail = ", ".join(f"n={n}+1: {got[n]}" for n in FIB_BASE_RANGE)
    if got != expected:
        raise VerificationError(detail)
    return detail


@criterion(2, "friendly-flips")
def criterion_2_friendliness(ctx: ReproContext) -> str:
    checked = sum(
        ctx.construction(n, check_friendly=True).neighbors_checked for n in FIB_BASE_RANGE
    )
    return f"{checked} neighbors, all representable (exact)"


@criterion(3, "gh-table")
def criterion_3_gh_table(ctx: ReproContext) -> str:
    table = [gh_counts(n) for n in range(3, 19)]
    g3h3, g4h4 = table[:2]
    if (g3h3.g, g3h3.h) != (2, 3) or (g4h4.g, g4h4.h) != (5, 3):
        raise VerificationError(f"seeds wrong: {g3h3}, {g4h4}")
    for cur, nxt in zip(table, table[1:]):
        n = cur.n
        if n % 2 == 1:
            ok = nxt.g == cur.g + cur.h and nxt.h == cur.h
        else:
            ok = nxt.g == cur.g and nxt.h == cur.g + cur.h
        if not ok:
            raise VerificationError(f"recurrence fails at n={n}: {cur} -> {nxt}")
    return "seeds (2,3),(5,3) and recurrences hold for n=3..18"


@criterion(4, "census-3-4")
def criterion_4_small_censuses(ctx: ReproContext) -> str:
    details = []
    for n, value in {3: 3, 4: 5}.items():
        stats = census_stats(ctx.census(n))
        if stats.max_flippable != value or stats.max_facets != value:
            raise VerificationError(
                f"n={n}: m={stats.max_flippable}, M={stats.max_facets}, want {value}"
            )
        if stats.min_facets != n:
            raise VerificationError(f"n={n}: min facets {stats.min_facets}, want {n}")
        details.append(f"m({n})=M({n})={value}, min facets {stats.min_facets}")
    return "; ".join(details)


@criterion(5, "census-5")
def criterion_5_census_5(ctx: ReproContext) -> str:
    census = ctx.census(5)
    stats = census_stats(census)
    if sorted(stats.irr_histogram) != [5, 6, 7, 8]:
        raise VerificationError(f"irr values {sorted(stats.irr_histogram)} != [5..8]")
    if not stats.max_irr_all_friendly:
        raise VerificationError("a max-flip order is nonrepresentable or has an unfriendly flip")
    if stats.max_facets != 8:
        raise VerificationError(f"M(5)={stats.max_facets} != 8")
    nonrep = [i for i, r in enumerate(census.representable) if not r]
    if not nonrep:
        raise VerificationError("no nonrepresentable order found")
    order = census.orders[nonrep[0]]
    transform = find_trading_transform(order, k_max=4)
    if transform is None or not check_trading_transform(transform, order):
        raise VerificationError(
            "no trading transform at k_max=4 for a nonrepresentable order"
        )
    return (
        f"{stats.order_count} orders, irr histogram {stats.irr_histogram}, "
        f"M(5)=8, {len(nonrep)} nonrepresentable, transform length {transform.length}"
    )


def _irreducible_counts(
    orders: list[ComparativeOrder], deadline: float, threads: int
) -> list[int]:
    """Irreducible-element counts of the orders' cones, in order, over
    ``threads`` worker processes when threads > 1.  The deadline is checked
    before each result is taken; past it, the counts so far are returned."""
    counts = []
    with worker_map(_irreducible_count, orders, threads, chunksize=256) as results:
        for _ in orders:
            if time.monotonic() > deadline:
                break
            counts.append(next(results))
    return counts


@criterion(6, "census-6")
def criterion_6_census_6(ctx: ReproContext) -> str:
    budget = ctx.n6_budget
    if budget is None or budget <= 0:
        # the golden repro report holds this detail byte for byte
        raise Skipped("not attempted (long-running; set CPOL_N6_BUDGET seconds to enable)")
    # one deadline for generation and the cone stage
    deadline = time.monotonic() + budget
    try:
        census = enumerate_orders(6, with_flags=False, with_edges=False, budget=budget)
    except ResourceError as exc:
        done = len(exc.partial.orders) if exc.partial is not None else 0
        raise Skipped(
            f"budget of {budget:.0f}s exhausted after {done} orders (reported, not failed)"
        ) from None
    irr_counts = _irreducible_counts(census.orders, deadline, ctx.threads)
    if len(irr_counts) < len(census.orders):
        raise Skipped(
            f"budget of {budget:.0f}s exhausted after {len(irr_counts)} of "
            f"{len(census.orders)} cones (reported, not failed)"
        )
    m = max(irr_counts)
    if m != 13:
        raise VerificationError(f"m(6)={m} != 13")
    # facets never exceed flippable pairs (= irreducible elements, Theorem 2),
    # so M(6) = m(6) once every max-flip order is representable with all
    # flips friendly
    for order, irr in zip(census.orders, irr_counts):
        if irr == m:
            cert = is_representable(order)
            if not cert.representable or unfriendly_flips(order, cert.utilities):
                raise VerificationError(
                    "a 13-flip order is nonrepresentable or has an unfriendly flip"
                )
    return f"{len(census.orders)} orders, m(6)=M(6)=13 (max-flip orders all friendly)"


@criterion(7, "flippable-irreducible")
def criterion_7_theorem2(ctx: ReproContext) -> str:
    # _irreducible_count raises unless Theorem 2 holds, and a census with
    # flags has run it on each of its orders
    checked = sum(len(ctx.census(n).orders) for n in (1, 2, 3, 4, 5))
    rng = random.Random(20240311)
    for n in (6, 7, 8):
        for _ in range(100):
            _irreducible_count(random_utility_order(n, rng))
            checked += 1
    return f"bijection holds on {checked} orders"


@criterion(8, "cone-axioms")
def criterion_8_cone_axioms(ctx: ReproContext) -> str:
    rng = random.Random(20240312)
    checked = 0
    for n in (3, 4, 5, 6):
        for _ in range(100):
            cone = cone_from_order(random_utility_order(n, rng))  # enforces D1, D2 size
            if not cone.check_d2_exhaustive():
                raise VerificationError(f"D2 fails (n={n})")
            if not cone.check_d3_exhaustive():
                raise VerificationError(f"D3 fails (n={n})")
            checked += 1
    return f"D1-D3 hold exhaustively on {checked} random cones"


@criterion(9, "bounds")
def criterion_9_bounds(ctx: ReproContext) -> str:
    if upper_bound(5).count_upper != 16 or upper_bound(6).count_upper != 22:
        raise VerificationError(
            f"upper bounds {upper_bound(5).count_upper}, {upper_bound(6).count_upper} != 16, 22"
        )
    for n in range(3, 25):
        report = upper_bound(n)
        if report.fib_lower > report.count_upper:
            raise VerificationError(f"F_{n + 1} exceeds the upper bound at n={n}")
    rate = entropy_bound(1, Fraction(1, 4))
    if not rate.rate_upper < Fraction("1.7548"):
        raise VerificationError(
            f"2^H(1/4) upper endpoint {float(rate.rate_upper)} not below 1.7548"
        )
    lam_lo, lam_hi = lambda_rate_bracket()
    if not (Fraction("1.70865") < lam_lo <= lam_hi < Fraction("1.70875")):
        raise VerificationError(
            f"2^H(lambda) in [{float(lam_lo)}, {float(lam_hi)}] does not round to 1.7087"
        )
    return (
        "upper_bound(5)=16, upper_bound(6)=22, Fibonacci below the bound for n<=24, "
        "2^H(0.25) < 1.7548 and 2^H(lambda) = 1.7087... certified"
    )


@criterion(10, "oracle-equivalence")
def criterion_10_oracle(ctx: ReproContext) -> str:
    for n in (1, 2, 3):
        fast = {o.ranked for o in ctx.census(n).orders}
        slow = {o.ranked for o in brute_force_oracle(n).orders}
        if fast != slow:
            raise VerificationError(f"censuses disagree at n={n}")
    if len(ctx.census(3).orders) != 2:
        raise VerificationError(f"{len(ctx.census(3).orders)} orders at n=3, want 2")
    return "permutation filter matches for n=1,2,3 (2 orders at n=3)"


@criterion(11, "trichotomy")
def criterion_11_trichotomy(ctx: ReproContext) -> str:
    crits = sum(ctx.construction(n, check_friendly=False).critical_count for n in FIB_BASE_RANGE)
    return f"flippable <=> inserted-atom side <=> gap 1 on {crits} critical pairs"


def check_adjacency_budget(order: ComparativeOrder) -> tuple[bool, str]:
    n = order.n
    unions = [a | b for _, a, b in _flippable_masks(order)]
    # a flippable pair occupies 2^(n - |A|B|) adjacencies (CriticalPair.adjacencies)
    budget = sum(1 << (n - u.bit_count()) for u in unions)
    limit = (1 << n) - 1
    if budget > limit:
        return False, f"adjacency budget {budget} exceeds {limit}"
    if len(set(unions)) != len(unions):
        return False, "two flippable pairs share a union"
    return True, ""


@criterion(12, "adjacency-budget")
def criterion_12_adjacency_budget(ctx: ReproContext) -> str:
    checked = 0
    for n in (1, 2, 3, 4, 5):
        for order in ctx.census(n).orders:
            ok, why = check_adjacency_budget(order)
            if not ok:
                raise VerificationError(f"census n={n}: {why}")
            checked += 1
    for n in FIB_BASE_RANGE:
        ok, why = check_adjacency_budget(order_from_utilities(maclagan_utilities(n)))
        if not ok:
            raise VerificationError(f"construction n={n}: {why}")
        checked += 1
    return f"budget and distinct unions hold on {checked} orders"


def run_all(
    threads: int = 1, n6_budget: Optional[float] = None
) -> list[CriterionResult]:
    ctx = ReproContext(threads=threads, n6_budget=n6_budget)
    return [ALL_CRITERIA[number](ctx) for number in sorted(ALL_CRITERIA)]
