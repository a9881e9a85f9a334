"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Criterion 6 (the n=6 census: 169,444 orders, then one cone scan per order)
takes minutes, more than this suite should, so it is budget-gated: the ``ctx``
fixture passes the seconds in this suite's own CPOL_N6_BUDGET environment
variable as ``n6_budget`` (the package reads no environment; the CLI takes
``--n6-budget``), and the criterion reports SKIP unless that is set high
enough for both stages.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import os
import time

import pytest

from cporders import census, repro
from cporders.errors import VerificationError


@pytest.fixture(scope="module")
def ctx(n3_census, n4_census, n5_census):
    budget = os.environ.get("CPOL_N6_BUDGET")
    context = repro.ReproContext(n6_budget=float(budget) if budget else None)
    context._census[3] = n3_census
    context._census[4] = n4_census
    context._census[5] = n5_census
    return context


def report(result):
    print(result.line())
    if result.skipped:
        pytest.skip(result.detail)
    assert result.passed, result.detail


def test_criterion_01_fibonacci_counts(ctx):
    report(repro.criterion_1_fibonacci_counts(ctx))


def test_criterion_02_friendliness(ctx):
    report(repro.criterion_2_friendliness(ctx))


def test_criterion_03_gh_table(ctx):
    report(repro.criterion_3_gh_table(ctx))


def test_criterion_04_census_3_4(ctx):
    report(repro.criterion_4_small_censuses(ctx))


def test_criterion_05_census_5(ctx):
    report(repro.criterion_5_census_5(ctx))


def test_criterion_06_census_6(ctx):
    report(repro.criterion_6_census_6(ctx))


def test_criterion_07_theorem2_bijection(ctx):
    report(repro.criterion_7_theorem2(ctx))


def test_criterion_08_cone_axioms(ctx):
    report(repro.criterion_8_cone_axioms(ctx))


def test_criterion_09_bounds(ctx):
    report(repro.criterion_9_bounds(ctx))


def test_criterion_10_oracle_equivalence(ctx):
    report(repro.criterion_10_oracle(ctx))


def test_criterion_11_trichotomy(ctx):
    report(repro.criterion_11_trichotomy(ctx))


def test_criterion_12_adjacency_budget(ctx):
    report(repro.criterion_12_adjacency_budget(ctx))


def test_criterion_06_runs_the_max_flip_shortcut(n5_census, monkeypatch):
    # the n=5 census without flags or edges stands in for the n=6 one
    bare = repro.OrderCensus(5, n5_census.orders)
    monkeypatch.setattr(repro, "enumerate_orders", lambda *args, **kwargs: bare)
    result = repro.criterion_6_census_6(repro.ReproContext(n6_budget=1.0))
    assert not result.passed and result.detail == "m(6)=8 != 13"


def test_criterion_06_decides_M6_on_the_max_flip_orders(n5_census, monkeypatch):
    # five extra irreducibles per cone lift the n=5 maximum 8 to 13, so the
    # nine 8-flip orders (all friendly) play the 13-flip orders
    bare = repro.OrderCensus(5, n5_census.orders)
    monkeypatch.setattr(repro, "enumerate_orders", lambda *args, **kwargs: bare)
    # the cone stage counts through repro._irreducible_count
    real_count = repro._irreducible_count
    monkeypatch.setattr(repro, "_irreducible_count", lambda order: real_count(order) + 5)
    decided = []
    real_decide = repro.is_representable

    def decide(order):
        decided.append(order)
        return real_decide(order)

    monkeypatch.setattr(repro, "is_representable", decide)
    ctx = repro.ReproContext(n6_budget=60.0)
    result = repro.criterion_6_census_6(ctx)
    assert result.passed and not result.skipped
    assert result.detail == "546 orders, m(6)=M(6)=13 (max-flip orders all friendly)"
    assert len(decided) == n5_census.irr_counts.count(8) == 9
    monkeypatch.setattr(repro, "unfriendly_flips", lambda order, utilities: [None])
    result = repro.criterion_6_census_6(ctx)
    assert not result.passed
    assert result.detail == "a 13-flip order is nonrepresentable or has an unfriendly flip"


def test_a_lost_irreducible_fails_the_census_criteria(monkeypatch):
    # every census count checks Theorem 2, so a cone kernel that loses an
    # irreducible element fails criteria 4 and 7 instead of passing them
    real = census.irreducible_elements
    monkeypatch.setattr(
        census, "irreducible_elements", lambda cone: frozenset(sorted(real(cone))[1:])
    )
    status = {r.number: r.status for r in repro.run_all()}
    assert status[4] == status[7] == "FAIL"


def test_criterion_06_budget_covers_the_cone_stage(n5_census, monkeypatch):
    bare = repro.OrderCensus(5, n5_census.orders)
    monkeypatch.setattr(repro, "enumerate_orders", lambda *args, **kwargs: bare)
    result = repro.criterion_6_census_6(repro.ReproContext(n6_budget=1e-9))
    assert result.skipped and result.passed
    assert result.detail == "budget of 0s exhausted after 0 of 546 cones (reported, not failed)"


def test_criterion_06_cone_counts_agree_across_workers(n5_census):
    later = time.monotonic() + 600
    one = repro._irreducible_counts(n5_census.orders, later, threads=1)
    two = repro._irreducible_counts(n5_census.orders, later, threads=2)
    assert one == two == n5_census.irr_counts
    assert repro._irreducible_counts(n5_census.orders, time.monotonic() - 1, threads=2) == []


def test_registry_holds_the_module_criteria():
    assert sorted(repro.ALL_CRITERIA) == list(range(1, 13))
    for number, registered in repro.ALL_CRITERIA.items():
        named = [fn for name, fn in vars(repro).items() if name.startswith(f"criterion_{number}_")]
        assert len(named) == 1 and named[0] is registered


def test_decorator_reports_pass_fail_and_skip(monkeypatch):
    monkeypatch.setattr(repro, "ALL_CRITERIA", {})

    @repro.criterion(3, "returns")
    def passes(ctx):
        return "fine"

    @repro.criterion(1, "raises")
    def fails(ctx):
        raise VerificationError("broken")

    @repro.criterion(2, "skips")
    def skips(ctx):
        raise repro.Skipped("later")

    assert repro.ALL_CRITERIA == {1: fails, 2: skips, 3: passes}
    got = [(r.number, r.name, r.status, r.detail) for r in repro.run_all()]
    assert got == [
        (1, "raises", "FAIL", "broken"),
        (2, "skips", "SKIP", "later"),
        (3, "returns", "PASS", "fine"),
    ]
