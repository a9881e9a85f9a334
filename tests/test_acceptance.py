"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Criterion 6 (the n=6 census of 169,444 orders with flags, cone counts and
edges) takes about a minute, more than this suite should, so it is
budget-gated: the ``ctx`` fixture passes the seconds in this suite's own
CPOL_N6_BUDGET environment variable as ``n6_budget`` (the package reads no
environment; the CLI takes ``--n6-budget``), and the criterion reports SKIP
unless that is set high enough for the whole census.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses
import os
import re
import time
from collections import Counter

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


def n5_expectations(census):
    """Criterion 6's expected census figures, read off the n=5 census."""
    stats = repro.census_stats(census)
    facets = Counter(f for f in repro.facet_counts_from_census(census) if f is not None)
    return {
        "m": stats.max_flippable,
        "representable": stats.representable_count,
        "irr_histogram": stats.irr_histogram,
        "facet_histogram": dict(facets),
    }


def test_criterion_06_runs_the_max_flip_shortcut(n5_census, monkeypatch):
    # the n=5 census stands in for the n=6 one: its most flippable pairs
    # are 8, and m(6) is checked first
    monkeypatch.setattr(repro, "enumerate_orders", lambda *args, **kwargs: n5_census)
    result = repro.criterion_6_census_6(repro.ReproContext(n6_budget=1.0))
    assert not result.passed and result.detail == "m(6)=8 != 13"


def test_criterion_06_decides_M6_on_the_max_flip_orders(n5_census, monkeypatch):
    # with the n=5 figures expected, the n=5 census passes; M(6) = m(6) rests
    # on every max-flip order being representable with all flips friendly
    monkeypatch.setattr(repro, "enumerate_orders", lambda *args, **kwargs: n5_census)
    monkeypatch.setattr(repro, "CENSUS_6", n5_expectations(n5_census))
    ctx = repro.ReproContext(n6_budget=60.0)
    result = repro.criterion_6_census_6(ctx)
    assert result.passed and not result.skipped
    assert result.detail == (
        "546 orders, 516 representable, m(6)=M(6)=8 (max-flip orders all friendly), "
        "min facets 5, one component in both flip graphs"
    )
    real_stats = repro.census_stats
    monkeypatch.setattr(
        repro,
        "census_stats",
        lambda census: dataclasses.replace(real_stats(census), max_irr_all_friendly=False),
    )
    result = repro.criterion_6_census_6(ctx)
    assert not result.passed
    assert result.detail == "a 8-flip order is nonrepresentable or has an unfriendly flip"


@pytest.mark.parametrize(
    "key, detail",
    [
        ("representable", "n=6 representable 516 != 517"),
        ("facet_histogram", "n=6 facet histogram {"),
    ],
)
def test_criterion_06_checks_the_census_figures(n5_census, monkeypatch, key, detail):
    expected = n5_expectations(n5_census)
    if key == "representable":
        expected[key] += 1
    else:
        expected[key] = {**expected[key], 5: expected[key][5] + 1}
    monkeypatch.setattr(repro, "enumerate_orders", lambda *args, **kwargs: n5_census)
    monkeypatch.setattr(repro, "CENSUS_6", expected)
    result = repro.criterion_6_census_6(repro.ReproContext(n6_budget=60.0))
    assert not result.passed and result.detail.startswith(detail)


def test_a_lost_irreducible_fails_the_census_criteria(monkeypatch):
    # every census count checks Theorem 2, so a cone kernel that loses an
    # irreducible element fails criteria 4 and 7 instead of passing them
    real = census._irreducible_bits
    monkeypatch.setattr(census, "_irreducible_bits", lambda cone: (bits := real(cone)) & bits - 1)
    status = {r.number: r.status for r in repro.run_all()}
    assert status[4] == status[7] == "FAIL"


def test_criterion_06_budget_covers_the_cone_stage(monkeypatch):
    # one budget runs through generation and the flag stage, which counts
    # each order's cone; both report SKIP with what was done
    result = repro.criterion_6_census_6(repro.ReproContext(n6_budget=1e-9))
    assert result.skipped and result.passed
    pattern = r"budget of 0s exhausted after \d+ orders \(reported, not failed\)"
    assert re.fullmatch(pattern, result.detail)

    def flags_past_the_deadline(n, budget, threads):
        census_5 = census.enumerate_orders(5, with_flags=False, with_edges=False)
        census._annotate_flags(census_5, time.monotonic(), None)

    monkeypatch.setattr(repro, "enumerate_orders", flags_past_the_deadline)
    result = repro.criterion_6_census_6(repro.ReproContext(n6_budget=1e-9))
    assert result.skipped and result.passed
    detail = "budget of 0s exhausted after 1 of 546 census flags (reported, not failed)"
    assert result.detail == detail


def test_criterion_06_cone_counts_agree_across_workers(n5_census, monkeypatch):
    # criterion 6 takes the census route with the context's workers, and
    # the counts and flags that come back through the pool are the
    # one-process ones
    asked = []

    def n5_route(n, budget, threads):
        asked.append(threads)
        return census.enumerate_orders(5, budget=budget, threads=threads)

    monkeypatch.setattr(repro, "enumerate_orders", n5_route)
    monkeypatch.setattr(repro, "CENSUS_6", n5_expectations(n5_census))
    for threads in (1, 2):
        result = repro.criterion_6_census_6(repro.ReproContext(threads=threads, n6_budget=600.0))
        assert result.passed and not result.skipped, result.detail
    assert asked == [1, 2]
    pooled = census.enumerate_orders(5, threads=2)
    assert pooled.irr_counts == n5_census.irr_counts
    assert pooled.representable == n5_census.representable


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
