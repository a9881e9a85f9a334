"""q_n, Fibonacci numbers, g/h counts, and the certified entropy bounds."""

from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cporders.bounds import (
    entropy_bound,
    gh_counts,
    lambda_bracket,
    lambda_rate_bracket,
    upper_bound,
    verify_fibonacci_construction,
)
from cporders.errors import RangeError, VerificationError
from cporders.flips import flippable_pairs
from cporders.orders import maclagan_utilities, order_from_utilities
from cporders.sequences import fibonacci, fibonacci_nearest_phi, q_value


class TestQValue:
    def test_small_values(self):
        assert q_value(3).q == 3
        assert q_value(4).q == 5
        assert q_value(5).q == 11
        assert q_value(6).q == 21

    @pytest.mark.parametrize("n", range(3, 65))
    def test_closed_form_is_integral(self, n):
        q = q_value(n)
        assert 3 * q.q == (1 << n) + (-1) ** (n + 1)
        assert q.q_minus == q.q - 1 and q.q_plus == q.q + 1

    @pytest.mark.parametrize("n", range(3, 64))
    def test_neighbor_doubling_identities(self, n):
        cur, nxt = q_value(n), q_value(n + 1)
        if n % 2 == 1:
            assert nxt.q_minus == 2 * cur.q_minus
            assert nxt.q_plus == 2 * cur.q_plus - 2
        else:
            assert nxt.q_minus == 2 * cur.q_minus + 2
            assert nxt.q_plus == 2 * cur.q_plus

    def test_congruences(self):
        for n in range(3, 30):
            q = q_value(n)
            assert q.q % 4 == (2 + (-1) ** (n + 1)) % 4
            if n % 2 == 0:
                assert q.q_minus % 4 == 0 and q.q_plus % 4 == 2
            else:
                assert q.q_minus % 4 == 2 and q.q_plus % 4 == 0

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            q_value(2)


class TestFibonacci:
    def test_values(self):
        assert [fibonacci(k) for k in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    @pytest.mark.parametrize("k", list(range(1, 40)) + [64, 100, 200])
    def test_golden_ratio_identity(self, k):
        assert fibonacci_nearest_phi(k) == fibonacci(k)

    def test_gh_sums_are_fibonacci(self):
        for n in range(3, 13):
            gh = gh_counts(n)
            assert gh.g + gh.h == fibonacci(n + 2)


class TestGHCounts:
    def test_paper_seeds(self):
        assert (gh_counts(3).g, gh_counts(3).h) == (2, 3)
        assert (gh_counts(4).g, gh_counts(4).h) == (5, 3)
        assert (gh_counts(5).g, gh_counts(5).h) == (5, 8)

    @pytest.mark.parametrize("n", range(3, 19))
    def test_fibonacci_pattern(self, n):
        gh = gh_counts(n)
        if n % 2 == 1:
            assert (gh.g, gh.h) == (fibonacci(n), fibonacci(n + 1))
        else:
            assert (gh.g, gh.h) == (fibonacci(n + 1), fibonacci(n))

    @pytest.mark.parametrize("n", range(3, 18))
    def test_recurrences(self, n):
        cur, nxt = gh_counts(n), gh_counts(n + 1)
        if n % 2 == 1:
            assert (nxt.g, nxt.h) == (cur.g + cur.h, cur.h)
        else:
            assert (nxt.g, nxt.h) == (cur.g, cur.g + cur.h)

    def test_range_check(self):
        with pytest.raises(ValueError):
            gh_counts(2)
        with pytest.raises(ValueError):
            gh_counts(21)


class TestUpperBound:
    def test_examples(self):
        five = upper_bound(5)
        assert (five.s_star, five.count_upper, five.fib_lower) == (2, 16, 8)
        six = upper_bound(6)
        assert (six.s_star, six.count_upper, six.fib_lower) == (2, 22, 13)
        one = upper_bound(1)
        assert (one.s_star, one.count_upper) == (0, 1)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_minimality_and_consistency(self, n):
        report = upper_bound(n)
        target = (1 << n) - 1
        total = sum((1 << i) * _comb(n, i) for i in range(report.s_star + 1))
        assert total >= target
        if report.s_star > 0:
            below = sum((1 << i) * _comb(n, i) for i in range(report.s_star))
            assert below < target
        assert report.fib_lower <= report.count_upper


def _comb(n, k):
    from math import comb

    return comb(n, k)


class TestEntropyBounds:
    def test_rate_quarter_below_published_value(self):
        bound = entropy_bound(1, Fraction(1, 4))
        assert bound.rate_upper < Fraction("1.7548")
        assert bound.rate_lower > Fraction("1.7547")

    def test_bound_scales_with_n(self):
        one = entropy_bound(1, Fraction(1, 4))
        ten = entropy_bound(10, Fraction(1, 4))
        assert ten.bound_lower > one.bound_upper ** 9  # 2^{10 H} vs 2^{9 H}

    def test_lambda_bracket_tight_and_correct(self):
        lo, hi = lambda_bracket()
        assert hi - lo < Fraction(1, 1 << 48)
        assert Fraction("0.227") < lo < hi < Fraction("0.228")

    def test_lambda_rate_rounds_to_published_value(self):
        lo, hi = lambda_rate_bracket()
        assert Fraction("1.70865") < lo <= hi < Fraction("1.70875")

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            entropy_bound(5, Fraction(1, 2))
        with pytest.raises(RangeError):
            entropy_bound(5, Fraction(22, 100))  # below lambda
        with pytest.raises(RangeError):
            entropy_bound(5, 0)


# ---------------------------------------------------------------------------
# A slow exact oracle: Fraction partial sums with rigorous tail bounds, each
# step rounded outward to a 2^-72 grid, enclosing values to about 2^-60.

_GRID = 1 << 72
_EPS = Fraction(1, 1 << 64)


def _outward(lo, hi):
    return Fraction(floor(lo * _GRID), _GRID), Fraction(ceil(hi * _GRID), _GRID)


def _oracle_atanh(z):
    """Sum of z^k / k over odd k, 0 <= z < 1; the rest is below z^k / (k (1 - z^2))."""
    total, k = Fraction(0), 1
    while z**k > _EPS:
        total += z**k / k
        k += 2
    return _outward(total, total + z**k / (k * (1 - z * z)))


def _oracle_ln(x):
    k = 0
    while x >= 2:
        x, k = x / 2, k + 1
    while x < 1:
        x, k = x * 2, k - 1
    a_lo, a_hi = _oracle_atanh((x - 1) / (x + 1))
    ln2_lo, ln2_hi = _oracle_ln2()
    k_lo, k_hi = sorted((k * ln2_lo, k * ln2_hi))
    return _outward(k_lo + 2 * a_lo, k_hi + 2 * a_hi)


def _oracle_ln2():
    lo, hi = _oracle_atanh(Fraction(1, 3))
    return 2 * lo, 2 * hi


def _oracle_entropy(c):
    """H(c) in bits for 0 < c < 1/2, where it is positive."""
    e_lo = e_hi = Fraction(0)
    for w in (c, 1 - c):
        ln_lo, ln_hi = _oracle_ln(w)
        e_lo, e_hi = e_lo - w * ln_hi, e_hi - w * ln_lo
    ln2_lo, ln2_hi = _oracle_ln2()
    assert e_lo > 0
    return _outward(e_lo / ln2_hi, e_hi / ln2_lo)


def _oracle_exp(t_lo, t_hi):
    """exp on [t_lo, t_hi], 0 <= t <= 1/2: Taylor sums with the Lagrange
    remainder e^s t^J / J! <= 2 t^J / J!."""
    ends = []
    for t, up in ((t_lo, False), (t_hi, True)):
        total, term, j = Fraction(0), Fraction(1), 0
        while term > _EPS:
            total, j = total + term, j + 1
            term = term * t / j
        ends.append(total + 2 * term * up)
    return _outward(*ends)


def _oracle_pow2(y_lo, y_hi):
    """2^y on [y_lo, y_hi], y >= 0, as exp(y ln 2 / 2^s) squared s times."""
    ln2_lo, ln2_hi = _oracle_ln2()
    t_lo, t_hi, s = y_lo * ln2_lo, y_hi * ln2_hi, 0
    while t_hi > Fraction(1, 2):
        t_lo, t_hi, s = t_lo / 2, t_hi / 2, s + 1
    lo, hi = _oracle_exp(t_lo, t_hi)
    for _ in range(s):
        lo, hi = _outward(lo * lo, hi * hi)
    return lo, hi


def _meet(lo, hi, other):
    return max(lo, other[0]) <= min(hi, other[1])


def _narrow(lo, hi):
    return 0 < lo <= hi and hi - lo < lo / (1 << 80)


class TestEntropyOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        c=st.fractions(Fraction(11, 50), Fraction(1, 2), max_denominator=64).filter(
            lambda c: lambda_bracket()[1] < c < Fraction(1, 2)
        ),
        n=st.integers(1, 30),
    )
    def test_enclosures_meet_the_oracle(self, c, n):
        bound = entropy_bound(n, c)
        h_lo, h_hi = _oracle_entropy(c)
        assert _meet(bound.rate_lower, bound.rate_upper, _oracle_pow2(h_lo, h_hi))
        assert _meet(bound.bound_lower, bound.bound_upper, _oracle_pow2(n * h_lo, n * h_hi))
        assert _narrow(bound.rate_lower, bound.rate_upper)
        assert _narrow(bound.bound_lower, bound.bound_upper)

    def test_lambda_rate_meets_the_oracle(self):
        lo, hi = lambda_bracket()
        rate_lo, rate_hi = lambda_rate_bracket()
        oracle = _oracle_pow2(_oracle_entropy(lo)[0], _oracle_entropy(hi)[1])
        assert _meet(rate_lo, rate_hi, oracle)

    def test_oracle_brackets_lambda(self):
        # lambda is the root of x + H(x) = 1, strictly increasing below 1/2
        lo, hi = lambda_bracket()
        assert lo + _oracle_entropy(lo)[1] < 1 < hi + _oracle_entropy(hi)[0]

    def test_lambda_bracket_is_pinned(self):
        assert lambda_bracket() == (
            Fraction(2556830814421511, 11258999068426240),
            Fraction(2045464651537209, 9007199254740992),
        )

    def test_bracket_ends_are_the_acceptance_edge(self):
        lo, hi = lambda_bracket()
        assert entropy_bound(3, hi).c == hi
        with pytest.raises(RangeError, match="is not above lambda"):
            entropy_bound(3, lo)


class TestVerifyFibonacciConstruction:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_small_bases(self, n):
        report = verify_fibonacci_construction(n)
        assert report.flippable_count == fibonacci(n + 2)
        assert report.all_friendly
        assert report.g + report.h == report.flippable_count

    def test_unfriendly_flip_is_named(self, monkeypatch):
        from cporders import bounds

        monkeypatch.setattr(bounds, "unfriendly_flips", lambda order, u: flippable_pairs(order))
        first = flippable_pairs(order_from_utilities(maclagan_utilities(3)))[0]
        with pytest.raises(VerificationError, match=rf"flip over \({first.a.to_text()}, "):
            verify_fibonacci_construction(3)

    def test_count_only_mode(self):
        report = verify_fibonacci_construction(6, check_friendly=False)
        assert report.flippable_count == 21
        assert report.neighbors_checked == 0

    def test_base_above_15_is_rejected(self):
        with pytest.raises(ValueError, match="3..15, got 16"):
            verify_fibonacci_construction(16)

    def test_base_12_needs_no_flag(self):
        # ~0.5 s with friendliness on a 2-core Xeon
        report = verify_fibonacci_construction(12)
        assert report.flippable_count == 377 == fibonacci(14)
        assert report.all_friendly

    def test_rejects_tiny_base(self):
        with pytest.raises(ValueError):
            verify_fibonacci_construction(2)
