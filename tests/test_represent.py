"""Exact representability decisions, witnesses, and trading transforms."""

import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cporders.census import enumerate_orders, relabel_order, singleton_relabeling
from cporders.errors import (
    LengthMismatchError, NotNeighborsError, ResourceError, TieError, VerificationError,
)
from cporders.flips import flip, flip_neighbors, flippable_pairs
from cporders.lp import Feasibility, solve_feasibility
from cporders.orders import (
    ComparativeOrder,
    Subset,
    lexicographic_utilities,
    maclagan_utilities,
    order_from_line,
    _laned_copy,
    _lanes_rise,
    order_from_utilities,
    subset_sums,
    validate_order,
)
from cporders.represent import (
    Certificate,
    TradingTransform,
    check_certificate,
    check_trading_transform,
    find_trading_transform,
    is_representable,
    neighbor_witness_hint,
    unfriendly_flips,
)


def assert_farkas(rows, rhs, farkas):
    """lambda >= 0, lambda^T A <= 0 and lambda^T b > 0: no x >= 0 has A x >= b."""
    assert len(farkas) == len(rows)
    assert all(lam >= 0 for lam in farkas)
    for j in range(len(rows[0])):
        assert sum(lam * row[j] for lam, row in zip(farkas, rows)) <= 0
    assert sum(lam * b for lam, b in zip(farkas, rhs)) > 0


class TestSolveFeasibility:
    def test_simple_feasible(self):
        x, farkas = solve_feasibility([(1, 0), (0, 1), (1, 1)], [1, 1, 3])
        assert farkas is None
        assert x[0] >= 1 and x[1] >= 1 and x[0] + x[1] >= 3

    def test_simple_infeasible(self):
        # x >= 2 and -x >= -1 cannot both hold
        rows, rhs = [(1,), (-1,)], [2, -1]
        result = solve_feasibility(rows, rhs)
        assert result.solution is None
        assert_farkas(rows, rhs, result.farkas)

    def test_negative_rhs_rows(self):
        assert solve_feasibility([(-1, -1)], [-10]).solution == [0, 0]

    def test_empty_system(self):
        assert solve_feasibility([], []) == ([], None)

    def test_conflicting_chain(self):
        # a - b >= 1, b - c >= 1, c - a >= 1 sums to 0 >= 3
        rows, rhs = [(1, -1, 0), (0, 1, -1), (-1, 0, 1)], [1, 1, 1]
        result = solve_feasibility(rows, rhs)
        assert result.solution is None
        assert_farkas(rows, rhs, result.farkas)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_certificate_holds_on_random_small_systems(self, data):
        m = data.draw(st.integers(1, 6), label="m")
        n = data.draw(st.integers(1, 6), label="n")
        entry = st.integers(-3, 3)
        row = st.lists(entry, min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=m, max_size=m), label="rows")
        rhs = data.draw(st.lists(entry, min_size=m, max_size=m), label="rhs")
        x, farkas = solve_feasibility(rows, rhs)
        if farkas is None:
            assert len(x) == n and all(v >= 0 for v in x)
            assert all(sum(a * v for a, v in zip(row, x)) >= b for row, b in zip(rows, rhs))
        else:
            assert x is None
            assert_farkas(rows, rhs, farkas)

    def test_pivot_path_gives_the_same_certificates(self):
        # pivot order pins which vertex the solver lands on, so these exact
        # utility vectors only come back if the pivot sequence is unchanged
        assert is_representable(order_from_utilities(lexicographic_utilities(5))).utilities == (
            1, 2, 4, 8, 16,
        )
        rng = random.Random(7)
        utilities = tuple(sorted(rng.sample(range(100, 40000), 8)))
        assert is_representable(order_from_utilities(utilities)).utilities == (
            37, 55, 71, 113, 242, 272, 294, 399,
        )
        assert is_representable(order_from_utilities(maclagan_utilities(6))).utilities == (
            2, 4, 8, 16, 21, 32, 64,
        )

    def test_bland_switch_keeps_verdicts(self, monkeypatch, n4_census, n5_census):
        # Gordan rows have rhs 0, so the first pivots are degenerate and a
        # limit of 1 switches to Bland's rule at once
        cases = list(zip(n4_census.orders, n4_census.representable))
        cases += list(zip(n5_census.orders, n5_census.representable))[::10]
        default = [is_representable(order) for order, _ in cases]
        monkeypatch.setattr("cporders.lp._DEGENERATE_LIMIT", 1)
        changed = 0
        for (order, flag), before in zip(cases, default):
            cert = is_representable(order)  # raises unless its certificate checks
            assert cert.representable == before.representable == flag
            if flag:
                assert order_from_utilities(cert.utilities) == order
            else:
                assert check_trading_transform(cert.transform, order)
            changed += cert.to_json() != before.to_json()
        assert changed, "Bland's rule never changed a pivot path"


class TestIsRepresentable:
    def test_lexicographic_n5(self):
        order = order_from_utilities(lexicographic_utilities(5))
        cert = is_representable(order)
        assert cert.representable
        assert order_from_utilities(cert.utilities) == order

    @pytest.mark.parametrize("n", range(3, 9))
    def test_construction_orders_representable(self, n):
        order = order_from_utilities(maclagan_utilities(n))
        cert = is_representable(order, hint=maclagan_utilities(n))
        assert cert.representable

    def test_eight_atoms_without_hint(self):
        rng = random.Random(7)
        utilities = tuple(sorted(rng.sample(range(100, 40000), 8)))
        order = order_from_utilities(utilities)
        cert = is_representable(order)
        assert cert.representable
        assert order_from_utilities(cert.utilities) == order

    def test_hint_never_changes_verdict(self):
        order = order_from_utilities((3, 5, 9))
        with_hint = is_representable(order, hint=(3, 5, 9))
        without = is_representable(order)
        assert with_hint.representable and without.representable
        assert order_from_utilities(without.utilities) == order

    def test_bad_hint_is_ignored(self):
        order = order_from_utilities((3, 5, 9))
        cert = is_representable(order, hint=(9, 5, 3))
        assert cert.representable
        assert order_from_utilities(cert.utilities) == order

    @pytest.mark.parametrize(
        "hint,solves",
        [
            ((3, 5, 9), 0),
            ((6, 10, 18), 0),
            ((3, 5), 1),  # wrong length
            ((3, 5, 9, 11), 1),
            ((0, 5, 9), 1),  # a zero
            ((3, -5, 9), 1),  # a negative entry
            ((1, 1, 2), 1),  # a tie
            ((3, 5, 7), 1),  # another ranking
        ],
    )
    def test_hint_taken_exactly_when_it_rederives(self, monkeypatch, hint, solves):
        order = order_from_utilities((3, 5, 9))
        calls = []

        def counted(rows, rhs):
            calls.append(len(rows))
            return solve_feasibility(rows, rhs)

        monkeypatch.setattr("cporders.represent.solve_feasibility", counted)
        cert = is_representable(order, hint=hint)
        assert len(calls) == solves
        assert cert.representable and order_from_utilities(cert.utilities) == order
        if not solves:
            assert cert.utilities == hint

    def test_hint_on_a_nonrepresentable_order_keeps_the_verdict(self, n5_census):
        order = n5_census.orders[n5_census.representable.index(False)]
        for hint in ((1, 2, 4, 8, 16), (5, 7, 11, 13, 17)):
            cert = is_representable(order, hint=hint)
            assert not cert.representable
            assert check_trading_transform(cert.transform, order)

    @pytest.mark.parametrize("utilities", [(0, 0, 0), (9, 5, 3), (1, 1, 2), (3, 5, 0)])
    def test_bogus_farkas_utilities_raise(self, monkeypatch, utilities):
        # n + 2 rows: lambda_1..lambda_n, then mu for -(sum of the atom rows),
        # then nu; u_i = mu - lambda_i, so these multipliers give ``utilities``
        n = 3
        mu = max(utilities)
        lam = [mu - value for value in utilities] + [mu, 1]

        def bogus(rows, rhs):
            assert len(rows) == len(rhs) == len(lam)
            return Feasibility(None, lam)

        monkeypatch.setattr("cporders.represent.solve_feasibility", bogus)
        with pytest.raises(VerificationError, match="do not re-derive"):
            is_representable(order_from_utilities((3, 5, 9)))

    def test_nonrepresentable_from_census(self, n5_census):
        nonrep = [
            o for o, rep in zip(n5_census.orders, n5_census.representable) if not rep
        ]
        assert nonrep, "the n=5 census must contain nonrepresentable orders"
        cert = is_representable(nonrep[0])
        assert cert.verdict == "nonrepresentable"
        assert cert.utilities is None
        assert check_trading_transform(cert.transform, nonrep[0])

    def test_census_certificates_check_independently(self, n5_census):
        # the census keeps flags only; each order's certificate is decided
        # again here, checked against its flag and read back from its JSON
        rep = nonrep = 0
        for order, flag in zip(n5_census.orders, n5_census.representable):
            cert = is_representable(order)
            assert cert.representable == flag
            assert Certificate.from_json(json.loads(json.dumps(cert.to_json())), 5) == cert
            assert check_certificate(cert, order)
            if flag:
                assert order_from_utilities(cert.utilities) == order
                rep += 1
            else:
                assert check_trading_transform(cert.transform, order)
                assert 4 <= cert.transform.length <= 5
                nonrep += 1
        assert (rep, nonrep) == (516, 30)

    def test_axiom_violating_order_gets_checked_transform(self):
        # {1,2} ranks below {1}: monotonicity fails, so no utilities exist
        order = ComparativeOrder(2, [0, 3, 1, 2])
        cert = is_representable(order)
        assert not cert.representable
        assert check_trading_transform(cert.transform, order)

    @pytest.mark.parametrize(
        "bogus",
        [Feasibility(None, [1] * 5), Feasibility([Fraction(1)] * 7, None)],
        ids=["farkas", "solution"],
    )
    def test_wrong_solver_answer_is_refused(self, monkeypatch, bogus):
        # n=3 has n + 2 = 5 rows, so the multipliers give u_i = 1 - 1 = 0,
        # and lex3 has fewer than 7 columns; neither answer certifies lex3
        def wrong(rows, rhs):
            assert len(rows) == 5 and len(rows[0]) < 7
            return bogus

        monkeypatch.setattr("cporders.represent.solve_feasibility", wrong)
        with pytest.raises(VerificationError):
            is_representable(order_from_utilities(lexicographic_utilities(3)))

    @pytest.mark.parametrize(
        "order",
        [
            ComparativeOrder(2, [0, 3, 1, 2]),
            # an n=6 census order whose flippable pairs alone give Farkas
            # utilities that break some gaps
            order_from_line(
                "6;-;1;2;1,2;3;1,3;2,3;1,2,3;4;1,4;2,4;5;1,2,4;3,4;1,5;1,3,4;2,5;2,3,4;"
                "1,2,5;3,5;6;1,2,3,4;1,3,5;2,3,5;1,6;2,6;1,2,3,5;1,2,6;4,5;1,4,5;2,4,5;"
                "1,2,4,5;3,6;1,3,6;2,3,6;1,2,3,6;3,4,5;4,6;1,3,4,5;2,3,4,5;1,4,6;2,4,6;"
                "5,6;1,2,3,4,5;1,2,4,6;3,4,6;1,5,6;1,3,4,6;2,5,6;2,3,4,6;1,2,5,6;3,5,6;"
                "1,2,3,4,6;1,3,5,6;2,3,5,6;1,2,3,5,6;4,5,6;1,4,5,6;2,4,5,6;1,2,4,5,6;"
                "3,4,5,6;1,3,4,5,6;2,3,4,5,6;1,2,3,4,5,6"
            ),
        ],
        ids=["axiom-violating-n2", "census-n6"],
    )
    def test_refinement_round_adds_the_broken_gaps(self, monkeypatch, order):
        calls = []

        def counted(rows, rhs):
            calls.append(len(rows[0]))
            return solve_feasibility(rows, rhs)

        monkeypatch.setattr("cporders.represent.solve_feasibility", counted)
        cert = is_representable(order)
        assert len(calls) == 2 and calls[1] > calls[0]
        assert not cert.representable and not whole_gap_representable(order)
        assert check_certificate(cert, order)

    def test_empty_set_must_rank_first(self):
        with pytest.raises(ValueError):
            is_representable(ComparativeOrder(2, [1, 0, 2, 3]))

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_random_utilities_round_trip_under_relabeling(self, data):
        n = data.draw(st.integers(6, 9), label="n")
        utilities = data.draw(
            st.lists(st.integers(1, 10**6), min_size=n, max_size=n), label="utilities"
        )
        try:
            order = order_from_utilities(utilities)
        except TieError:
            assume(False)
        perm = tuple(data.draw(st.permutations(range(1, n + 1)), label="perm"))
        for o in (order, relabel_order(order, perm)):
            cert = is_representable(o)
            assert cert.representable
            assert order_from_utilities(cert.utilities) == o

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_nonrepresentable_census_orders_under_relabeling(self, data, n5_census):
        # relabeling the atoms reorders the sorted pair columns, so the
        # verdict must not hang on which column the simplex meets first
        nonrep = [o for o, rep in zip(n5_census.orders, n5_census.representable) if not rep]
        order = data.draw(st.sampled_from(nonrep), label="order")
        perm = tuple(data.draw(st.permutations(range(1, 6)), label="perm"))
        for o in (order, relabel_order(order, perm)):
            cert = is_representable(o)
            assert not cert.representable and cert.utilities is None
            assert check_certificate(cert, o)

    def test_verdict_invariant_under_relabeling(self, n5_census):
        rng = random.Random(1103)
        for order, flag in list(zip(n5_census.orders, n5_census.representable))[::7]:
            perm = tuple(rng.sample(range(1, 6), 5))
            assert is_representable(relabel_order(order, perm)).representable == flag

    def test_nonrepresentable_resists_random_search(self, n5_census):
        # spot check: no random integer vector reproduces a nonrepresentable order
        order = next(
            o for o, rep in zip(n5_census.orders, n5_census.representable) if not rep
        )
        rng = random.Random(987123)
        for _ in range(1000):
            utilities = tuple(rng.randrange(1, 10_000) for _ in range(order.n))
            try:
                candidate = order_from_utilities(utilities)
            except TieError:
                continue
            assert candidate != order

    def test_kps_consistency(self, n5_census):
        # representable orders admit no trading transform at any tested bound
        rep = next(
            o for o, flag in zip(n5_census.orders, n5_census.representable) if flag
        )
        for k_max in (2, 3, 4):
            assert find_trading_transform(rep, k_max) is None

    def test_certificate_json(self):
        order = order_from_utilities((1, 2, 4))
        blob = is_representable(order).to_json()
        assert blob["verdict"] == "representable"
        assert order_from_utilities(blob["utilities"]) == order


def whole_gap_representable(order):
    """The whole-gap oracle: Gordan's alternative on one column
    chi(S_{k+1}) - chi(S_k) per consecutive gap, so 2^n - 1 columns."""
    n, ranked = order.n, order.ranked
    gaps = [[(t >> i & 1) - (s >> i & 1) for i in range(n)] for s, t in zip(ranked, ranked[1:])]
    rows = [[d[i] for d in gaps] for i in range(n)]
    rows += [[-v for v in row] for row in rows]
    rows.append([1] * len(gaps))
    return solve_feasibility(rows, [0] * (2 * n) + [1]).solution is None


class TestPairSystemAgainstWholeGaps:
    @staticmethod
    def assert_same_verdict(order):
        cert = is_representable(order)
        assert cert.representable == whole_gap_representable(order)
        assert check_certificate(cert, order)
        return cert

    def test_census_orders(self, n3_census, n4_census, n5_census):
        for census in (n3_census, n4_census, n5_census):
            for order in census.orders:
                self.assert_same_verdict(order)

    @pytest.mark.parametrize("n", range(7, 13))
    def test_random_orders(self, n):
        rng = random.Random(1103 + n)
        self.assert_same_verdict(order_from_utilities(rng.sample(range(1, 10**6), n)))

    @pytest.mark.parametrize("index", [90, 109])
    @pytest.mark.parametrize("extra", [3, 5])
    def test_lifts_of_nonrepresentable_orders(self, n5_census, index, extra):
        assert not n5_census.representable[index]
        cert = self.assert_same_verdict(lift(n5_census.orders[index], extra))
        assert not cert.representable

    def test_sampled_n6_census_orders(self):
        # the n = 6 census is too slow to build here, so its orders are
        # sampled by a seeded flip walk from lex6, each stop relabeled into
        # P_6* (flips stay in P_6; relabeling makes the singletons ascend)
        rng = random.Random(1103)
        order = order_from_utilities(lexicographic_utilities(6))
        sample = {}
        while len(sample) < 200:
            for _ in range(5):
                _, order = rng.choice(list(flip_neighbors(order)))
            order = relabel_order(order, singleton_relabeling(order))
            sample.setdefault(order.ranked, order)
        verdicts = []
        for order in sample.values():
            assert validate_order(order).ok
            verdicts.append(self.assert_same_verdict(order).representable)
        assert 0 < verdicts.count(False) < verdicts.count(True)


def shuffled_solver(rng):
    """``solve_feasibility`` on the columns in an order drawn from ``rng``,
    with the solution put back in the caller's column order."""

    def solve(rows, rhs):
        k = len(rows[0])
        perm = rng.sample(range(k), k)
        result = solve_feasibility([[row[j] for j in perm] for row in rows], rhs)
        if result.solution is None:
            return result
        x = [0] * k
        for slot, j in enumerate(perm):
            x[j] = result.solution[slot]
        return Feasibility(x, None)

    return solve


class TestColumnOrder:
    """The verdict does not hang on the order of the pair columns: shuffled
    before each solve, they give the same verdict and a certificate that
    passes its check."""

    @staticmethod
    def assert_verdict_kept(order, flag, rng):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cporders.represent.solve_feasibility", shuffled_solver(rng))
            cert = is_representable(order)
        assert cert.representable == flag
        if flag:
            assert order_from_utilities(cert.utilities) == order
        else:
            assert check_trading_transform(cert.transform, order)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_census_orders(self, data, n3_census, n4_census, n5_census):
        census = data.draw(st.sampled_from([n3_census, n4_census, n5_census]), label="n")
        i = data.draw(st.integers(0, len(census.orders) - 1), label="order")
        rng = data.draw(st.randoms(use_true_random=False), label="rng")
        self.assert_verdict_kept(census.orders[i], census.representable[i], rng)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_random_orders_on_7_to_9_atoms(self, data, n5_census):
        n = data.draw(st.integers(7, 9), label="n")
        rng = data.draw(st.randoms(use_true_random=False), label="rng")
        if data.draw(st.booleans(), label="representable"):
            utilities = data.draw(
                st.lists(st.integers(1, 10**6), min_size=n, max_size=n, unique=True), label="u"
            )
            try:
                order = order_from_utilities(utilities)
            except TieError:
                assume(False)
            flag = True
        else:
            nonrep = [o for o, rep in zip(n5_census.orders, n5_census.representable) if not rep]
            order, flag = lift(data.draw(st.sampled_from(nonrep), label="base"), n - 5), False
        self.assert_verdict_kept(order, flag, rng)


def rederives(utilities, order):
    """The rebuild oracle: whether ``utilities`` induce exactly ``order``."""
    try:
        return order_from_utilities(utilities) == order
    except (TieError, ValueError):
        return False


def utility_variants(u):
    """``u`` and vectors near it: one entry +-1, two entries swapped, a 0,
    a negative, a tie, and the wrong length."""
    n = len(u)
    out = [u]
    for i in range(n):
        for delta in (-1, 1):
            out.append(u[:i] + (u[i] + delta,) + u[i + 1:])
        out.append(u[:i] + (0,) + u[i + 1:])
        out.append(u[:i] + (-u[i],) + u[i + 1:])
        for j in range(i + 1, n):
            swapped = list(u)
            swapped[i], swapped[j] = u[j], u[i]
            out.append(tuple(swapped))
            out.append(u[:j] + (u[i],) + u[j + 1:])
    return out + [u[:-1], u + (u[-1] + 1,)]


class TestCheckCertificate:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_utilities_pass_exactly_when_they_rederive(self, n):
        census = enumerate_orders(n)
        assert all(census.representable)
        for order in census.orders:
            for u in utility_variants(is_representable(order).utilities):
                cert = Certificate("representable", utilities=u)
                assert check_certificate(cert, order) == rederives(u, order), u

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_utilities_agree_with_the_rebuild(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        base = data.draw(st.lists(st.integers(1, 40), min_size=n, max_size=n), label="base")
        try:
            order = order_from_utilities(base)
        except TieError:
            assume(False)
        near = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(
            lambda d: [b + x for b, x in zip(base, d)]
        )
        u = data.draw(
            st.one_of(near, st.lists(st.integers(-3, 45), min_size=n - 1, max_size=n + 1)),
            label="u",
        )
        cert = Certificate("representable", utilities=tuple(u))
        assert check_certificate(cert, order) == rederives(u, order)

    def test_certificate_without_its_proof_fails(self, n5_census):
        order = n5_census.orders[0]
        assert not check_certificate(Certificate("representable"), order)
        assert not check_certificate(Certificate("nonrepresentable"), order)
        cert = is_representable(order)
        assert not check_certificate(Certificate("maybe", utilities=cert.utilities), order)

    @pytest.mark.parametrize(
        "data",
        [
            {"verdict": "representable", "utilities": [1, 2, 4], "lp_infeasible": True},
            {"verdict": "representable", "utilities": [1, 2, True]},
            {"verdict": "representable", "utilities": (1, 2, 4)},
            {"verdict": "nonrepresentable", "transform": {"As": [[1]], "Bs": [[2]], "k": 1}},
            {"verdict": "nonrepresentable", "transform": {"As": [1], "Bs": [2]}},
            {"verdict": "nonrepresentable", "transform": {"As": [[1, 1]], "Bs": [[2]]}},
            {"verdict": "nonrepresentable", "transform": {"As": [[1]], "Bs": []}},
            {"verdict": "nonrepresentable", "utilities": [1, 2, 4]},
        ],
    )
    def test_from_json_rejects_other_shapes(self, data):
        with pytest.raises(VerificationError, match=f"malformed {data['verdict']} certificate"):
            Certificate.from_json(data, 3)


def lane_free(order):
    """``order`` rebuilt from its masks alone, so its checks take the list path."""
    return ComparativeOrder(order.n, order.ranked)


def boundary_vector(u, order, k, gap):
    """``u`` with one entry moved so that the sums of ranked[k + 1] and
    ranked[k] differ by exactly ``gap``."""
    a, b = order.ranked[k], order.ranked[k + 1]
    d = [(b >> j & 1) - (a >> j & 1) for j in range(order.n)]
    i = next(j for j, x in enumerate(d) if x)
    v = list(u)
    rest = sum(x * y for x, y in zip(v, d)) - v[i] * d[i]
    v[i] = (gap - rest) * d[i]
    return v


class TestRankLanes:
    """``check_certificate`` on an order carrying rank lanes against the
    same order rebuilt without them."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_lane_branch_agrees_with_the_list_path(self, data, n3_census, n4_census, n5_census):
        if data.draw(st.booleans(), label="census"):
            census = data.draw(st.sampled_from([n3_census, n4_census, n5_census]), label="n")
            order = data.draw(st.sampled_from(census.orders), label="order")
            witness = is_representable(order).utilities
        else:
            n = data.draw(st.sampled_from(range(1, 10)), label="n")
            top = data.draw(st.sampled_from([1 << 2 * n, 10**6]), label="top")
            witness = data.draw(
                st.lists(st.integers(1, top), min_size=n, max_size=n, unique=True), label="u"
            )
            try:
                order = order_from_utilities(witness)
            except TieError:
                assume(False)
        # lanes from well short of the witness's sums to well past them
        scale = sum(witness).bit_length() if witness else 8
        bits = max(1, scale + data.draw(st.integers(-6, 12), label="bits"))
        laned = _laned_copy(order, bits)
        # each flip hands the lanes on; the gap-1 hint, when there is one,
        # is the next witness, else the old one (now broken at the flip)
        for _ in range(data.draw(st.integers(0, 3), label="flips")):
            pairs = [fp for fp in flippable_pairs(laned) if fp.a.mask]
            if not pairs:
                break
            fp = data.draw(st.sampled_from(pairs), label="pair")
            hint = neighbor_witness_hint(witness, fp) if witness else None
            laned = flip(laned, fp)
            witness = hint or witness
        twin = lane_free(laned)
        assert laned == twin and hash(laned) == hash(twin)
        assert laned._lanes == _laned_copy(twin, bits)._lanes
        n, width = order.n, laned._lanes[0]
        w = list(witness or data.draw(st.lists(st.integers(1, 40), min_size=n, max_size=n)))
        kind = data.draw(
            st.sampled_from(["witness", "near", "random", "boundary", "width", "length"]),
            label="kind",
        )
        if kind == "witness":
            v = w
        elif kind == "near":
            v = [x + data.draw(st.integers(-1, 1)) for x in w]
        elif kind == "random":
            v = data.draw(st.lists(st.integers(-3, 45), min_size=n, max_size=n))
        elif kind == "boundary":
            k = data.draw(st.integers(0, len(laned.ranked) - 2), label="k")
            scale = data.draw(st.integers(1, 64), label="scale")
            v = boundary_vector([scale * x for x in w], laned, k, data.draw(st.sampled_from([0, 1])))
        elif kind == "width":
            # a multiple of w topped up to sum to 2^(L-1) - 1, 2^(L-1) or one more
            c, r = divmod((1 << width - 1) + data.draw(st.integers(-1, 1)), sum(w))
            v = [c * x for x in w]
            v[-1] += r
            assert (_lanes_rise(laned, v) is None) == (sum(v) >= 1 << width - 1)
        else:
            v = data.draw(st.sampled_from([w[:-1], w + [w[-1] + 1]]))
        cert = Certificate("representable", utilities=tuple(v))
        assert check_certificate(cert, laned) == check_certificate(cert, twin)

    @pytest.mark.parametrize(
        "u, lanes",
        [((18, 36, 53), False), ((18, 36, 73), True), ((18, 36, 74), None), ((18, 36, 75), None)],
    )
    def test_sums_from_half_the_lane_range_take_the_list_path(self, u, lanes):
        order = order_from_utilities((1, 2, 4))
        laned = _laned_copy(order, 8)
        assert laned._lanes[0] == 8
        assert _lanes_rise(laned, u) is lanes
        cert = Certificate("representable", utilities=u)
        assert check_certificate(cert, laned) == check_certificate(cert, order) == (lanes is not False)

    def test_lanes_stay_private(self):
        order = order_from_utilities(maclagan_utilities(5))
        laned = _laned_copy(order, 20)
        assert order._lanes is None and laned._lanes is not None
        _, neighbor = next(flip_neighbors(laned))
        assert neighbor._lanes is not None
        for carrier in (laned, neighbor):
            twin = lane_free(carrier)
            assert carrier == twin and hash(carrier) == hash(twin)
            back = pickle.loads(pickle.dumps(carrier))
            assert back == twin and back._lanes is None


class TestTradingTransforms:
    def test_balance_is_counting(self):
        t = TradingTransform(
            (Subset.from_atoms([1], 3), Subset.from_atoms([2], 3)),
            (Subset.from_atoms([2], 3), Subset.from_atoms([1], 3)),
        )
        assert t.is_balanced()

    def test_antisymmetry_blocks_balanced_swap(self):
        order = order_from_utilities((1, 2, 4))
        t = TradingTransform(
            (Subset.from_atoms([1], 3), Subset.from_atoms([2], 3)),
            (Subset.from_atoms([2], 3), Subset.from_atoms([1], 3)),
        )
        assert check_trading_transform(t, order) is False

    def test_length_mismatch(self):
        order = order_from_utilities((1, 2, 4))
        t = TradingTransform((Subset(0, 3),), ())
        with pytest.raises(LengthMismatchError):
            check_trading_transform(t, order)

    def test_lex4_has_no_transform(self):
        order = order_from_utilities(lexicographic_utilities(4))
        assert find_trading_transform(order, 4) is None

    def test_k_max_one_finds_nothing(self):
        order = order_from_utilities((1, 2, 4))
        assert find_trading_transform(order, 1) is None

    def test_found_transform_verifies(self, n5_census):
        nonrep = [o for o, rep in zip(n5_census.orders, n5_census.representable) if not rep]
        # every nonrepresentable 5-atom order needs length 4, so the search
        # at k_max = 3 comes back empty for all of them
        assert all(find_trading_transform(o, 3) is None for o in nonrep)
        # the first one is the order repro criterion 5 reports
        order = nonrep[0]
        transform = find_trading_transform(order, 4)
        assert transform is not None and transform.length == 4
        assert check_trading_transform(transform, order)
        sums = {}
        for s in transform.a_sets:
            for atom in s.atoms:
                sums[atom] = sums.get(atom, 0) + 1
        for s in transform.b_sets:
            for atom in s.atoms:
                sums[atom] = sums.get(atom, 0) - 1
        assert set(sums.values()) <= {0}


def lift(order, k):
    """Lexicographic product: k new atoms compared first, then ``order``."""
    n, pos = order.n, order.position
    ranked = sorted(range(1 << (n + k)), key=lambda m: (m >> n, pos[m & ((1 << n) - 1)]))
    return ComparativeOrder(n + k, ranked)


class TestShortestTransform:
    @pytest.fixture
    def nonrep5(self, n5_census):
        return next(o for o, rep in zip(n5_census.orders, n5_census.representable) if not rep)

    @pytest.mark.parametrize("extra", [1, 2])
    def test_lifts_keep_length_four(self, nonrep5, extra):
        order = lift(nonrep5, extra)
        transform = find_trading_transform(order, 4)
        assert transform.length == 4
        assert check_trading_transform(transform, order)
        assert find_trading_transform(order, 3) is None

    def test_odd_bound_finds_length_four(self, nonrep5):
        # k_max = 5 codes vectors in base 11, not base 9
        transform = find_trading_transform(nonrep5, 5)
        assert transform.length == 4
        assert check_trading_transform(transform, nonrep5)

    def test_n4_census_has_no_transform(self, n4_census):
        assert all(find_trading_transform(o, 4) is None for o in n4_census.orders)

    def test_size_bound_checked_before_the_cone(self, nonrep5, monkeypatch):
        # 5^10 sums of two members exceed 2^21
        order = lift(nonrep5, 5)

        def refuse(order):
            raise AssertionError("the cone was built")

        monkeypatch.setattr("cporders.represent.cone_from_order", refuse)
        with pytest.raises(ResourceError):
            find_trading_transform(order, 4)


class TestWitnessHint:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_hint_represents_every_flip(self, n):
        utilities = maclagan_utilities(n)
        order = order_from_utilities(utilities)
        sums = subset_sums(utilities)
        for fp in flippable_pairs(order):
            if fp.a.mask == 0:
                continue
            assert sums[fp.b.mask] - sums[fp.a.mask] == 1
            hint = neighbor_witness_hint(utilities, fp)
            assert hint is not None
            from cporders.flips import flip

            assert order_from_utilities(hint) == flip(order, fp)

    def test_hint_requires_gap_one(self):
        utilities = (10, 20, 40)
        order = order_from_utilities(utilities)
        fp = next(p for p in flippable_pairs(order) if p.a.mask != 0)
        assert neighbor_witness_hint(utilities, fp) is None


def unfriendly_oracle(order, utilities):
    """The route ``unfriendly_flips`` replaced: every hinted neighbour of a
    lane-free order decided on its own."""
    assert order._lanes is None
    return [
        fp
        for fp, neighbor in flip_neighbors(order)
        if not is_representable(neighbor, hint=neighbor_witness_hint(utilities, fp)).representable
    ]


class TestUnfriendlyFlips:
    def test_census_orders(self, n3_census, n4_census, n5_census):
        found = 0
        for census in (n3_census, n4_census, n5_census):
            for order, representable in zip(census.orders, census.representable):
                if representable:
                    utilities = is_representable(order).utilities
                    got = unfriendly_flips(order, utilities)
                    assert got == unfriendly_oracle(order, utilities)
                    assert order._lanes is None
                    found += bool(got)
        assert found  # some flips really are unfriendly

    @pytest.mark.parametrize("n", range(3, 12))
    def test_constructions(self, n):
        utilities = maclagan_utilities(n)
        order = order_from_utilities(utilities)
        assert unfriendly_flips(order, utilities) == unfriendly_oracle(order, utilities) == []
        assert order._lanes is None


def friendly(order: ComparativeOrder, other: ComparativeOrder) -> bool:
    """Whether two flip-related orders agree on representability."""
    if order.n != other.n:
        raise NotNeighborsError("orders live on different atom counts")
    if all(neighbor != other for _, neighbor in flip_neighbors(order)):
        raise NotNeighborsError("orders are not related by a single flip")
    return is_representable(order).representable == is_representable(other).representable


class TestFriendly:
    def test_lex3_neighbors_friendly(self):
        order = order_from_utilities(lexicographic_utilities(3))
        for _, other in flip_neighbors(order):
            assert friendly(order, other)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_construction_flips_friendly(self, n):
        order = order_from_utilities(maclagan_utilities(n))
        for _, other in flip_neighbors(order):
            assert friendly(order, other)

    def test_not_neighbors_raises(self):
        a = order_from_utilities(lexicographic_utilities(3))
        with pytest.raises(NotNeighborsError):
            friendly(a, a)
        b = order_from_utilities(lexicographic_utilities(4))
        with pytest.raises(NotNeighborsError):
            friendly(a, b)
