"""Census enumeration, the permutation-filter oracle, edges, stats, and I/O."""

import hashlib
import random
import time

import pytest

from cporders import census as census_module
from cporders.census import (
    OrderCensus,
    _annotate_edges,
    _annotate_flags,
    brute_force_oracle,
    census_stats,
    enumerate_orders,
    facet_counts_from_census,
    read_census,
    relabel_order,
    singleton_relabeling,
    worker_map,
    write_census,
)
from cporders.errors import ResourceError, VerificationError
from cporders.flips import flip, flip_neighbors, flippable_pairs
from cporders.orders import (
    ComparativeOrder,
    lexicographic_utilities,
    order_from_utilities,
    order_to_line,
    validate_order,
)
from cporders.repro import random_utility_order
from cporders.represent import is_representable


class TestOracleEquivalence:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2)])
    def test_matches_and_counts(self, n, count):
        fast = enumerate_orders(n, with_flags=False, with_edges=False)
        slow = brute_force_oracle(n)
        assert {o.ranked for o in fast.orders} == {o.ranked for o in slow.orders}
        assert len(fast.orders) == count


class TestGeneratorContract:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 14), (5, 546)])
    def test_counts_in_ascending_order(self, n, count):
        # emission order is part of the contract: criterion 5 reads the
        # first nonrepresentable order, and benchmarks digest the sequence
        ranked = [o.ranked for o in enumerate_orders(n, with_flags=False, with_edges=False).orders]
        assert len(ranked) == count
        assert all(a < b for a, b in zip(ranked, ranked[1:]))

    @pytest.mark.parametrize("n", [4, 5])
    def test_flip_closure_of_lex_order(self, n, request):
        # independent of the generator: every order is reached from the
        # lexicographic one by flips, brought back into P_n* by relabeling
        start = order_from_utilities(lexicographic_utilities(n))
        seen = {start.ranked}
        stack = [start]
        while stack:
            for _, neighbor in flip_neighbors(stack.pop()):
                neighbor = relabel_order(neighbor, singleton_relabeling(neighbor))
                if neighbor.ranked not in seen:
                    seen.add(neighbor.ranked)
                    stack.append(neighbor)
        census = request.getfixturevalue(f"n{n}_census")
        assert seen == {o.ranked for o in census.orders}


class TestCensusInvariants:
    def test_all_orders_valid_and_canonical(self, n4_census, n5_census):
        for order in n4_census.orders + n5_census.orders:
            assert validate_order(order).ok
            assert order.ranked[1] == 1  # {1} right after the empty set
            singles = [order.position[1 << i] for i in range(order.n)]
            assert singles == sorted(singles)

    def test_no_duplicates(self, n5_census):
        assert len({o.ranked for o in n5_census.orders}) == len(n5_census.orders)

    def test_closed_under_flips(self, n4_census):
        index = {o.ranked for o in n4_census.orders}
        for order in n4_census.orders:
            for fp in flippable_pairs(order):
                if fp.a.mask == 0:
                    continue
                flipped = flip(order, fp)
                if flipped.ranked not in index:
                    relabeled = relabel_order(flipped, singleton_relabeling(flipped))
                    assert relabeled.ranked in index

    def test_edges_symmetric(self, n5_census):
        seen = {(i, j) for i, row in enumerate(n5_census.edges) for j in row}
        assert all((j, i) in seen for i, j in seen)

    def test_all_n4_representable(self, n4_census):
        assert all(n4_census.representable)

    def test_n5_has_nonrepresentable(self, n5_census):
        assert not all(n5_census.representable)

    def test_flags_match_direct_lp(self, n5_census):
        # spot-check a slice of census flags against fresh decisions
        for order, flag in list(zip(n5_census.orders, n5_census.representable))[::97]:
            assert is_representable(order).representable == flag


def drop_one_irreducible(monkeypatch, module):
    """Make ``module.irreducible_elements`` lose one element of each cone."""
    real = module.irreducible_elements
    monkeypatch.setattr(
        module, "irreducible_elements", lambda cone: frozenset(sorted(real(cone))[1:])
    )


class TestTheorem2Guard:
    """Each irreducible count compares the cone's irreducible elements with
    the order's flippable pairs (Theorem 2) and raises on any difference."""

    def test_flag_stage_raises_on_a_lost_irreducible(self, monkeypatch):
        drop_one_irreducible(monkeypatch, census_module)
        with pytest.raises(VerificationError, match="Theorem 2"):
            enumerate_orders(4)


def guarded_edge_rows(census):
    """Edge rows built through the public ``flip``, with its validate_order
    guard, and the lookup ``_annotate_edges`` makes."""
    index = {o.ranked: i for i, o in enumerate(census.orders)}

    def lookup(neighbor):
        j = index.get(neighbor.ranked)
        if j is None:
            j = index.get(relabel_order(neighbor, singleton_relabeling(neighbor)).ranked)
        return j

    return [
        [lookup(flip(order, fp)) for fp in flippable_pairs(order) if fp.a.mask]
        for order in census.orders
    ]


class TestEdges:
    """``_annotate_edges`` builds neighbours without ``flip``'s guard; census
    membership stands in for it."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rows_equal_the_guarded_flips(self, n):
        census = enumerate_orders(n, with_flags=False)
        assert census.edges == guarded_edge_rows(census)
        assert None not in {j for row in census.edges for j in row}

    @pytest.mark.parametrize(
        "n, removed", [(3, 0), (3, 1)] + [(4, r) for r in range(14)] + [(5, 0), (5, 90), (5, 545)]
    )
    def test_a_missing_order_is_named(self, n, removed):
        full = enumerate_orders(n, with_flags=False)
        kept = [i for i in range(len(full.orders)) if i != removed]
        orders = [full.orders[i] for i in kept]
        # the first remaining row with an edge to the removed order
        row = next(r for r, i in enumerate(kept) if removed in full.edges[i])
        census = OrderCensus(n, orders)
        with pytest.raises(VerificationError, match=f"a flip of census order {row} left the census"):
            _annotate_edges(census)
        assert census.edges == guarded_edge_rows(OrderCensus(n, orders))[:row]


class TestRelabeling:
    def test_identity_on_canonical(self, n4_census):
        order = n4_census.orders[0]
        assert singleton_relabeling(order) == (1, 2, 3, 4)
        assert relabel_order(order, (1, 2, 3, 4)) == order

    def test_relabel_roundtrip(self, n4_census):
        order = n4_census.orders[3]
        perm = (2, 1, 4, 3)
        back = {new: old for old, new in enumerate(perm, start=1)}
        inverse = tuple(back[i] for i in range(1, 5))
        assert relabel_order(relabel_order(order, perm), inverse) == order

    def test_matches_per_bit_definition(self):
        # atom i + 1 goes to perm[i], one bit at a time
        def per_bit(order, perm):
            ranked = []
            for mask in order.ranked:
                image = 0
                for i in range(order.n):
                    if mask >> i & 1:
                        image |= 1 << (perm[i] - 1)
                ranked.append(image)
            return ComparativeOrder(order.n, ranked)

        rng = random.Random(20261020)
        for n in range(1, 11):
            order = random_utility_order(n, rng)
            for _ in range(3):
                perm = tuple(rng.sample(range(1, n + 1), n))
                assert relabel_order(order, perm) == per_bit(order, perm)

    def test_label_count_must_match(self, n4_census):
        with pytest.raises(ValueError, match="4 atoms need 4 labels, got 3"):
            relabel_order(n4_census.orders[0], (1, 2, 3))


class TestStats:
    def test_n3(self, n3_census):
        stats = census_stats(n3_census)
        assert stats.order_count == 2
        assert stats.max_flippable == 3 and stats.max_facets == 3
        assert stats.min_facets == 3
        assert stats.representable_count == 2

    def test_n4(self, n4_census):
        stats = census_stats(n4_census)
        assert stats.max_flippable == 5 and stats.max_facets == 5
        assert stats.min_facets == 4
        assert stats.full_graph_components == 1
        assert stats.representable_components == 1

    def test_n5(self, n5_census):
        stats = census_stats(n5_census)
        assert sorted(stats.irr_histogram) == [5, 6, 7, 8]
        assert stats.max_flippable == 8 and stats.max_facets == 8
        assert stats.min_facets == 5
        assert stats.max_irr_all_friendly
        assert stats.representable_components == 1

    def test_facet_counts_bounded_by_flips(self, n4_census):
        facets = facet_counts_from_census(n4_census)
        for order, f in zip(n4_census.orders, facets):
            if f is not None:
                assert f <= len(flippable_pairs(order))

    @pytest.mark.parametrize("n,step", [(4, 1), (5, 10)])
    def test_census_facets_match_exact_count(self, n, step, request, facet_count):
        census = request.getfixturevalue(f"n{n}_census")
        facets = facet_counts_from_census(census)
        rows = [i for i, f in enumerate(facets) if f is not None][::step]
        assert rows
        for i in rows:
            assert facets[i] == facet_count(census.orders[i])

    def test_stats_solve_no_lp_with_flags_and_edges(self, n5_census, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("census_stats solved an LP")

        monkeypatch.setattr("cporders.census.is_representable", refuse)
        monkeypatch.setattr("cporders.represent.is_representable", refuse)
        stats = census_stats(n5_census)
        assert stats.max_facets == 8 and stats.max_irr_all_friendly

    def test_rejects_census_without_flags(self, n5_census):
        bare = OrderCensus(
            5, n5_census.orders, irr_counts=n5_census.irr_counts, edges=n5_census.edges
        )
        with pytest.raises(ValueError, match="representability flags"):
            census_stats(bare)
        bare.representable = [True] * (len(bare.orders) - 1) + [None]
        with pytest.raises(ValueError, match="representability flags"):
            census_stats(bare)


class TestBudget:
    def test_resource_error_carries_partial(self):
        with pytest.raises(ResourceError) as exc:
            enumerate_orders(6, with_flags=False, with_edges=False, budget=0.3)
        partial = exc.value.partial
        assert partial.n == 6 and len(partial.orders) < 169444
        assert all(validate_order(order).ok for order in partial.orders)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            enumerate_orders(7)


class TestPersistence:
    def test_roundtrip(self, n4_census, tmp_path):
        path = tmp_path / "census4.ndjson"
        write_census(n4_census, path)
        loaded = read_census(path)
        assert [o.ranked for o in loaded.orders] == [o.ranked for o in n4_census.orders]
        assert loaded.representable == n4_census.representable
        assert loaded.irr_counts == n4_census.irr_counts
        assert census_stats(loaded).max_facets == 5

    def test_written_bytes_pinned(self, n4_census, tmp_path):
        # SHA-256 of the file as written when each subset text was built by
        # Subset.to_text; writing what was read back gives the same bytes
        first, second = tmp_path / "first.ndjson", tmp_path / "second.ndjson"
        write_census(n4_census, first)
        write_census(read_census(first), second)
        digest = "12a65927e0932d80e4b54bd60254408046fd02b209542213ee6fca2dd4a644e6"
        assert hashlib.sha256(first.read_bytes()).hexdigest() == digest
        assert second.read_bytes() == first.read_bytes()

    def test_mixed_atom_counts_rejected(self, n3_census, n4_census, tmp_path):
        three, four = tmp_path / "census3.ndjson", tmp_path / "census4.ndjson"
        write_census(n3_census, three)
        write_census(n4_census, four)
        records = len(three.read_text().splitlines())
        mixed = tmp_path / "mixed.ndjson"
        mixed.write_text(three.read_text() + "\n" + four.read_text())
        with pytest.raises(ValueError, match=f"mixed.ndjson:{records + 2}: .*n=4.*n=3"):
            read_census(mixed)

    def test_checkpoint_resume(self, tmp_path):
        check = tmp_path / "flags3.ndjson"
        first = enumerate_orders(3, checkpoint_path=check)
        assert check.exists()
        lines_before = check.read_text().count("\n")
        second = enumerate_orders(3, checkpoint_path=check)
        assert check.read_text().count("\n") == lines_before  # nothing recomputed
        assert second.representable == first.representable
        assert second.irr_counts == first.irr_counts

    @pytest.mark.parametrize(
        "record",
        [
            '{"a": 1}',
            "[1, 2]",
            '{"order": 5, "representable": true, "irr": 1}',
            '{"order": "3;-;1;2;3;1,2;1,3;2,3;1,2,3", "representable": 1, "irr": 1}',
            '{"order": "3;-;1;2;3;1,2;1,3;2,3;1,2,3", "representable": true, "irr": "x"}',
            '{"order": "3;-;1;2;3;1,2;1,3;2,3;1,2,3", "representable": true, "irr": -1}',
            '{"order": "3;-;1;2;3;1,2;1,3;2,3;1,2,3", "representable": true, "irr": true}',
            '{"order": "3;-;1;2;3;1,2;1,3;2,3;1,2,3", "irr": 1}',
            "not json",
        ],
    )
    def test_checkpoint_malformed_record(self, tmp_path, record):
        check = tmp_path / "flags3.ndjson"
        enumerate_orders(3, checkpoint_path=check)
        check.write_text(check.read_text() + record + "\n")
        with pytest.raises(ValueError, match="flags3.ndjson:3: "):
            enumerate_orders(3, checkpoint_path=check)

    def test_checkpoint_torn_last_record(self, tmp_path):
        check = tmp_path / "flags4.ndjson"
        first = enumerate_orders(4, checkpoint_path=check)
        text = check.read_text()
        check.write_text(text[: len(text) - 20])  # interrupted mid-record
        second = enumerate_orders(4, checkpoint_path=check)
        assert second.representable == first.representable
        assert second.irr_counts == first.irr_counts
        assert check.read_text() == text  # torn record dropped, then rewritten

    @pytest.mark.parametrize("threads", [1, 2])
    def test_checkpoint_is_the_census_file_prefix(self, n4_census, tmp_path, threads):
        # a finished checkpoint holds the records write_census writes, also
        # when the flags come through the worker pool
        check, out = tmp_path / "flags4.ndjson", tmp_path / "census4.ndjson"
        enumerate_orders(4, with_edges=False, checkpoint_path=check, threads=threads)
        write_census(n4_census, out)
        assert check.read_bytes() == out.read_bytes()
        lines = check.read_text().splitlines(keepends=True)
        check.write_text("".join(lines[:6]))
        enumerate_orders(4, with_edges=False, checkpoint_path=check, threads=threads)
        assert check.read_bytes() == out.read_bytes()

    def test_checkpoint_record_out_of_place(self, tmp_path):
        check = tmp_path / "flags4.ndjson"
        enumerate_orders(4, with_edges=False, checkpoint_path=check)
        lines = check.read_text().splitlines(keepends=True)
        check.write_text("".join([lines[1], lines[0]] + lines[2:]))
        written = check.read_text()
        with pytest.raises(ValueError, match="flags4.ndjson:1: checkpoint record 1 is not census"):
            enumerate_orders(4, with_edges=False, checkpoint_path=check)
        assert check.read_text() == written

    def test_checkpoint_with_too_many_records(self, tmp_path):
        check = tmp_path / "flags3.ndjson"
        enumerate_orders(3, checkpoint_path=check)
        lines = check.read_text().splitlines(keepends=True)
        check.write_text("".join(lines + lines[-1:]))
        with pytest.raises(ValueError, match="flags3.ndjson:3: checkpoint has more records than"):
            enumerate_orders(3, checkpoint_path=check)

    def test_order_lines_built_one_at_a_time(self, monkeypatch, tmp_path):
        # a resumed run checks the prefix, then builds each appended line
        # right after its order is flagged, never all lines up front
        check = tmp_path / "flags4.ndjson"
        enumerate_orders(4, with_edges=False, checkpoint_path=check)
        lines = check.read_text().splitlines(keepends=True)
        check.write_text("".join(lines[:5]))
        events = []
        to_line, flag = census_module.order_to_line, census_module._flag_worker
        monkeypatch.setattr(
            census_module, "order_to_line", lambda o: events.append("line") or to_line(o)
        )
        monkeypatch.setattr(
            census_module, "_flag_worker", lambda o: events.append("flag") or flag(o)
        )
        enumerate_orders(4, with_edges=False, checkpoint_path=check)
        assert events == ["line"] * 5 + ["flag", "line"] * 9
        assert check.read_text() == "".join(lines)


class TestCensusContract:
    """``read_census`` checks every record once; ``write_census`` writes only
    what reads back."""

    @pytest.fixture()
    def census4(self, n4_census, tmp_path):
        path = tmp_path / "census4.ndjson"
        write_census(n4_census, path)
        return path, path.read_text().splitlines(keepends=True)

    @staticmethod
    def record(order):
        return f'{{"irr": 5, "order": "{order_to_line(order)}", "representable": true}}\n'

    def test_repeated_record(self, census4):
        path, lines = census4
        path.write_text("".join(lines + lines[3:4]))
        with pytest.raises(ValueError, match="census4.ndjson:15: the order of line 4 repeats"):
            read_census(path)

    def test_order_breaking_the_axioms(self, census4):
        path, lines = census4
        ranked = list(order_from_utilities(lexicographic_utilities(4)).ranked)
        ranked[5], ranked[6] = ranked[6], ranked[5]  # {2,3} before {1,3}
        path.write_text("".join([self.record(ComparativeOrder(4, ranked))] + lines[1:]))
        with pytest.raises(ValueError, match="census4.ndjson:1: union consistency fails"):
            read_census(path)

    def test_singletons_out_of_order(self, census4):
        path, lines = census4
        swapped = relabel_order(order_from_utilities(lexicographic_utilities(4)), (2, 1, 3, 4))
        path.write_text("".join(lines[:2] + [self.record(swapped)] + lines[3:]))
        with pytest.raises(ValueError, match="census4.ndjson:3: the singletons are not in"):
            read_census(path)

    def test_incomplete_file(self, census4):
        path, lines = census4
        path.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match=r"census4.ndjson:\d+: census file is incomplete"):
            read_census(path)

    def test_flags_on_some_records_only(self, census4):
        path, lines = census4
        bare = lines[2].replace(', "representable": true', "")
        path.write_text("".join(lines[:2] + [bare] + lines[3:]))
        with pytest.raises(ValueError, match="census4.ndjson:3: flags and counts must be on all"):
            read_census(path)

    def test_blank_lines_skipped(self, census4, n4_census):
        path, lines = census4
        path.write_text("\n" + "\n".join(lines) + "\n")
        assert read_census(path).orders == n4_census.orders

    def test_write_of_exhausted_flag_budget_raises(self, tmp_path):
        census = enumerate_orders(4, with_flags=False, with_edges=False)
        with pytest.raises(ResourceError) as exc:
            _annotate_flags(census, time.monotonic(), None)
        partial = exc.value.partial
        assert partial.representable[0] is not None and None in partial.representable
        path = tmp_path / "partial.ndjson"
        with pytest.raises(ValueError, match="complete or absent"):
            write_census(partial, path)
        assert not path.exists()


class TestFlagWorkers:
    def test_pool_keeps_certificates(self, n4_census):
        # the census keeps flags only; each pooled flag's certificate is
        # decided again and must re-derive its order
        pooled = enumerate_orders(4, with_edges=False, threads=2)
        assert pooled.representable == n4_census.representable
        assert pooled.irr_counts == n4_census.irr_counts
        for order in pooled.orders:
            assert order_from_utilities(is_representable(order).utilities) == order

    def test_no_order_lines_without_a_checkpoint(self, monkeypatch, n4_census):
        def refuse(order):
            raise AssertionError("order line built without a checkpoint")

        monkeypatch.setattr("cporders.census.order_to_line", refuse)
        census = enumerate_orders(4, with_edges=False)
        assert census.representable == n4_census.representable
        assert census.irr_counts == n4_census.irr_counts


class TestWorkerMap:
    def test_leaving_early_shuts_the_pool_down(self, monkeypatch):
        import concurrent.futures

        calls = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def shutdown(self, *args, **kwargs):
                calls.append(kwargs)
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        with pytest.raises(KeyError):
            with worker_map(abs, range(1000), 2, chunksize=8) as results:
                next(results)
                raise KeyError("stop early")
        assert calls == [{"cancel_futures": True}]

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # a fork pool starts all its workers at once, so no more than one
        # per CPU is asked for; the fake starts none
        import concurrent.futures

        asked = []

        class Fake:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def map(self, fn, items, chunksize):
                return map(fn, items)

            def shutdown(self, cancel_futures):
                pass

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Fake)
        with worker_map(abs, [-1, 2], 10**6, chunksize=8) as results:
            assert list(results) == [1, 2]
        assert asked == [2]
        monkeypatch.setattr("os.cpu_count", lambda: None)
        with worker_map(abs, [-3], 10**6, chunksize=8) as results:
            assert list(results) == [3]
        assert asked == [2]
