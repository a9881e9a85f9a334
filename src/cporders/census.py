"""Exhaustive generation of all comparative probability orders on small
atom counts (with singletons in ascending position), flip-graph edges over
the census, and the summary statistics: representable counts, irreducible
histograms, facet extremes, connectivity.  A facet count is flippable
pairs minus unfriendly flips, and M(n) is read off the census flags and
edges without solving an LP.  Every irreducible count checks Theorem 2
(Fine & Gill 1976; Maclagan 1999): the cone's irreducible elements are
exactly the vectors of the order's flippable pairs, else
VerificationError.  So a census built with flags has checked it on every
order.

The generator extends a ranked prefix subset by subset.  For every atom
c, the subsets holding c must follow the rank order of their c-free parts,
so the next subset holding c is fixed by the prefix, and a subset may be
appended only when it is that next subset for each of its atoms.  Every
prefix of a valid order obeys the rule, and a full sequence that obeys it
is union consistent, so a prefix is cut as soon as its placed subsets
break the axiom; the n = 6 census (169,444 orders) completes.

Flags are settled along the flip walk that builds the edges.  The
representable orders are the regions of the Fine-Gill arrangement, and a
flip crosses a facet between two of them, so utilities for one order,
moved along the line that crosses the flipped pair's hyperplane, often
land in its neighbour's region (``represent.crossing_hint``).  Census
order 0 is decided by the LP; from its utilities the walk hands a hint to
each neighbour the line reaches, and on from there.  Every flag still
comes from ``is_representable``, which accepts a hint only when
``check_certificate`` passes it and otherwise solves the LP, so the hints
decide which orders reach the LP (the nonrepresentable ones and the few
that no line reaches: 33 of 546 at n = 5), never a flag.

Census files and flag checkpoints hold one JSON record per line, written
by ``_render_record`` and read by ``_records``: the order line, with
``representable`` and ``irr`` each on every record or on none.
``write_census`` refuses a census whose flags or counts are partly None,
so what it writes reads back.  ``read_census`` also wants one n, orders
that pass ``validate_order`` with ascending singletons, no repeat, and no
flip that leaves the file.  A checkpoint is a census-order prefix of the
census: record k holds order k with both flags.  A record that breaks a
rule raises ValueError naming ``path:line``.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import islice, permutations, repeat
from typing import Optional

from .cones import _irreducible_bits, _ternary_tables, cone_from_order
from .errors import ResourceError, VerificationError
from .flips import _flippable_masks, _flipped
from .orders import (
    ComparativeOrder, order_from_line, order_to_line, subset_sums, validate_order,
)
from .represent import crossing_hint, is_representable


@dataclass
class OrderCensus:
    """All orders of P_n* (singletons ascending), with optional parallel
    representability flags (``is_representable`` rebuilds the certificate
    behind a flag on demand), irreducible counts, and flip edges.

    An edge j in ``edges[i]`` means flipping some pair of order i lands on
    order j, possibly after relabeling the atoms so the singletons ascend.
    """

    n: int
    orders: list[ComparativeOrder]
    representable: Optional[list[bool]] = None
    irr_counts: Optional[list[int]] = None
    edges: Optional[list[list[int]]] = None


def _generate_orders(n: int, deadline: Optional[float]) -> list[ComparativeOrder]:
    """Depth-first generation of the orders of P_n*, in lexicographic order
    of the ranked sequence.  Each returned order has passed
    ``validate_order``; on an exhausted ``deadline`` the ResourceError's
    ``partial`` is the census of the validated orders found so far.

    Only the bottom half of each order is searched: the union-consistency
    axiom forces rank(S) + rank(complement of S) = 2^n - 1, so every
    placement at rank k pins the complement at the mirror rank, and a
    subset whose complement is already placed is skipped.

    Inside the bottom half each step is exact (see ``validate_order``):
    for every atom c, the subsets that hold c appear in the rank order of
    their c-free parts.  ``avoid[c]`` lists the placed subsets avoiding c in
    rank order and ``took[c]`` counts the placed subsets holding c, so the
    next subset holding c must be ``avoid[c][took[c]] | c``.  A subset may
    be placed next iff it is that subset for every atom it holds; hence a
    node has at most n candidates, one per atom.  Every valid order obeys
    the rule on each of its prefixes, so no order is missed.

    Singletons ascend by the rule "atom i only after atom i-1" in the
    bottom half.  A singleton {a} lands in the top half only when [n] minus
    {a} is placed in the bottom half, after all its proper subsets, so {a}
    exceeds every other singleton.  If a < n, {n} was among those subsets,
    and the chain rule placed it only after {a}, which was not yet placed;
    so a = n, and the top half needs no singleton check.  Each leaf is
    still validated exactly before it is recorded.
    """
    full = 1 << n
    low = full - 1
    half = full >> 1
    bits = [1 << c for c in range(n)]
    placed = bytearray(full)  # the bottom half and the complements it pins
    placed[0] = placed[low] = 1
    ranked = [0]  # bottom half only; complements are implied
    avoid = [[0] for _ in range(n)]
    took = [0] * n
    results: list[ComparativeOrder] = []
    counter = 0

    def walk() -> None:
        nonlocal counter
        if len(ranked) == half:
            order = ComparativeOrder(n, ranked + [low ^ s for s in reversed(ranked)])
            if validate_order(order).ok:
                results.append(order)
            return
        counter += 1
        if deadline is not None and counter % 64 == 0 and time.monotonic() > deadline:
            raise ResourceError(
                f"enumeration of n={n} exceeded its budget after {len(results)} orders",
                partial=OrderCensus(n, results),
            )
        # the next subset holding atom c, for each atom that has one
        wanted = [avoid[c][took[c]] | bits[c] for c in range(n) if took[c] < len(avoid[c])]
        for x in sorted(set(wanted)):
            # admissible iff it is the next subset for every atom it holds
            if placed[x] or wanted.count(x) != x.bit_count():
                continue
            if not x & (x - 1) and x > 1 and not placed[x >> 1]:
                continue  # atom i may appear only after atom i-1
            placed[x] = placed[low ^ x] = 1
            ranked.append(x)
            for c in range(n):
                if x & bits[c]:
                    took[c] += 1
                else:
                    avoid[c].append(x)
            walk()
            for c in range(n):
                if x & bits[c]:
                    took[c] -= 1
                else:
                    avoid[c].pop()
            ranked.pop()
            placed[x] = placed[low ^ x] = 0

    walk()
    return results


def enumerate_orders(
    n: int,
    with_flags: bool = True,
    with_edges: bool = True,
    budget: Optional[float] = None,
    checkpoint_path=None,
    threads: int = 1,
) -> OrderCensus:
    """Generate P_n* exactly once each, then annotate.

    ``budget`` is wall-clock seconds for the whole call; on exhaustion a
    ResourceError is raised carrying the partial census built so far.
    ``checkpoint_path`` keeps per-order flags as they are computed, a
    census-order prefix that an interrupted run resumes from.
    """
    if not 1 <= n <= 6:
        raise ValueError(f"census enumeration supports 1 <= n <= 6, got {n}")
    deadline = time.monotonic() + budget if budget is not None else None
    census = OrderCensus(n, _generate_orders(n, deadline))
    if with_flags:
        # the only LP before the flag stage: its utilities seed the hints
        seed = is_representable(census.orders[0]).utilities
        hints = _annotate_edges(census, seed, deadline)
        if not with_edges:
            census.edges = None
        _annotate_flags(census, deadline, checkpoint_path, threads=threads, hints=hints)
    elif with_edges:
        _annotate_edges(census, deadline=deadline)
    return census


@contextmanager
def worker_map(fn, items, threads: int, chunksize: int):
    """``fn`` over ``items`` in order: ``pool.map`` over ``threads`` worker
    processes, at most one per CPU, when that is more than one, a plain
    ``map`` otherwise.  The pool takes ``items`` a batch at a time, one
    batch ahead of the results read, so a long lazy ``items`` is never
    held whole.  Leaving the block cancels the chunks not yet started and
    shuts the pool down, so a caller may stop taking results early (at its
    own deadline)."""
    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1:
        yield map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor  # ~20 ms import, only when used

    pool = ProcessPoolExecutor(max_workers=threads)
    try:
        yield _batched_map(pool, fn, iter(items), chunksize, 64 * chunksize * threads)
    finally:
        pool.shutdown(cancel_futures=True)


def _batched_map(pool, fn, items, chunksize: int, size: int):
    """``pool.map`` of ``fn`` over the iterator ``items``, ``size`` items a
    batch; the next batch is handed to the pool before this one's results
    are yielded, so the workers do not wait at a batch boundary."""
    batch = pool.map(fn, list(islice(items, size)), chunksize=chunksize)
    while True:
        following = list(islice(items, size))
        ahead = pool.map(fn, following, chunksize=chunksize) if following else None
        yield from batch
        if ahead is None:
            return
        batch = ahead


def _irreducible_count(order: ComparativeOrder) -> int:
    """Irreducible-element count of the order's cone, checked against
    Theorem 2: the irreducible elements must be exactly the vectors chi(A,
    B) of the flippable pairs (A, B), else VerificationError.  Both sides
    are 3^n-bit index sets (see ``cones``), compared as one int: the
    pairs' set has bit idx(0) + weight[b] - weight[a] for each pair of
    masks (a, b), and ``cones._irreducible_bits`` gives the cone's.  The
    sides of a flippable pair are disjoint, so distinct pairs give
    distinct vectors."""
    n = order.n
    weight = _ternary_tables(n)[0]
    zero = 3**n // 2
    chis = 0
    for _, a, b in _flippable_masks(order):
        chis |= 1 << zero + weight[b] - weight[a]
    irr = _irreducible_bits(cone_from_order(order))
    if irr != chis:
        raise VerificationError(
            f"Theorem 2 fails on a {n}-atom order: the cone's irreducible "
            "elements are not the vectors of its flippable pairs"
        )
    return irr.bit_count()


def _flag_worker(job: tuple[ComparativeOrder, Optional[tuple[int, ...]]]) -> tuple[bool, int]:
    """The flag of an (order, hint) job, from ``is_representable`` with the
    hint, and the order's irreducible count."""
    order, hint = job
    return is_representable(order, hint=hint).representable, _irreducible_count(order)


def _render_record(line: str, representable: Optional[bool], irr: Optional[int]) -> str:
    """One census or checkpoint record, newline-terminated: the order line
    and whichever of the flag and the count is not None."""
    record = {"order": line, "representable": representable, "irr": irr}
    return json.dumps({k: v for k, v in record.items() if v is not None}, sort_keys=True) + "\n"


def _parse_record(text, where: str) -> tuple[str, Optional[bool], Optional[int]]:
    """(order line, representable, irr) of a census or checkpoint record: a
    JSON object with a string ``order`` and, where present (else None), a
    bool ``representable`` and an int ``irr`` >= 0; else ValueError naming
    ``where``."""
    try:
        record = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{where}: not a JSON record: {exc}") from None
    if not isinstance(record, dict) or not isinstance(record.get("order"), str):
        raise ValueError(f'{where}: a record must be an object with a string "order"')
    if not isinstance(record.get("representable", False), bool):
        raise ValueError(f'{where}: "representable" must be true or false')
    irr = record.get("irr", 0)
    if not isinstance(irr, int) or isinstance(irr, bool) or irr < 0:
        raise ValueError(f'{where}: "irr" must be an integer >= 0')
    return record["order"], record.get("representable"), record.get("irr")


def _records(lines, path):
    """(line number, order line, representable, irr) for each nonblank line
    of the file at ``path``, through ``_parse_record``; a record whose flag
    or count is present where the first's is not, or absent where it is,
    raises ValueError naming ``path:line``."""
    shape = None
    for number, raw in enumerate(lines, 1):
        if raw.strip():
            line, rep, irr = _parse_record(raw, f"{path}:{number}")
            shape = shape or (rep is None, irr is None)
            if shape != (rep is None, irr is None):
                raise ValueError(f"{path}:{number}: flags and counts must be on all or no records")
            yield number, line, rep, irr


def _read_checkpoint(path, census) -> int:
    """Fill the flags of census orders 0..k-1 from the k records of the
    checkpoint at ``path`` and return k (0 without a file); record k must
    hold both flags and census order k's line.  Text after the last
    newline, a record torn by an interrupted write, is cut from the file,
    so the next append starts on a fresh line."""
    try:
        with open(path, "rb+") as fh:
            data = fh.read()
            complete = data.rfind(b"\n") + 1
            if complete < len(data):
                fh.truncate(complete)
    except FileNotFoundError:
        return 0
    n, orders, k = census.n, census.orders, 0
    for number, line, rep, irr in _records(data[:complete].splitlines(), path):
        where = f"{path}:{number}"
        head = line.partition(";")[0]
        if head != str(n):
            raise ValueError(f"{where}: checkpoint record has n={head}, this census has n={n}")
        if rep is None or irr is None:
            raise ValueError(f"{where}: a checkpoint record needs both flags")
        if k == len(orders):
            raise ValueError(f"{where}: checkpoint has more records than the {k} census orders")
        if line != order_to_line(orders[k]):
            raise ValueError(f"{where}: checkpoint record {k + 1} is not census order {k + 1}")
        census.representable[k], census.irr_counts[k] = rep, irr
        k += 1
    return k


def _annotate_flags(census, deadline, checkpoint_path, threads: int = 1, hints=None) -> None:
    """Fill the flags and irreducible counts in place, so an exhausted budget
    leaves the partial flags behind.  A checkpoint (records as in the module
    doc) is a census-order prefix: orders 0..k-1 take its k records' flags,
    orders k onward are flagged in order (``worker_map`` keeps it) and
    appended one by one, each line built only when checked or appended.

    Each flag is ``is_representable(order, hint=hints[i])``, whose hint is
    accepted only when ``check_certificate`` passes it: a hint from the
    flip walk (``_annotate_edges``) settles its order without an LP, and an
    order without one, or with a wrong one, is decided by the LP.  So the
    hints change which orders reach the LP, never a flag.  The jobs are
    made one at a time, as the workers take them."""
    total = len(census.orders)
    census.representable, census.irr_counts = [None] * total, [None] * total
    done = _read_checkpoint(checkpoint_path, census) if checkpoint_path else 0
    opened = open(checkpoint_path, "a", encoding="utf-8") if checkpoint_path else nullcontext()
    todo = islice(census.orders, done, None)
    jobs = zip(todo, islice(hints, done, None) if hints else repeat(None))
    with opened as sink, worker_map(_flag_worker, jobs, threads, chunksize=8) as flagged:
        for i, (rep, irr) in enumerate(flagged, done):
            census.representable[i], census.irr_counts[i] = rep, irr
            if sink is not None:
                sink.write(_render_record(order_to_line(census.orders[i]), rep, irr))
                sink.flush()
            if deadline is not None and i + 1 < total and time.monotonic() > deadline:
                raise ResourceError(
                    f"flag budget exhausted after {i + 1} of {total} orders", partial=census
                )


def singleton_relabeling(order: ComparativeOrder) -> tuple[int, ...]:
    """Permutation sending atoms to 1..n by ascending singleton rank;
    perm[old_atom - 1] = new_atom."""
    by_rank = sorted(range(order.n), key=lambda i: order.position[1 << i])
    return tuple(by_rank.index(i) + 1 for i in range(order.n))


def relabel_order(order: ComparativeOrder, perm: tuple[int, ...]) -> ComparativeOrder:
    """``order`` with atom i renamed perm[i - 1].  Renaming is additive over
    atoms, so the image of every mask is a subset sum of the atoms' images."""
    if len(perm) != order.n:
        raise ValueError(f"{order.n} atoms need {order.n} labels, got {len(perm)}")
    image = subset_sums([1 << (p - 1) for p in perm])
    return ComparativeOrder(order.n, [image[mask] for mask in order.ranked])


def _annotate_edges(census, seed=None, deadline: Optional[float] = None) -> list:
    """Fill ``census.edges`` row by row, in ``_flippable_masks`` order, and
    return a hint per census order: integer utilities that represent it, or
    None.  A flip whose order is not in the census, as it is or relabeled
    so its singletons ascend, raises VerificationError; ``census.edges``
    then keeps the rows of the census orders before the failing one (None
    for those not yet visited).  Past ``deadline``, checked as the DFS
    checks it, ResourceError carries the census as it stands.

    Without a ``seed`` the orders are visited in census order and no hint
    is made.  A seed, utilities that represent census order 0, makes the
    walk a flip walk first: the orders with a hint are visited from a
    queue, and each one's hint gives every not-yet-hinted neighbour a
    ``crossing_hint``.  The orders no hint reached (the nonrepresentable
    ones and a few the lines miss) are then visited in census order.  Only
    a neighbour found as it is takes a hint.  One found by relabeling is
    the flip of two singletons {i} < {i + 1}: it swaps every translate
    ({i}|D, {i + 1}|D), so renaming i and i + 1 gives back the order
    itself, a loop.  A hint re-derives its order by construction, and the
    flag stage still checks each one (see ``_annotate_flags``).

    The neighbours come from ``flips._flipped``, without ``flip``'s
    ``validate_order`` guard: a neighbour found in the index equals a
    census order, or relabels to one, and every census order passed
    ``validate_order`` when it was generated or read (``read_census``
    checks each record); validity does not change under relabeling.  A
    neighbour the index misses raises, valid or not."""
    orders = census.orders
    total = len(orders)
    index = {o.ranked: i for i, o in enumerate(orders)}
    edges = census.edges = [None] * total
    hints: list = [None] * total
    queue = deque()
    if seed is not None:
        hints[0] = tuple(seed)
        queue.append(0)

    def visiting():
        while queue:
            yield queue.popleft()
        yield from (i for i in range(total) if edges[i] is None)

    for visited, i in enumerate(visiting(), 1):
        if deadline is not None and visited % 64 == 0 and time.monotonic() > deadline:
            raise ResourceError(
                f"flip walk of n={census.n} exceeded its budget after {visited} of {total} orders",
                partial=census,
            )
        order, utilities = orders[i], hints[i]
        row: list[int] = []
        for _, a, b in _flippable_masks(order):
            if not a:
                continue
            neighbor = _flipped(order, a, b)
            j = index.get(neighbor.ranked)
            if j is None:
                j = index.get(relabel_order(neighbor, singleton_relabeling(neighbor)).ranked)
                if j is None:
                    del edges[i:]
                    raise VerificationError(f"a flip of census order {i} left the census")
            elif utilities is not None and hints[j] is None:
                hints[j] = crossing_hint(utilities, a, b, neighbor)
                if hints[j] is not None:
                    queue.append(j)
            row.append(j)
        edges[i] = row
    return hints


def brute_force_oracle(n: int) -> OrderCensus:
    """Independent census for n <= 3: filter every permutation of all 2^n
    subsets through the ascending-singleton convention, read off the
    permutation before any order is built, then the validity check.
    Permutations not starting at the empty set are exactly the empty-set-
    axiom failures, so they are skipped without building orders."""
    if not 1 <= n <= 3:
        raise ValueError("oracle is exhaustive over permutations only for n <= 3")
    singletons = [1 << i for i in range(n)]
    orders = []
    for perm in permutations(range(1, 1 << n)):
        places = [perm.index(s) for s in singletons]
        if places != sorted(places):
            continue
        order = ComparativeOrder(n, (0,) + perm)
        if validate_order(order).ok:
            orders.append(order)
    return OrderCensus(n, orders)


@dataclass(frozen=True)
class CensusStats:
    n: int
    order_count: int
    representable_count: int
    irr_histogram: dict[int, int]
    max_flippable: int  # m(n): max irreducible count = max flippable pairs
    max_facets: int  # M(n)
    min_facets: int  # over representable orders
    max_irr_all_friendly: bool
    full_graph_components: int
    representable_components: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "orders": self.order_count,
            "representable": self.representable_count,
            "irr_histogram": {str(k): v for k, v in sorted(self.irr_histogram.items())},
            "m": self.max_flippable,
            "M": self.max_facets,
            "min_facets": self.min_facets,
            "max_irr_all_friendly": self.max_irr_all_friendly,
            "full_graph_components": self.full_graph_components,
            "representable_components": self.representable_components,
        }


def _component_count(adjacency: dict[int, list[int]]) -> int:
    seen = set()
    components = 0
    for start in adjacency:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return components


def facet_counts_from_census(census: OrderCensus) -> list[Optional[int]]:
    """Facet count per representable order, None elsewhere: flippable pairs
    minus unfriendly flips, the neighbours' verdicts read off the census
    edges and flags (representability is invariant under relabeling)."""
    if census.representable is None or None in census.representable or census.edges is None:
        raise ValueError("census must carry representability flags and edges")
    rep = census.representable
    return [
        len(_flippable_masks(order)) - sum(not rep[j] for j in census.edges[i])
        if rep[i]
        else None
        for i, order in enumerate(census.orders)
    ]


def census_stats(census: OrderCensus) -> CensusStats:
    """Summary statistics of a census with irreducible counts,
    representability flags and edges.  M(n) and the minimum are taken over
    the facet counts of every representable order, read off the flags and
    edges, so no LP is solved."""
    if census.irr_counts is None or None in census.irr_counts:
        raise ValueError("census must carry irreducible counts")
    histogram: dict[int, int] = {}
    for irr in census.irr_counts:
        histogram[irr] = histogram.get(irr, 0) + 1
    m = max(census.irr_counts)
    max_rows = [i for i, irr in enumerate(census.irr_counts) if irr == m]
    facets = facet_counts_from_census(census)
    present = [f for f in facets if f is not None]
    rep = census.representable
    rep_adj = {i: [j for j in census.edges[i] if rep[j]] for i, v in enumerate(rep) if v}
    return CensusStats(
        n=census.n,
        order_count=len(census.orders),
        representable_count=sum(rep),
        irr_histogram=histogram,
        max_flippable=m,
        max_facets=max(present),
        min_facets=min(present),
        # irr_counts equal flippable-pair counts (Theorem 2), so a facet count
        # of m means a representable max-flip order with every flip friendly
        max_irr_all_friendly=all(facets[i] == m for i in max_rows),
        full_graph_components=_component_count(dict(enumerate(census.edges))),
        representable_components=_component_count(rep_adj),
    )


# ---------------------------------------------------------------------------
# Persistence: newline-delimited JSON, one order per line.


def write_census(census: OrderCensus, path) -> None:
    """Write one record per order; a census whose flags or counts are
    partly None raises ValueError before ``path`` is opened."""
    columns = (census.representable, census.irr_counts)
    if any(c is not None and (None in c or len(c) != len(census.orders)) for c in columns):
        raise ValueError("census flags and irreducible counts must be complete or absent")
    with open(path, "w", encoding="utf-8") as fh:
        for order, rep, irr in zip(census.orders, *(c or repeat(None) for c in columns)):
            fh.write(_render_record(order_to_line(order), rep, irr))


def read_census(path) -> OrderCensus:
    """The census in an NDJSON file, each record checked once against the
    read contract (see the module doc)."""
    orders, rep, irr = [], [], []
    line_of: dict[tuple[int, ...], int] = {}  # line number by order, in file order
    with open(path, "rb") as fh:
        for number, line, flag, count in _records(fh, path):
            try:
                order = order_from_line(line)
                n = orders[0].n if orders else order.n
                if order.n != n:
                    raise ValueError(f"census record has n={order.n}, earlier records have n={n}")
                report = validate_order(order)
                if not report.ok:
                    raise ValueError(report.message)
                if singleton_relabeling(order) != tuple(range(1, n + 1)):
                    raise ValueError("the singletons are not in ascending order")
                first = line_of.setdefault(order.ranked, number)
                if first != number:
                    raise ValueError(f"the order of line {first} repeats")
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
            orders.append(order)
            rep.append(flag)
            irr.append(count)
    if not orders:
        raise ValueError(f"no census records found in {path}")
    census = OrderCensus(n, orders, *(col if col[0] is not None else None for col in (rep, irr)))
    try:
        _annotate_edges(census)
    except VerificationError:
        where = f"{path}:{list(line_of.values())[len(census.edges)]}"
        raise ValueError(f"{where}: census file is incomplete: a flip is missing") from None
    return census
