"""One benchmark workload in one fresh process: set up, measure, check.

Started by run.py as ``python3 -E bench/workloads.py --workload NAME ...``.
It imports cporders from the checkout's ``src``, builds the workload's
inputs from the seed, and prints one JSON line.  With ``--setup-only`` it
stops once the inputs are ready, so run.py can time set-up again in fresh
processes.  Otherwise it repeats the workload's fixed unit of work until
``--seconds`` are spent (at least once), checks every unit's outputs, and
with ``--trace 1`` alternates untraced and traced units.  Every process
times the reference loop once its inputs are ready, and untraced units run
under a reference Sampler (reference.py) so run.py can scale their times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import sys
import time
from pathlib import Path

from reference import Sampler, ref_samples
from tracing import Tracer, default_targets, layer_metrics

BENCH = Path(__file__).resolve().parent
DATA = BENCH / "data"
# Fixed pool of random utility vectors.  A run's --seed relabels their atoms,
# so every seed decides the same orders up to relabelling: the work is the
# same size on every seed and the spread between runs is the machine's.
POOL_SEED = 1103
FIB_BASES = range(3, 12)
# Reference-loop samples taken once the inputs are ready (bench/reference.py).
SETUP_REFS = 8


def _quiet_main(argv):
    """Run ``cporders.cli.main`` in-process; return (exit code, stdout)."""
    import cporders.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cporders.cli.main(argv)
    return code, buf.getvalue()


def _fibonacci(k: int) -> int:
    """F_k with F_1 = F_2 = 1, computed here so checks do not trust cporders."""
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


def pool_orders(sizes) -> list:
    """Orders of tie-free random utility vectors of the given sizes, drawn
    from POOL_SEED."""
    from cporders import TieError, order_from_utilities

    rng = random.Random(POOL_SEED)
    orders = []
    for n in sizes:
        while True:
            try:
                orders.append(
                    order_from_utilities(tuple(rng.randrange(1, 1_000_000) for _ in range(n)))
                )
                break
            except TieError:
                continue
    return orders


def relabel(order, rng: random.Random):
    """``order`` with its atoms relabelled by a permutation drawn from
    ``rng``, and that permutation (perm[old - 1] = new)."""
    from cporders import relabel_order

    perm = tuple(p + 1 for p in rng.sample(range(order.n), order.n))
    return relabel_order(order, perm), perm


def lift(order, k: int):
    """Lexicographic product: k new atoms n+1..n+k compared first, then the
    base order on atoms 1..n.  Union-consistency carries over, and the base
    order sits inside as the subsets avoiding the new atoms, so a
    nonrepresentable base stays nonrepresentable."""
    from cporders import ComparativeOrder

    n = order.n
    low = (1 << n) - 1
    pos = order.position
    ranked = sorted(range(1 << (n + k)), key=lambda m: (m >> n, pos[m & low]))
    return ComparativeOrder(n + k, ranked)


def load_nonrep_bases():
    """Stored 5-atom nonrepresentable orders with their trading transforms;
    raises if a transform no longer certifies its order."""
    from cporders import Subset, TradingTransform, check_trading_transform, order_from_line

    bases = []
    for rec in json.loads((DATA / "nonrep5.json").read_text(encoding="utf-8")):
        order = order_from_line(rec["order"])
        transform = TradingTransform(
            tuple(Subset.from_text(s, order.n) for s in rec["A"]),
            tuple(Subset.from_text(s, order.n) for s in rec["B"]),
        )
        if not check_trading_transform(transform, order):
            raise ValueError(f"stored transform fails for census order {rec['census_index']}")
        bases.append((order, transform))
    return bases


def lift_transform(transform, n: int, perm=None):
    """The transform carried into the ``n``-atom lift, atoms moved by
    ``perm`` (perm[old - 1] = new, as in relabel_order) when given."""
    from cporders import Subset, TradingTransform

    def move(s):
        atoms = s.atoms if perm is None else (perm[a - 1] for a in s.atoms)
        return Subset.from_atoms(atoms, n)

    return TradingTransform(
        tuple(move(s) for s in transform.a_sets), tuple(move(s) for s in transform.b_sets)
    )


def _payload(text: str) -> dict:
    try:
        payload = json.loads(text)
    except ValueError:
        return {}
    return payload if isinstance(payload, dict) else {}


def census_digest(census) -> str:
    from cporders import order_to_line

    text = "\n".join(order_to_line(o) for o in census.orders)
    return hashlib.sha256(text.encode()).hexdigest()


class Repro:
    """``cporders repro --format json``: all twelve criteria, n=3/4/5 censuses."""

    def __init__(self, seed, work, smoke):
        self.golden = (DATA / "repro_golden.json").read_text(encoding="utf-8")

    def run(self):
        return _quiet_main(["repro", "--format", "json"])

    def check(self, out):
        code, text = out
        return 1, int(code != 0 or text != self.golden)


class RepresentLarge:
    """``cporders represent`` on 8-9-atom random-utility orders and on
    8-10-atom lifts of stored 5-atom nonrepresentable orders."""

    def __init__(self, seed, work, smoke):
        from cporders import check_trading_transform, write_order

        rep_sizes, lifts = ((8,), (3,)) if smoke else ((8, 9), (3, 5))
        rng = random.Random(seed)
        self.cases = [(relabel(order, rng)[0], True) for order in pool_orders(rep_sizes)]
        for (base, transform), k in zip(load_nonrep_bases(), lifts):
            moved, perm = relabel(lift(base, k), rng)
            if not check_trading_transform(lift_transform(transform, moved.n, perm), moved):
                raise ValueError("lifted transform does not certify the lifted order")
            self.cases.append((moved, False))
        work.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, (order, _) in enumerate(self.cases):
            path = work / f"order{i:02d}-n{order.n}.txt"
            write_order(order, path)
            self.paths.append(str(path))

    def run(self):
        return [
            _quiet_main(["represent", "--order-file", path, "--format", "json"])
            for path in self.paths
        ]

    def check(self, outs):
        from cporders import TieError, order_from_utilities

        failed = 0
        for (order, representable), (code, text) in zip(self.cases, outs):
            cert = _payload(text)
            if representable:
                try:
                    ok = code == 0 and order_from_utilities(cert["utilities"]) == order
                except (KeyError, TypeError, TieError, ValueError):
                    ok = False
            else:
                ok = code == 3 and cert.get("verdict") == "nonrepresentable"
            failed += not ok
        return len(self.cases), failed


class FlipGraph:
    """LP-free flip-graph work: verify-fibonacci 3..11 with friendliness,
    the Theorem-2 flippable/irreducible bijection on 8-10-atom orders, and
    validate_order on every flip neighbour of 8-9-atom orders."""

    def __init__(self, seed, work, smoke):
        sizes = (8, 9, 10) if smoke else (8, 8, 8, 9, 9, 9, 10, 10, 10)
        self.bases = range(3, 7) if smoke else FIB_BASES
        rng = random.Random(seed)
        self.orders = [relabel(order, rng)[0] for order in pool_orders(sizes)]
        self.neighbour_orders = [o for o in self.orders if o.n <= 9]

    def run(self):
        import cporders

        fib = [
            _quiet_main(["verify-fibonacci", "--n", str(k), "--format", "json"])
            for k in self.bases
        ]
        bijection = []
        for order in self.orders:
            pairs = cporders.flippable_pairs(order)
            chis = {cporders.characteristic_vector(fp.a, fp.b) for fp in pairs}
            irr = cporders.irreducible_elements(cporders.cone_from_order(order))
            bijection.append((len(pairs), chis, irr))
        valid = [
            cporders.validate_order(cporders.flip(order, fp)).ok
            for order in self.neighbour_orders
            for fp in cporders.flippable_pairs(order)
            if fp.a.mask != 0
        ]
        return fib, bijection, valid

    def check(self, out):
        fib, bijection, valid = out
        failed = 0
        for k, (code, text) in zip(self.bases, fib):
            report = _payload(text)
            want = _fibonacci(k + 2)
            failed += not (
                code == 0
                and report.get("flippable") == want == report.get("fibonacci")
                and report.get("neighbors_checked") == want
                and report.get("all_friendly") is True
            )
        for count, chis, irr in bijection:
            failed += not (len(chis) == count and chis == set(irr))
        failed += valid.count(False)
        return len(fib) + len(bijection) + len(valid), failed


class CensusGen:
    """One pass of ``enumerate_orders(5)`` without flags or edges."""

    def __init__(self, seed, work, smoke):
        self.expected = json.loads((DATA / "census5.json").read_text(encoding="utf-8"))

    def run(self):
        import cporders

        return cporders.enumerate_orders(5, with_flags=False, with_edges=False)

    def check(self, census):
        ok = len(census.orders) == self.expected["orders"] and (
            census_digest(census) == self.expected["sha256"]
        )
        return 1, int(not ok)


WORKLOADS = {
    "repro": Repro,
    "represent-large": RepresentLarge,
    "flipgraph": FlipGraph,
    "census-gen": CensusGen,
}


def measure(workload, seconds: float, trace: bool) -> dict:
    """Repeat the workload's unit while another iteration still fits in
    ``seconds`` (always at least one), checking every output.  Untraced
    units run under a reference Sampler; their times exclude its samples."""
    tracer = Tracer(default_targets()) if trace else None
    sampler = Sampler()
    reps, traced, layers = [], [], []
    attempted = failed = 0

    def once(times, context):
        nonlocal attempted, failed
        gc.collect()
        with context:
            start = time.perf_counter()
            out = workload.run()
            end = time.perf_counter()
        times.append(end - start - sampler.paused(start, end))
        a, f = workload.check(out)
        attempted, failed = attempted + a, failed + f

    began = time.perf_counter()
    iterations = 0
    while True:
        once(reps, sampler)
        if tracer is not None:
            tracer.reset()
            once(traced, tracer)
            layers.append(layer_metrics(tracer.spans))
        iterations += 1
        spent = time.perf_counter() - began
        if spent + spent / iterations > seconds:
            break
    result = {"reps": reps, "refs": sampler.samples, "attempted": attempted, "failed": failed}
    if tracer is not None:
        result["traced_reps"] = traced
        result["layers"] = layers
        result["spans"] = _span_table(tracer.spans)
    return result


def _span_table(spans) -> dict:
    """Spans of the last traced unit, with names interned and times in
    seconds from the first span's start."""
    names = sorted({s[0] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    rows = [
        [index[name], round(start - origin, 7), round(end - origin, 7), parent]
        for name, start, end, parent, _ in spans
    ]
    return {"names": names, "columns": ["name", "start_s", "end_s", "parent"], "spans": rows}


def machine_facts() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "debug": __debug__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for generated input files")
    parser.add_argument("--src", required=True, help="directory holding the cporders package")
    parser.add_argument("--smoke", action="store_true", help="reduced inputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import cporders.cli  # noqa: F401  (import time is part of set-up)

    workload = WORKLOADS[args.workload](args.seed, Path(args.work), args.smoke)
    ready = time.monotonic()
    result = {"ready": ready, "setup_refs": ref_samples(SETUP_REFS)}
    if not args.setup_only:
        result.update(measure(workload, args.seconds, bool(args.trace)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["facts"] = machine_facts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
