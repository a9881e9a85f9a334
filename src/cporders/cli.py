"""Command-line front end.

Exit codes: 0 success / verification pass, 1 usage error, 2 verification
failure, 3 nonrepresentable verdict (represent/certify), 4 budget
exhausted (also ``represent --transform`` when the search's tables of
member sums would exceed 2^21 codes).  JSON output is canonical (sorted
keys, no timestamps) so identical inputs produce byte-identical reports.

``certify`` exits 2 with ``certificate_valid: false`` on a certificate that
proves nothing for the order (say, tying utilities), and with ``verification
failed: ...`` on a file not in the shape ``represent`` writes: not JSON, no
known verdict, other keys, utilities not a list of ints (a string, floats,
bools, numeric strings), As and Bs of unequal length, or an atom that is not
an int, lies outside 1..n or repeats within its set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

from . import __version__
from .bounds import entropy_bound, lambda_rate_bracket, upper_bound, verify_fibonacci_construction
from .census import census_stats, enumerate_orders, read_census, write_census
from .errors import CporderError, ResourceError, VerificationError
from .flips import flip_neighbors, flippable_pairs
from .orders import (
    _decimal,
    lexicographic_utilities,
    maclagan_utilities,
    order_from_utilities,
    order_to_line,
    order_to_lines,
    read_order,
    validate_order,
    write_order,
)
from .represent import Certificate, check_certificate, find_trading_transform, is_representable
from .repro import run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2
EXIT_NONREPRESENTABLE = 3
EXIT_BUDGET = 4


def _emit(payload: dict, fmt: str, text_lines) -> None:
    """Print ``payload`` as JSON, or ``text_lines``, and flush.  A closed
    stdout means nobody reads: stdout then points at os.devnull, so the
    flush at exit cannot fail either, and the command keeps its exit code."""
    try:
        if fmt == "json":
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_construct(args) -> int:
    if args.lex is not None:
        utilities = lexicographic_utilities(args.lex)
    elif args.maclagan is not None:
        utilities = maclagan_utilities(args.maclagan)
    else:
        utilities = tuple(_decimal(tok.strip()) for tok in args.utilities.split(","))
    order = order_from_utilities(utilities)
    if args.out:
        write_order(order, args.out)
    payload = {
        "n": order.n,
        "utilities": list(utilities),
        "order": order_to_line(order),
    }
    _emit(payload, args.format, order_to_lines(order))
    return EXIT_OK


def _read_valid_order(path):
    """``read_order`` plus the order axioms, which flips presume: on a file
    that breaks them, a flip could yield a ranking that is no order."""
    order = read_order(path)
    report = validate_order(order)
    if not report.ok:
        raise ValueError(report.message)
    return order


def cmd_flips(args) -> int:
    order = _read_valid_order(args.order_file)
    pairs = flippable_pairs(order)
    payload = {
        "n": order.n,
        "count": len(pairs),
        "pairs": [fp.to_json() for fp in pairs],
    }
    lines = [f"{len(pairs)} flippable pairs"] + [
        f"  ({fp.a.to_text()}, {fp.b.to_text()}) at rank {fp.rank_a}, "
        f"{fp.adjacencies} adjacencies"
        for fp in pairs
    ]
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_neighbors(args) -> int:
    order = _read_valid_order(args.order_file)
    flipped = [neighbor for _, neighbor in flip_neighbors(order)]
    payload = {
        "n": order.n,
        "count": len(flipped),
        "neighbors": [order_to_line(o) for o in flipped],
    }
    _emit(payload, args.format, [f"{len(flipped)} neighbors"] + payload["neighbors"])
    return EXIT_OK


def cmd_represent(args) -> int:
    order = read_order(args.order_file)
    cert = is_representable(order)
    if not cert.representable and args.transform:
        shortest = find_trading_transform(order, k_max=args.k_max)
        if shortest is not None:
            cert = replace(cert, transform=shortest)
    payload = cert.to_json()
    lines = [f"verdict: {cert.verdict}"]
    if cert.utilities:
        lines.append("utilities: " + ",".join(map(str, cert.utilities)))
    if cert.transform:
        lines.append("transform: " + json.dumps(cert.transform.to_json(), sort_keys=True))
    _emit(payload, args.format, lines)
    return EXIT_OK if cert.representable else EXIT_NONREPRESENTABLE


def cmd_certify(args) -> int:
    order = read_order(args.order_file)
    with open(args.certificate, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise VerificationError(f"certificate is not JSON: {exc}") from None
    cert = Certificate.from_json(data, order.n)
    ok = check_certificate(cert, order)
    _emit(
        {"verdict": cert.verdict, "certificate_valid": ok},
        args.format,
        [f"certificate {'valid' if ok else 'INVALID'} for verdict {cert.verdict}"],
    )
    if not ok:
        return EXIT_VERIFY_FAIL
    return EXIT_OK if cert.representable else EXIT_NONREPRESENTABLE


def cmd_enumerate(args) -> int:
    census = enumerate_orders(
        args.n,
        with_flags=not args.no_flags,
        with_edges=not args.no_flags,  # only census_stats reads edges
        budget=args.budget,
        checkpoint_path=args.checkpoint,
        threads=args.threads,
    )
    if args.out:
        write_census(census, args.out)
    stats = None
    if census.irr_counts is not None:
        stats = census_stats(census).to_json()
    payload = {"n": args.n, "orders": len(census.orders), "stats": stats}
    lines = [f"{len(census.orders)} orders in P_{args.n}*"]
    if stats:
        lines.append(json.dumps(stats, sort_keys=True))
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_stats(args) -> int:
    census = read_census(args.infile)
    stats = census_stats(census)
    payload = stats.to_json()
    lines = [f"{k}: {v}" for k, v in sorted(payload.items())]
    _emit(payload, args.format, lines)
    return EXIT_OK


def _rational(text: str) -> Fraction:
    """argparse type of ``bounds --c``: a malformed value is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def cmd_bounds(args) -> int:
    rows = []
    for n in range(args.start, args.stop + 1):
        report = upper_bound(n)
        rows.append(
            {
                "n": n,
                "fib_lower": report.fib_lower,
                "s_star": report.s_star,
                "count_upper": report.count_upper,
            }
        )
    payload: dict = {"rows": rows}
    lines = ["  n  F(n+1)  s*  upper"] + [
        f"{r['n']:3d}  {r['fib_lower']:6d}  {r['s_star']:2d}  {r['count_upper']:5d}"
        for r in rows
    ]
    if args.c is not None:
        bound = entropy_bound(args.stop, args.c)
        lam_lo, lam_hi = lambda_rate_bracket()
        payload["entropy"] = {
            "c": str(bound.c),
            "rate_interval": [float(bound.rate_lower), float(bound.rate_upper)],
            "lambda_rate_interval": [float(lam_lo), float(lam_hi)],
        }
        lines.append(
            f"2^H({bound.c}) in [{float(bound.rate_lower):.6f}, {float(bound.rate_upper):.6f}], "
            f"2^H(lambda) in [{float(lam_lo):.6f}, {float(lam_hi):.6f}]"
        )
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_verify_fibonacci(args) -> int:
    report = verify_fibonacci_construction(args.n, check_friendly=not args.skip_friendly)
    payload = {
        "base_n": report.base_n,
        "atoms": report.atoms,
        "flippable": report.flippable_count,
        "fibonacci": report.fibonacci_expected,
        "g": report.g,
        "h": report.h,
        "neighbors_checked": report.neighbors_checked,
        "all_friendly": report.all_friendly,
    }
    _emit(payload, args.format, [report.summary()])
    return EXIT_OK


def cmd_repro(args) -> int:
    results = run_all(threads=args.threads, n6_budget=args.n6_budget)
    payload = {
        "results": [
            {
                "criterion": r.number,
                "name": r.name,
                "status": r.status,
                "detail": r.detail,
            }
            for r in results
        ]
    }
    _emit(payload, args.format, [r.line() for r in results])
    return EXIT_OK if all(r.passed or r.skipped for r in results) else EXIT_VERIFY_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process and shared by every main() call
    parser = argparse.ArgumentParser(
        prog="cporders",
        description="comparative probability orders: flips, cones, representability, bounds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order_file=False, threads=False):
        p.add_argument("--format", choices=("json", "text"), default="json")
        if threads:
            p.add_argument("--threads", type=int, default=1, help="worker pool size")
        if order_file:
            p.add_argument("--order-file", required=True)

    p = sub.add_parser("construct", help="build an order from utilities")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lex", type=int, help="binary weights on n atoms")
    group.add_argument("--maclagan", type=int, help="doubled weights plus q_n, base n")
    group.add_argument("--utilities", help="comma-separated positive integers")
    p.add_argument("--out", help="write the order file here")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("flips", help="list flippable pairs of an order")
    common(p, order_file=True)
    p.set_defaults(func=cmd_flips)

    p = sub.add_parser("neighbors", help="list flip neighbors of an order")
    common(p, order_file=True)
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("represent", help="decide representability")
    common(p, order_file=True)
    p.add_argument("--transform", action="store_true", help="on a nonrepresentable verdict, "
                   "replace the certificate's transform with the shortest one found up to --k-max")
    p.add_argument("--k-max", type=int, default=4, help="longest transform searched; exits 4 "
                   "when (2 ceil(k_max/2) + 1)^n exceeds 2^21 (k_max 4 reaches 9 atoms)")
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("certify", help="check a certificate file against an order")
    common(p, order_file=True)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("enumerate", help="generate the census of P_n*")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="write NDJSON census here")
    p.add_argument("--budget", type=float, help="wall-clock seconds")
    p.add_argument("--checkpoint", help="resumable flag file: a census-order prefix of the census")
    p.add_argument("--no-flags", action="store_true")
    common(p, threads=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("stats", help="summarise a census file")
    p.add_argument("--in", dest="infile", required=True)
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bounds", help="lower/upper bound table")
    p.add_argument("--from", dest="start", type=int, default=3)
    p.add_argument("--to", dest="stop", type=int, default=12)
    p.add_argument("--c", type=_rational, help="entropy parameter in (lambda, 1/2), e.g. 0.25")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify-fibonacci", help="check the Fibonacci construction")
    p.add_argument("--n", type=int, required=True, help="base atom count (order lives on n+1)")
    p.add_argument("--skip-friendly", action="store_true")
    common(p)
    p.set_defaults(func=cmd_verify_fibonacci)

    p = sub.add_parser("repro", help="run the paper reproduction suite")
    p.add_argument("--n6-budget", type=float, help="seconds for the n=6 census (default: skipped)")
    common(p, threads=True)
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; remap (0 stays 0 for --help)
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ResourceError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except (CporderError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
