"""Benchmark of the cporders toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/cporders``.  Each run
byte-compiles ``src``, then starts fresh single-threaded processes
(bench/workloads.py) under a pinned environment: Python's ``-E`` flag drops
PYTHON* variables such as PYTHONOPTIMIZE, and CPOL_THREADS and
CPOL_N6_BUDGET are removed, so ``--threads`` stays 1, criterion 6 skips and
asserts stay on.  Of SETUP_SAMPLES processes one measures and the rest
only set up, half before it and half after, so the set-up samples span the
run.  Times are scaled to a nominal host speed by a reference loop timed in
the same processes (bench/reference.py).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Every repetition, set-up sample, machine fact and (traced)
span goes to ``.bench_out/`` in the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # a run must end within 180 s
CLEARED_ENV = ("CPOL_THREADS", "CPOL_N6_BUDGET")


class BenchError(Exception):
    pass


def _child(args, started: float, setup_only: bool) -> dict:
    """Run bench/workloads.py once; return its JSON with ``setup_s`` added
    (process start to inputs ready, on the system-wide monotonic clock)."""
    cmd = [
        sys.executable, "-E", str(BENCH / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(WORK / f"{args.workload}-{args.seed}"), "--src", str(SRC),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError("out of time before the measuring process started")
    begin = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("workload process printed no result") from None
    result["setup_s"] = result["ready"] - begin
    return result


def _metrics(spec: dict, trace: bool, result: dict, children: list) -> dict:
    """Metric values by name.  Times are scaled to the nominal host
    (bench/reference.py): a unit's by the reference samples its process
    took, set-up's by those all ``children`` took once set up."""
    wall = statistics.median(result["reps"])
    if trace:
        layers = {
            name: statistics.median(rep[name] for rep in result["layers"])
            for name in result["layers"][0]
        }
        layers["trace.overhead_ratio"] = statistics.median(result["traced_reps"]) / wall
        values, wanted = layers, spec["per_layer"]
    else:
        attempted = result["attempted"]
        values = {
            "setup_s": statistics.median(child["setup_s"] for child in children)
            * scale([t for child in children for t in child["setup_refs"]]),
            "wall_s": wall * scale(result["setup_refs"] + result["refs"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_ratio": (attempted - result["failed"]) / attempted,
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="cporders benchmark")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced inputs, one set-up sample")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "cporders" / "__init__.py").is_file():
        print(f"bench: no cporders package under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("bench: src does not compile", file=sys.stderr)
        return 2

    try:
        extra = 0 if args.smoke else SETUP_SAMPLES - 1
        children = [_child(args, started, setup_only=True) for _ in range(extra // 2)]
        result = _child(args, started, setup_only=False)
        children.append(result)
        children += [_child(args, started, setup_only=True) for _ in range(extra - extra // 2)]
        metrics = _metrics(spec, bool(args.trace), result, children)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / f"{args.workload}-{args.seed}", ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    spans = result.pop("spans", None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cleared_env": list(CLEARED_ENV),
        "facts": result["facts"],
        "setup_s": [child["setup_s"] for child in children],
        "setup_refs_s": [child["setup_refs"] for child in children],
        "reps_s": result["reps"],
        "refs_s": result["refs"],
        "traced_reps_s": result.get("traced_reps"),
        "layers_per_rep": result.get("layers"),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_ratio": result["failed"] / result["attempted"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")

    print("facts " + json.dumps(result["facts"], sort_keys=True))
    print("setup_s " + json.dumps(record["setup_s"]))
    print("reps_s " + json.dumps(result["reps"]))
    print("refs_s " + json.dumps(result["refs"]))
    if args.trace:
        print("traced_reps_s " + json.dumps(result["traced_reps"]))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
