"""Tests of the benchmark itself: the lifted nonrepresentable inputs, the
reference sampler, one short pass per workload, one traced run, and the
refusal to run without sources.  Run from the repository root with
``python3 -m pytest bench/tests``.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from reference import REF_INTERVAL_S, Sampler  # noqa: E402
from cporders import (  # noqa: E402
    check_trading_transform,
    is_representable,
    validate_order,
    verify_fibonacci_construction,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("k", [1, 2])
def test_lift_keeps_axioms_and_transform(k):
    for base, transform in workloads.load_nonrep_bases():
        lifted = workloads.lift(base, k)
        assert lifted.n == base.n + k
        assert validate_order(lifted).ok
        assert check_trading_transform(workloads.lift_transform(transform, lifted.n), lifted)
        assert not is_representable(lifted).representable


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_short_pass(workload):
    result = _result(_run(workload, 0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["metrics"]["pass_ratio"]["value"] == 1.0


def test_traced_run_reports_every_layer():
    result = _result(_run("flipgraph", 1))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["lp.solve.calls"] == 0
    hints = sum(verify_fibonacci_construction(k).neighbors_checked for k in range(3, 7))
    assert metrics["represent.hint_hits"] == hints
    assert metrics["trace.overhead_ratio"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("census-gen", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sampler_times_reference_calls_inside_work():
    with Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * REF_INTERVAL_S:
            sum(range(1000))
        end = time.perf_counter()
    assert len(sampler.samples) >= 2
    assert sampler.paused(start, end) == pytest.approx(sum(sampler.samples))
    assert sampler.paused(end, end + 1) == 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
