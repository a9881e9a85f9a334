"""The benchmark's tracer (bench/tracing.py) swaps each module-global
binding of a traced cporders function for a wrapper.  These checks keep
every traced name resolvable, and keep the neighbour decisions going
through module globals, where the wrapper can see them."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_targets_resolve(tracing):
    targets = tracing.default_targets()
    assert all(callable(fn) for fn, _, _ in targets)
    names = {name for _, name, _ in targets}
    assert {"flips.flip", "flips.flippable", "represent.decide", "census.stats",
            "bounds.fibonacci", "repro.criterion_06"} <= names


def test_neighbour_decisions_are_traced(tracing):
    from cporders import verify_fibonacci_construction

    with tracing.Tracer(tracing.default_targets()) as tracer:
        report = verify_fibonacci_construction(4)
    decides = [s for s in tracer.spans if s[0] == "represent.decide"]
    flips = [s for s in tracer.spans if s[0] == "flips.flip"]
    assert len(decides) == len(flips) == report.neighbors_checked == 8
    assert all(note == (True, True) for *_, note in decides)  # settled by hints
    assert not any(s[0] == "lp.solve" for s in tracer.spans)
