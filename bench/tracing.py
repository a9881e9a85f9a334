"""Span tracing from outside the program, for the benchmark's traced runs.

A Tracer wraps public cporders functions at the layer boundaries.  The
modules bind each other's functions with ``from .x import y``, so patching
only the defining module would miss most calls: while a Tracer is entered,
every binding of a traced function in any loaded ``cporders`` module (and in
module-level dicts such as ``repro.ALL_CRITERIA``) points at the wrapper,
and leaving it restores the originals.  Calls inside a function body that
do not go through such a binding stay invisible and count in the caller's
self time.

Spans are kept in memory as (name, start, end, parent index, note) and
turned into per-layer metrics by :func:`layer_metrics`.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

def _lp_note(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return len(rows), result is None


def _decide_note(args, kwargs, result):
    hint = args[1] if len(args) > 1 else kwargs.get("hint")
    return hint is not None, result.representable


def _validate_note(args, kwargs, result):
    return result.ok


def default_targets():
    """(function, span name, note) for every traced layer boundary."""
    from cporders import bounds, census, cones, flips, lp, orders, represent, repro

    targets = [
        (lp.solve_feasibility, "lp.solve", _lp_note),
        (represent.is_representable, "represent.decide", _decide_note),
        (represent.find_trading_transform, "represent.transform", None),
        (represent.check_trading_transform, "represent.transform", None),
        (cones.cone_from_order, "cones.cone", None),
        (cones.irreducible_elements, "cones.irreducible", None),
        (flips.flippable_pairs, "flips.flippable", None),
        (flips.flip, "flips.flip", None),
        (orders.validate_order, "orders.validate", _validate_note),
        (orders.order_from_utilities, "orders.from_utilities", None),
        (census.enumerate_orders, "census.enumerate", None),
        (census.census_stats, "census.stats", None),
        (bounds.verify_fibonacci_construction, "bounds.fibonacci", None),
        (repro.criterion_6_census_6, "repro.criterion_06", None),
    ]
    for number, fn in repro.ALL_CRITERIA.items():
        targets.append((fn, f"repro.criterion_{number:02d}", None))
    return targets


class Tracer:
    """Context manager that records a span per call of each target."""

    def __init__(self, targets):
        self.spans: list = []
        self._stack: list[int] = []
        self._wrappers = {id(fn): (fn, self._wrap(fn, name, note)) for fn, name, note in targets}
        self._undo: list = []

    def _wrap(self, fn, name, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent, note(args, kwargs, result) if note else None)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()

    def __enter__(self):
        for modname, module in list(sys.modules.items()):
            if modname == "cporders" or modname.startswith("cporders."):
                namespace = vars(module)
                self._patch(namespace)
                for value in list(namespace.values()):
                    if isinstance(value, dict):
                        self._patch(value)
        return self

    def _patch(self, mapping: dict) -> None:
        for key, value in list(mapping.items()):
            entry = self._wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                mapping[key] = entry[1]
                self._undo.append((mapping, key, value))

    def __exit__(self, *exc):
        while self._undo:
            mapping, key, value = self._undo.pop()
            mapping[key] = value
        return False


def layer_metrics(spans) -> dict:
    """Per-layer counts and seconds from one traced repetition's spans.

    ``busy_s`` of a name sums the spans of that name not nested in another
    span of the same name; ``self_s`` subtracts the time covered by direct
    child spans (children never overlap: the program is single-threaded).
    """
    children: list[float] = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    lp_children = [0] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            children[parent] += end - start
            if name == "lp.solve":
                lp_children[parent] += 1

    def nested_in_same(i: int) -> bool:
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ()) if not nested_in_same(i))

    def self_time(name):
        return sum(spans[i][2] - spans[i][1] - children[i] for i in by_name.get(name, ()))

    lp = by_name.get("lp.solve", ())
    decides = by_name.get("represent.decide", ())
    validates = by_name.get("orders.validate", ())
    out = {
        "lp.solve.calls": calls("lp.solve"),
        "lp.solve.busy_s": busy("lp.solve"),
        "lp.solve.rows": sum(spans[i][4][0] for i in lp if spans[i][4]),
        "lp.solve.infeasible": sum(1 for i in lp if spans[i][4] and spans[i][4][1]),
        "represent.decide.calls": len(decides),
        "represent.decide.self_s": self_time("represent.decide"),
        "represent.lp_per_decide": len(lp) / len(decides) if decides else 0.0,
        "represent.nonrep": sum(1 for i in decides if spans[i][4] and not spans[i][4][1]),
        "represent.hint_hits": sum(
            1 for i in decides if spans[i][4] and spans[i][4][0] and lp_children[i] == 0
        ),
        "represent.transform.busy_s": busy("represent.transform"),
        "cones.cone.busy_s": busy("cones.cone"),
        "cones.irreducible.calls": calls("cones.irreducible"),
        "cones.irreducible.busy_s": busy("cones.irreducible"),
        "flips.flippable.calls": calls("flips.flippable"),
        "flips.flippable.busy_s": busy("flips.flippable"),
        "flips.flip.calls": calls("flips.flip"),
        "flips.flip.busy_s": busy("flips.flip"),
        "orders.validate.calls": len(validates),
        "orders.validate.busy_s": busy("orders.validate"),
        "orders.from_utilities.calls": calls("orders.from_utilities"),
        "orders.from_utilities.busy_s": busy("orders.from_utilities"),
        "census.enumerate.busy_s": busy("census.enumerate"),
        "census.dfs.self_s": self_time("census.enumerate"),
        "census.validator_rejects": sum(
            1
            for i in validates
            if spans[i][4] is False
            and spans[i][3] >= 0
            and spans[spans[i][3]][0] == "census.enumerate"
        ),
        "census.stats.busy_s": busy("census.stats"),
        "bounds.fibonacci.busy_s": busy("bounds.fibonacci"),
    }
    for number in range(1, 13):
        out[f"repro.criterion_{number:02d}.busy_s"] = busy(f"repro.criterion_{number:02d}")
    return out
