"""Exact rational feasibility solver: phase-1 simplex on a dense tableau.

Decides whether {x >= 0 : A x >= b} is nonempty with integer input data and
arbitrary-precision rational pivoting, so verdicts carry no rounding error.
Either verdict comes with its proof: a point x of the set, or Farkas
multipliers lambda >= 0 with lambda^T A <= 0 and lambda^T b > 0, which no
x >= 0 can satisfy together with A x >= b.  The multipliers are the final
phase-1 reduced costs of the surplus columns, so they cost no extra pivot.
Uses gmpy2 rationals when available (several times faster), plain Fractions
otherwise.  Dantzig pricing with an automatic switch to Bland's rule after a
run of degenerate pivots guarantees termination.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

try:
    from gmpy2 import mpq as _rational
except ImportError:  # pragma: no cover - gmpy2 present in normal installs
    from fractions import Fraction as _rational

_DEGENERATE_LIMIT = 50
_MAX_PIVOTS = 200_000


class Feasibility(NamedTuple):
    """Outcome of :func:`solve_feasibility`; exactly one field is not None."""

    solution: Optional[list]  # rationals x >= 0 with A x >= b
    farkas: Optional[list]  # one multiplier per row: lambda >= 0, lambda^T A <= 0, lambda^T b > 0


def solve_feasibility(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Feasibility:
    """Decide whether some rational x >= 0 has rows . x >= rhs; return that
    x, or else the Farkas multipliers proving that none exists."""
    m = len(rows)
    if m != len(rhs):
        raise ValueError("rows and rhs lengths differ")
    if m == 0:
        return Feasibility([], None)
    n = len(rows[0])
    zero = _rational(0)
    one = _rational(1)

    # Columns: n structural, m slack/surplus, then one artificial per row
    # with positive right-hand side.  Rows with rhs <= 0 are negated so the
    # slack column doubles as the initial basic variable.
    art_rows = [i for i in range(m) if rhs[i] > 0]
    ncols = n + m + len(art_rows)
    tableau = []
    basis = []
    art_index = {}
    for i in range(m):
        row = [zero] * (ncols + 1)
        if rhs[i] > 0:
            for j, coeff in enumerate(rows[i]):
                row[j] = _rational(coeff)
            row[n + i] = -one
            art_col = n + m + len(art_index)
            art_index[i] = art_col
            row[art_col] = one
            row[ncols] = _rational(rhs[i])
            basis.append(art_col)
        else:
            for j, coeff in enumerate(rows[i]):
                row[j] = _rational(-coeff)
            row[n + i] = one
            row[ncols] = _rational(-rhs[i])
            basis.append(n + i)
        tableau.append(row)

    # Phase-1 objective: minimize the artificial sum.  Reduced costs for the
    # initial basis are minus the column sums over artificial rows.
    reduced = [zero] * ncols
    objective = zero
    for i in art_rows:
        row = tableau[i]
        for j in range(ncols):
            reduced[j] -= row[j]
        objective += row[ncols]
    for col in art_index.values():
        reduced[col] = zero

    bland = False
    degenerate_run = 0
    for _ in range(_MAX_PIVOTS):
        # entering column
        enter = -1
        if bland:
            for j in range(ncols):
                if reduced[j] < zero:
                    enter = j
                    break
        else:
            best = zero
            for j in range(ncols):
                if reduced[j] < best:
                    best = reduced[j]
                    enter = j
        if enter < 0:
            break  # optimal
        # ratio test; ties go to the smallest basis index (Bland-safe)
        leave = -1
        best_ratio = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > zero:
                ratio = tableau[i][ncols] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded below; input corrupt")
        if best_ratio == zero:
            degenerate_run += 1
            if degenerate_run >= _DEGENERATE_LIMIT:
                bland = True
        else:
            degenerate_run = 0

        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        if pivot != one:
            inv = one / pivot
            for j in range(ncols + 1):
                if pivot_row[j]:
                    pivot_row[j] *= inv
        for i in range(m):
            if i == leave:
                continue
            factor = tableau[i][enter]
            if factor:
                row = tableau[i]
                for j in range(ncols + 1):
                    if pivot_row[j]:
                        row[j] -= factor * pivot_row[j]
        factor = reduced[enter]
        if factor:
            for j in range(ncols):
                if pivot_row[j]:
                    reduced[j] -= factor * pivot_row[j]
            objective += factor * pivot_row[ncols]
        basis[leave] = enter
    else:
        raise RuntimeError("simplex pivot limit exceeded")

    if objective != zero:
        # reduced cost of surplus column i = multiplier of row i (see module doc)
        return Feasibility(None, reduced[n : n + m])
    solution = [zero] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tableau[i][ncols]
    return Feasibility(solution, None)
