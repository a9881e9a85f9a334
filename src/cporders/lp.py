"""Exact rational feasibility solver: phase-1 simplex on a dense tableau.

Decides whether {x >= 0 : A x >= b} is nonempty with integer input data and
exact arithmetic, so verdicts carry no rounding error.  Either verdict comes
with its proof: a point x of the set, or Farkas multipliers lambda >= 0 with
lambda^T A <= 0 and lambda^T b > 0, which no x >= 0 can satisfy together
with A x >= b.  The multipliers are the final phase-1 reduced costs of the
surplus columns, so they cost no extra pivot.  They come back as the
tableau's integers, which are the rational multipliers times the final
denominator d > 0; a positive scale keeps all three conditions, so no
Fraction is built for them.  The point x comes back in Fractions.

The tableau is integer-preserving (Edmonds 1967; Bareiss 1968): the
tableau, the reduced costs and the objective are Python ints over one
common positive denominator d, the previous pivot, which starts at 1.
Pivoting on entry p = T[r][c] > 0 leaves row r as it is and maps every
other row to (p*x - T[i][c]*y) // d, y running over row r; the reduced-cost
row, which carries minus the objective in its last slot, is updated the
same way; then d = p.  Every entry equals det(B) times the rational entry
of the basis B's tableau, an integer because det(B) B^-1 is the adjugate,
and det(B) is the product of the true pivots, which is the new d.  So each
division leaves no remainder, and d stays positive because the ratio test
only picks positive pivots.  No Fraction is built until the answer is read
off, and no gcd is taken while pivoting.  There is one numeric path: plain
Python ints, no gmpy2.

Dantzig pricing with an automatic switch to Bland's rule after a run of
degenerate pivots guarantees termination.  All entries share the scale d,
so prices and ratios (compared by cross-multiplying) pick the same pivots
as a tableau of rationals would.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

_DEGENERATE_LIMIT = 50
_MAX_PIVOTS = 200_000


class Feasibility(NamedTuple):
    """Outcome of :func:`solve_feasibility`; exactly one field is not None."""

    solution: Optional[list]  # Fractions x >= 0 with A x >= b
    farkas: Optional[list]  # one int per row: lambda >= 0, lambda^T A <= 0, lambda^T b > 0


def solve_feasibility(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Feasibility:
    """Decide whether some rational x >= 0 has rows . x >= rhs; return that
    x, or else the Farkas multipliers proving that none exists."""
    m = len(rows)
    if m != len(rhs):
        raise ValueError("rows and rhs lengths differ")
    if m == 0:
        return Feasibility([], None)
    n = len(rows[0])

    # Columns: n structural, m slack/surplus, then one artificial per row
    # with positive right-hand side.  Rows with rhs <= 0 are negated so the
    # slack column doubles as the initial basic variable.
    art_rows = [i for i in range(m) if rhs[i] > 0]
    ncols = n + m + len(art_rows)
    tableau = []
    basis = []
    for i in range(m):
        row = [0] * (ncols + 1)
        if rhs[i] > 0:
            row[:n] = rows[i]
            row[n + i] = -1
            art_col = n + m + art_rows.index(i)
            row[art_col] = 1
            row[ncols] = rhs[i]
            basis.append(art_col)
        else:
            row[:n] = [-v for v in rows[i]]
            row[n + i] = 1
            row[ncols] = -rhs[i]
            basis.append(n + i)
        tableau.append(row)

    # Phase-1 objective: minimize the artificial sum.  Reduced costs for the
    # initial basis are minus the column sums over artificial rows (zero on
    # the artificial columns themselves); the last slot holds minus the
    # objective, so the whole row pivots like a tableau row.
    cost = [0] * (ncols + 1)
    for i in art_rows:
        for j, v in enumerate(tableau[i]):
            cost[j] -= v
    cost[n + m : ncols] = [0] * len(art_rows)

    d = 1
    bland = False
    degenerate_run = 0
    for _ in range(_MAX_PIVOTS):
        # entering column
        enter = -1
        if bland:
            for j in range(ncols):
                if cost[j] < 0:
                    enter = j
                    break
        else:
            best = 0
            for j in range(ncols):
                if cost[j] < best:
                    best = cost[j]
                    enter = j
        if enter < 0:
            break  # optimal
        # ratio test b_i / a_i, compared as b_i * a_best < b_best * a_i;
        # ties go to the smallest basis index (Bland-safe)
        leave = -1
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                if leave < 0:
                    leave, a_best, b_best = i, a, tableau[i][ncols]
                    continue
                b = tableau[i][ncols]
                here, there = b * a_best, b_best * a
                if here < there or (here == there and basis[i] < basis[leave]):
                    leave, a_best, b_best = i, a, b
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded below; input corrupt")
        if b_best == 0:
            degenerate_run += 1
            if degenerate_run >= _DEGENERATE_LIMIT:
                bland = True
        else:
            degenerate_run = 0

        pivot_row = tableau[leave]
        p = a_best
        for row in tableau + [cost]:
            if row is pivot_row:
                continue
            f = row[enter]
            if f:
                row[:] = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
            elif p != d:
                row[:] = [p * x // d for x in row]
        d = p
        basis[leave] = enter
    else:
        raise RuntimeError("simplex pivot limit exceeded")

    if cost[ncols] != 0:
        # reduced cost of surplus column i = d times the multiplier of row i
        return Feasibility(None, cost[n : n + m])
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = Fraction(tableau[i][ncols], d)
    return Feasibility(solution, None)
