"""Exact-rational linear programming via two-phase simplex.

Dense tableau simplex over ``Fraction`` with Bland's anti-cycling rule and
one artificial variable per row in phase 1.  Each phase builds its
reduced-cost row once and then updates it at every pivot like one more
tableau row, and a pivot touches only the rows with a nonzero in the pivot
column and, in them, only the columns where the pivot row is nonzero.  The
arithmetic is exact, so the carried row equals the one rebuilt from the
basis and every pivot is the one the plain tableau method would take.
The two phases of one LP share ``DEFAULT_PIVOT_BUDGET`` pivots, read through
``rings.budget``; one more raises ``BudgetExceededError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from thresholds.rings import BudgetExceededError, budget

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
DEFAULT_PIVOT_BUDGET = 10**5  # simplex pivots of one LP, both phases


@dataclass
class LPResult:
    status: str
    x: list | None  # values of the original variables
    objective: Fraction | None


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LPResult:
    """Minimize ``c.x`` subject to ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``x >= 0``.

    All inputs may be ints or Fractions; the result is exact.  A right-hand
    side of the wrong length, or a row of another length than ``c``, raises
    ``ValueError``; an LP that needs more pivots than the pivot budget raises
    ``BudgetExceededError``.
    """
    A_ub = A_ub or []
    b_ub = b_ub or []
    A_eq = A_eq or []
    b_eq = b_eq or []
    n = len(c)
    if len(b_ub) != len(A_ub) or len(b_eq) != len(A_eq):
        raise ValueError("each constraint row needs exactly one right-hand side")
    if any(len(row) != n for row in (*A_ub, *A_eq)):
        raise ValueError(f"every constraint row needs {n} entries, one per variable")
    c = [Fraction(v) for v in c]

    rows = []
    rhs = []
    n_slack = len(A_ub)
    for i, (row, b) in enumerate(zip(A_ub, b_ub)):
        r = [Fraction(v) for v in row] + [Fraction(0)] * n_slack
        r[n + i] = Fraction(1)
        rows.append(r)
        rhs.append(Fraction(b))
    for row, b in zip(A_eq, b_eq):
        r = [Fraction(v) for v in row] + [Fraction(0)] * n_slack
        rows.append(r)
        rhs.append(Fraction(b))
    m = len(rows)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # One artificial variable per row; phase 1 drives them all to zero.  A
    # slack that is +1 in a row with nonnegative rhs could serve as the basis
    # directly, but always adding artificials keeps the bookkeeping uniform.
    total = n + n_slack + m
    tableau = []
    for i in range(m):
        row = rows[i] + [Fraction(0)] * m + [rhs[i]]
        row[n + n_slack + i] = Fraction(1)
        tableau.append(row)
    basis = [n + n_slack + i for i in range(m)]

    phase1_cost = [Fraction(0)] * (n + n_slack) + [Fraction(1)] * m
    left = budget(DEFAULT_PIVOT_BUDGET)
    status, left = _simplex(tableau, basis, phase1_cost, total, left)
    if status == UNBOUNDED:  # phase 1 is bounded below by 0; cannot happen
        raise AssertionError("phase 1 unbounded")
    if _objective(tableau, basis, phase1_cost) != 0:
        return LPResult(INFEASIBLE, None, None)
    _drive_out_artificials(tableau, basis, n + n_slack)

    phase2_cost = c + [Fraction(0)] * (n_slack + m)
    status, _ = _simplex(tableau, basis, phase2_cost, n + n_slack, left)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    return LPResult(OPTIMAL, x, sum(ci * xi for ci, xi in zip(c, x)))


def _objective(tableau, basis, cost) -> Fraction:
    return sum(cost[var] * tableau[i][-1] for i, var in enumerate(basis))


def _simplex(tableau, basis, cost, ncols, left: int) -> tuple:
    """Run the simplex from the current basis; return the status and how
    many of the ``left`` pivots remain."""
    m = len(tableau)
    # reduced[j] = cost[j] - c_B (B^{-1} A)_j; tableau rows are already B^{-1} A.
    reduced = cost[:ncols]
    for i, var in enumerate(basis):
        cb = cost[var]
        if cb:
            row = tableau[i]
            for j in range(ncols):
                if row[j]:
                    reduced[j] -= cb * row[j]
    while True:
        entering = next((j for j in range(ncols) if reduced[j] < 0), None)
        if entering is None:
            return OPTIMAL, left
        # Bland: entering already lowest-index; leaving = lowest basis index
        # among the minimum-ratio rows.
        leaving = None
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED, left
        if not left:
            raise BudgetExceededError("LP pivot budget exceeded")
        left -= 1
        support = _pivot(tableau, basis, leaving, entering)
        factor = reduced[entering]
        row = tableau[leaving]
        for j in support:
            if j < ncols:
                reduced[j] -= factor * row[j]


def _pivot(tableau, basis, row: int, col: int) -> list:
    """Pivot on (row, col) in place; return the columns where the new pivot
    row is nonzero, the only ones the elimination changes."""
    prow = tableau[row]
    piv = prow[col]
    if piv != 1:
        prow = tableau[row] = [v / piv for v in prow]
    support = [j for j, v in enumerate(prow) if v]
    for i, other in enumerate(tableau):
        factor = other[col]
        if factor and i != row:
            for j in support:
                other[j] -= factor * prow[j]
    basis[row] = col
    return support


def _drive_out_artificials(tableau, basis, n_real: int):
    for i in range(len(basis)):
        if basis[i] >= n_real:
            col = next((j for j in range(n_real) if tableau[i][j] != 0), None)
            if col is not None:
                _pivot(tableau, basis, i, col)
            # else: redundant row; harmless to leave the artificial at zero
