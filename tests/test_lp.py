import ast
from fractions import Fraction

import oracles
import pytest
from hypothesis import example, given, strategies as st

from helpers import SRC, src_uses, uses
from thresholds import lp
from thresholds.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from thresholds.rings import BudgetExceededError

BEALE = (
    [Fraction(-3, 4), 150, Fraction(-1, 50), 6],
    [
        [Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0],
    ],
    [0, 0, 1],
)


def test_simple_optimum():
    # min x + y  s.t.  x + 2y >= 4, 3x + y >= 6
    res = solve_lp([1, 1], A_ub=[[-1, -2], [-3, -1]], b_ub=[-4, -6])
    assert res.status == OPTIMAL
    assert res.objective == Fraction(14, 5)
    assert res.x == [Fraction(8, 5), Fraction(6, 5)]


def test_equality_constraints():
    # min 2x + y  s.t.  x + y = 3
    res = solve_lp([2, 1], A_eq=[[1, 1]], b_eq=[3])
    assert res.status == OPTIMAL
    assert res.objective == 3
    assert res.x == [0, 3]


def test_infeasible():
    res = solve_lp([1], A_ub=[[1], [-1]], b_ub=[1, -2])
    assert res.status == INFEASIBLE


def test_unbounded():
    res = solve_lp([-1], A_ub=[[-1]], b_ub=[0])
    assert res.status == UNBOUNDED


def test_degenerate_does_not_cycle():
    # classic cycling-prone instance (Beale); Bland's rule must terminate
    c, A_ub, b_ub = BEALE
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
    assert res.status == OPTIMAL
    assert res.objective == Fraction(-1, 20)


def test_pivot_budget_stops_the_simplex(monkeypatch):
    # Beale's LP takes 6 pivots; a budget of 3 raises before the fourth
    monkeypatch.setenv("THRESHOLDS_BUDGET", "3")
    with pytest.raises(BudgetExceededError, match="pivot budget"):
        solve_lp(*BEALE)


def test_exact_rationals_survive():
    res = solve_lp([1], A_ub=[[-3]], b_ub=[-1])
    assert res.objective == Fraction(1, 3)


@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 5)),
        min_size=1,
        max_size=4,
    ),
)
def test_solution_is_feasible_and_beats_origin(c, rows):
    # b >= 0 keeps the origin feasible, so the solver must return OPTIMAL
    # or UNBOUNDED, and an optimal solution satisfies every constraint
    # exactly and does at least as well as the origin.
    A_ub = [[a, b] for a, b, _ in rows]
    b_ub = [bb for _, _, bb in rows]
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
    assert res.status in (OPTIMAL, UNBOUNDED)
    if res.status == OPTIMAL:
        assert all(x >= 0 for x in res.x)
        for row, bb in zip(A_ub, b_ub):
            assert sum(a * x for a, x in zip(row, res.x)) <= bb
        assert res.objective <= 0


def test_mismatched_shapes_raise():
    with pytest.raises(ValueError):  # one rhs for two rows
        solve_lp([-1, -1], A_ub=[[1, 0], [0, 1]], b_ub=[1])
    with pytest.raises(ValueError):
        solve_lp([1, 1], A_eq=[[1, 1]], b_eq=[1, 2])
    with pytest.raises(ValueError):  # a row shorter than c
        solve_lp([1, 1], A_ub=[[1, 0], [1]], b_ub=[1, 1])
    with pytest.raises(ValueError):
        solve_lp([1], A_eq=[[1, 1]], b_eq=[1])


_ENTRY = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def _lps(draw):
    """1-5 variables, 0-4 <= rows and 0-2 = rows, right-hand sides of both
    signs, so every status occurs."""
    n = draw(st.integers(1, 5))
    row = st.lists(_ENTRY, min_size=n, max_size=n)
    A_ub = draw(st.lists(row, max_size=4))
    A_eq = draw(st.lists(row, max_size=2))
    b_ub = draw(st.lists(_ENTRY, min_size=len(A_ub), max_size=len(A_ub)))
    b_eq = draw(st.lists(_ENTRY, min_size=len(A_eq), max_size=len(A_eq)))
    return draw(row), A_ub, b_ub, A_eq, b_eq


def _solve_counting_pivots(solve, module, pivot, problem, cap):
    """(result, pivots) of one solve; a pivot past ``cap`` fails at once, so a
    kernel that repeats a pivot forever fails instead of hanging."""
    count = 0
    original = getattr(module, pivot)

    def counting(*args):
        nonlocal count
        count += 1
        assert count <= cap, f"more than {cap} pivots"
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, pivot, counting)
        res = solve(*problem)
    return res, count


@example(BEALE + ([], []))
@given(_lps())
def test_carried_reduced_costs_take_the_reference_pivots(problem):
    """The carried reduced-cost row and the sparse pivot change no decision:
    same status, x and objective as the plain tableau, pivot for pivot."""
    ref, ref_pivots = _solve_counting_pivots(
        oracles.solve_lp_reference, oracles, "_reference_pivot", problem, 1000
    )
    res, pivots = _solve_counting_pivots(solve_lp, lp, "_pivot", problem, ref_pivots)
    assert (res.status, res.x, res.objective) == (ref.status, ref.x, ref.objective)
    assert pivots == ref_pivots


def test_solve_lp_only_in_the_ray_and_region_lps():
    """The monomial layer asks the simplex one question, where a ray enters
    P(a).  A weight over a region given by inequalities is minimized over the
    region's vertices, from ``newton.extreme_rays``, not by an LP."""
    assert src_uses("solve_lp") == ({("newton", "ray_entry")}, {"newton"})


BUDGETS = ("DEFAULT_TERM_BUDGET", "WALK_BUDGET", "DEFAULT_BOX_BUDGET",
           "DEFAULT_PRODUCT_BUDGET", "DEFAULT_PAIR_BUDGET", "DEFAULT_PIVOT_BUDGET")


def test_budgets_are_read_never_written():
    """THRESHOLDS_BUDGET is read in one place, ``rings.budget``, and every
    named budget is charged through it.  Nothing writes a module global: no
    ``global`` statement, no setattr or delattr, no assignment to an
    attribute of an imported name."""
    readers, stray, writes = set(), [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found, _ = uses(tree, "THRESHOLDS_BUDGET")
        readers |= {(path.stem, f) for f in found}
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        charged = {
            id(arg) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "budget" for arg in node.args
        }
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            name = getattr(node, "id", getattr(node, "attr", None))
            if name in BUDGETS and isinstance(node.ctx, ast.Load) and (
                id(node) not in charged
            ):
                stray.append(where)
            if isinstance(node, ast.Global) or (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
            ) or (
                isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in imported
            ):
                writes.append(where)
    assert readers == {("rings", "budget")}
    assert not stray, f"budgets read around rings.budget: {stray}"
    assert not writes, f"module state written: {writes}"
