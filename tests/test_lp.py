import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, strategies as st

from thresholds.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


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
    c = [Fraction(-3, 4), 150, Fraction(-1, 50), 6]
    A_ub = [
        [Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0],
    ]
    b_ub = [0, 0, 1]
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
    assert res.status == OPTIMAL
    assert res.objective == Fraction(-1, 20)


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


SRC = Path(__file__).resolve().parent.parent / "src" / "thresholds"


def _uses(tree, name):
    """(enclosing def path, e.g. ``Class.method``) of each load of ``name``,
    and whether ``name`` is imported at all."""
    uses, imported = set(), False

    def visit(node, scope):
        nonlocal imported
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.ImportFrom):
                imported |= any(alias.name == name for alias in child.names)
            elif (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                uses.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return uses, imported


def test_solve_lp_only_in_the_ray_and_region_lps():
    """The monomial layer asks the simplex one question, where a ray enters
    P(a); the one other LP minimizes a weight over a region given by
    inequalities, which has no generators to take a hull of."""
    uses, importers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        found, imported = _uses(ast.parse(path.read_text()), "solve_lp")
        uses |= {(path.stem, f) for f in found}
        if imported:
            importers.add(path.stem)
    assert uses == {("newton", "ray_entry"), ("asymptotic", "PolyhedralQ.val_limit")}
    assert importers == {"newton", "asymptotic"}
