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
    """(enclosing def path, e.g. ``Class.method``) of each load of ``name``
    or string constant equal to it, and whether ``name`` is imported at all."""
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
            ) or (isinstance(child, ast.Constant) and child.value == name):
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


BUDGETS = ("DEFAULT_TERM_BUDGET", "WALK_BUDGET", "DEFAULT_BOX_BUDGET",
           "DEFAULT_PRODUCT_BUDGET", "DEFAULT_PAIR_BUDGET")


def test_budgets_are_read_never_written():
    """THRESHOLDS_BUDGET is read in one place, ``rings.budget``, and every
    named budget is charged through it.  Nothing writes a module global: no
    ``global`` statement, no setattr or delattr, no assignment to an
    attribute of an imported name."""
    readers, stray, writes = set(), [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found, _ = _uses(tree, "THRESHOLDS_BUDGET")
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
