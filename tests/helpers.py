"""Shared hypothesis strategies, small oracles and the source scanner of
the AST guards, for the test suite."""

import ast
import signal
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from thresholds.rings import Polynomial, Ring

SRC = Path(__file__).resolve().parent.parent / "src" / "thresholds"


def exponents(nvars, max_exp=4):
    return st.tuples(*[st.integers(0, max_exp)] * nvars)


def polynomials(ring: Ring, max_terms=4, max_exp=4, max_coeff=7):
    """Random sparse polynomials over the given ring (possibly zero)."""
    if ring.p is not None:
        coeffs = st.integers(1, ring.p - 1)
    else:
        coeffs = st.integers(-max_coeff, max_coeff).filter(bool)
    term = st.tuples(exponents(ring.nvars, max_exp), coeffs)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: Polynomial(ring, dict(ts))
    )


def nonzero_polynomials(ring: Ring, **kw):
    return polynomials(ring, **kw).filter(lambda f: not f.is_zero())


def origin_polynomials(ring: Ring, min_terms=1, max_terms=3, max_exp=3):
    """Polynomials over F_p of min_terms..max_terms terms, none constant, so
    each vanishes at the origin."""
    term = st.tuples(exponents(ring.nvars, max_exp).filter(any),
                     st.integers(1, ring.p - 1))
    return st.lists(term, min_size=min_terms, max_size=max_terms,
                    unique_by=lambda t: t[0]).map(lambda ts: Polynomial(ring, dict(ts)))


def frobenius_level(p: int, d: int) -> int:
    """The least p^b, b >= 1, that is 1 mod d (d prime to p)."""
    q = p
    while (q - 1) % d:
        q *= p
    return q


def ideal_members(gens):
    """Random elements h1*g1 + ... + hk*gk of the ideal."""
    ring = gens[0].ring
    mults = st.tuples(*[polynomials(ring, max_terms=2, max_exp=2) for _ in gens])
    def combine(hs):
        out = Polynomial.zero(ring)
        for h, g in zip(hs, gens):
            out = out + h * g
        return out
    return mults.map(combine)


def monomial_exponent_sets(nvars, max_exp=5, max_gens=4):
    return st.lists(
        st.tuples(*[st.integers(0, max_exp)] * nvars).filter(lambda g: any(g)),
        min_size=1,
        max_size=max_gens,
    )


def m_primary_exponent_sets(nvars, max_exp=5, max_extra=2):
    """Pure powers of every variable plus a few mixed generators."""
    pure = st.tuples(*[st.integers(1, max_exp)] * nvars)
    extra = st.lists(
        st.tuples(*[st.integers(0, max_exp)] * nvars).filter(lambda g: any(g)),
        max_size=max_extra,
    )
    def build(args):
        powers, mixed = args
        gens = [
            tuple(r if j == i else 0 for j in range(nvars))
            for i, r in enumerate(powers)
        ]
        return gens + mixed
    return st.tuples(pure, extra).map(build)


def brute_lct_diagonal(exps):
    """Threshold of the ideal (x_1^{a_1}, ..., x_n^{a_n}): sum of 1/a_i."""
    return sum(Fraction(1, a) for a in exps)


@contextmanager
def within_seconds(seconds: float):
    """Fail with TimeoutError, rather than hang, when the body runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def uses(tree, name):
    """(enclosing def path, e.g. ``Class.method``) of each load of ``name``
    or string constant equal to it, and whether ``name`` is imported at all."""
    found, imported = set(), False

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
                found.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found, imported


def src_uses(name):
    """The (module, enclosing def path) of each use of ``name`` in the
    package, and the modules that import it by name."""
    found, importers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        scopes, imported = uses(ast.parse(path.read_text()), name)
        found |= {(path.stem, s) for s in scopes}
        if imported:
            importers.add(path.stem)
    return found, importers
