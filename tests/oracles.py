"""Slow, independent oracles for the property tests; the package runs none.

Each function here is a direct transcription of a definition; the property
tests check the package's faster or more uniform paths against them.
"""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, isqrt
from operator import add

from thresholds.grobner import PolyIdeal, _divides, _fp_generators
from thresholds.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, solve_lp
from thresholds import grobner
from thresholds.frobenius import nu
from thresholds.newton import MonomialIdeal, minimal_points, ray_entry
from thresholds.rings import (
    MAX_NESTING,
    BudgetExceededError,
    ParseError,
    Polynomial,
    Ring,
    _tokenize,
    budget,
)


def minimal_points_by_pairs(points) -> list:
    """Drop every point componentwise >= another one, testing each pair, and
    sort the distinct rest (``newton.minimal_points``)."""
    out = []
    for p in points:
        if any(q != p and all(a <= b for a, b in zip(q, p)) for q in points):
            continue
        if p not in out:
            out.append(p)
    return sorted(out)


def contains_point(a: MonomialIdeal, q) -> bool:
    """Exact membership of q in P(a): q = sum mu_i g_i + r, mu in the simplex, r >= 0."""
    q = [Fraction(x) for x in q]
    if len(q) != a.n:
        raise ValueError(f"point has dimension {len(q)}, expected {a.n}")
    if any(x < 0 for x in q):
        return False
    k = len(a.gens)
    # feasibility: sum mu_i g_i <= q componentwise, sum mu_i = 1, mu >= 0
    A_ub = [[a.gens[i][j] for i in range(k)] for j in range(a.n)]
    res = solve_lp([Fraction(0)] * k, A_ub, q, [[Fraction(1)] * k], [Fraction(1)])
    return res.status == OPTIMAL


def ray_entry_dual(a: MonomialIdeal, v) -> Fraction:
    """min{t : t*v in P(a)} for a proper ideal, as 1 / max{sum nu : sum nu_i
    g_i <= v, nu >= 0}: the dual LP on every generator, with no hull step."""
    A_ub = [[g[j] for g in a.gens] for j in range(a.n)]
    res = solve_lp([-1] * len(a.gens), A_ub, list(v))
    assert res.status == OPTIMAL, res.status
    return -1 / res.objective


def _interior_point(ideal: MonomialIdeal, lam: Fraction, v) -> bool:
    """Is v in the interior of lam * P(ideal)?  Exact LP on the slack."""
    k = len(ideal.gens)
    n = ideal.n
    # vars: mu_1..mu_k, eps; maximize eps s.t. lam*sum mu g <= v - eps
    c = [Fraction(0)] * k + [Fraction(-1)]
    A_ub = [
        [lam * ideal.gens[j][i] for j in range(k)] + [Fraction(1)]
        for i in range(n)
    ]
    b_ub = [Fraction(v[i]) for i in range(n)]
    A_eq = [[Fraction(1)] * k + [Fraction(0)]]
    res = solve_lp(c, A_ub, b_ub, A_eq, [Fraction(1)])
    return res.status == OPTIMAL and -res.objective > 0


def tau_by_slack(ideal: MonomialIdeal, lam) -> MonomialIdeal:
    """tau(a^lam) for lam > 0: the monomials u with u+1 interior to lam*P(a),
    each point decided by the slack LP :func:`_interior_point`."""
    lam = Fraction(lam)
    bound = ceil(lam * max(max(g) for g in ideal.gens)) + 1
    gens = []
    for u in product(range(bound + 1), repeat=ideal.n):
        if any(all(x >= y for x, y in zip(u, g)) for g in gens):
            continue
        if _interior_point(ideal, lam, [x + 1 for x in u]):
            gens.append(u)
    return MonomialIdeal(ideal.n, gens)


def tau_by_ray_entry(ideal: MonomialIdeal, lam) -> MonomialIdeal:
    """tau(a^lam): each point u of the generator box not above a generator
    found so far is one exact LP, ``lam * ray_entry(a, u+1) < 1``."""
    lam = Fraction(lam)
    n = ideal.n
    if lam == 0:
        return MonomialIdeal(n, [(0,) * n])
    axes = [range(floor(lam * max(g[j] for g in ideal.gens)) + 1)
            for j in range(n)]
    gens = []
    for u in product(*axes):
        if any(all(x >= y for x, y in zip(u, g)) for g in gens):
            continue
        if lam * ray_entry(ideal, [x + 1 for x in u]) < 1:
            gens.append(u)
    return MonomialIdeal(n, gens)


class _ReferenceParser:
    """The polynomial grammar parsed by ``Polynomial`` arithmetic alone:
    every factor is a ``Polynomial``, raised to its ``^k`` and multiplied
    into its term."""

    def __init__(self, tokens, ring: Ring):
        self.tokens, self.i, self.ring, self.depth = tokens, 0, ring, 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def parse_expr(self) -> Polynomial:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        out = self.parse_term()
        if sign < 0:
            out = -out
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_term()
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    def parse_term(self) -> Polynomial:
        out = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                out = out * self.parse_factor()
            else:
                return out

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, k, pos = self.next()
            if kind != "int":
                raise ParseError("expected integer exponent after '^'", pos)
            return base**k
        return base

    def parse_base(self) -> Polynomial:
        kind, val, pos = self.next()
        if kind == "int":
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/" and self.ring.p is None:
                self.next()
                kind3, den, pos3 = self.next()
                if kind3 != "int" or den == 0:
                    raise ParseError("expected nonzero integer denominator", pos3)
                return Polynomial.constant(self.ring, Fraction(val, den))
            return Polynomial.constant(self.ring, val)
        if kind == "name":
            try:
                idx = self.ring.names.index(val)
            except ValueError:
                raise ParseError(f"unknown variable {val!r}", pos) from None
            return Polynomial.variable(self.ring, idx)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.parse_expr()
            kind, val, pos = self.next()
            if kind != "op" or val != ")":
                raise ParseError("expected ')'", pos)
            self.depth -= 1
            return inner
        raise ParseError("expected coefficient, variable or '('", pos)


def parse_polynomial_reference(text: str, ring: Ring) -> Polynomial:
    """``rings.parse_polynomial`` through :class:`_ReferenceParser`."""
    parser = _ReferenceParser(_tokenize(text), ring)
    out = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return out


def frobenius_expand(components: dict, ring: Ring, e: int) -> Polynomial:
    """Inverse of ``frobenius_decompose``: sum of ``u_w^{p^e} x^w``."""
    q = ring.p**e
    out = Polynomial.zero(ring)
    for w, u in components.items():
        powered = Polynomial(
            ring, {tuple(x * q for x in exp): c for exp, c in u.terms.items()}
        )
        out = out + powered * Polynomial.monomial(ring, w)
    return out


def frobenius_bracket_power(b: PolyIdeal, e: int) -> PolyIdeal:
    """b^[p^e]: the ideal generated by the p^e-th powers of the generators."""
    q = b.ring.p**e
    return PolyIdeal([g.pow(q) for g in b.gens])


def in_frobenius_power(g: Polynomial, e: int) -> bool:
    """Membership of g in m^[p^e] = (x_1^{p^e}, ..., x_n^{p^e}), termwise."""
    if e < 1:
        raise ValueError("e must be >= 1")
    if g.ring.p is None:
        raise ValueError("in_frobenius_power needs an F_p ring")
    q = g.ring.p**e
    return all(any(x >= q for x in exp) for exp in g.terms)


def fpt_upper_by_generators(gens, e: int) -> Fraction:
    """The upper end of the F-pure threshold enclosure at level e as it stood
    when each generator took its own level walk: sum_i (nu_{g_i}(e) + 1)/p^e,
    capped at n/ord.  It bounds fpt(a), as nu_a(e) <= sum_i nu_{g_i}(e) by
    pigeonhole: a product of more factors has some g_i more than nu_{g_i}(e)
    times, and lies in m^[p^e]."""
    a = PolyIdeal(gens)
    q = a.ring.p**e
    upper = sum(Fraction(nu(g, e) + 1, q) for g in a.gens)
    return min(upper, Fraction(a.ring.nvars, min(g.order() for g in a.gens)))


def solve_lp_reference(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LPResult:
    """Plain dense-tableau simplex, the reference for ``thresholds.lp.solve_lp``:
    it rebuilds the reduced costs from the basis at every iteration and
    rewrites whole rows at every pivot.  Same rules (Bland, one artificial per
    row), so the same pivots, status, x and objective as ``solve_lp``."""
    A_ub = A_ub or []
    b_ub = b_ub or []
    A_eq = A_eq or []
    b_eq = b_eq or []
    n = len(c)
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
    status = _reference_simplex(tableau, basis, phase1_cost, total)
    if status == UNBOUNDED:  # phase 1 is bounded below by 0; cannot happen
        raise AssertionError("phase 1 unbounded")
    if _reference_objective(tableau, basis, phase1_cost) != 0:
        return LPResult(INFEASIBLE, None, None)
    _reference_drive_out_artificials(tableau, basis, n + n_slack)

    phase2_cost = c + [Fraction(0)] * (n_slack + m)
    status = _reference_simplex(tableau, basis, phase2_cost, n + n_slack)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    return LPResult(OPTIMAL, x, sum(ci * xi for ci, xi in zip(c, x)))


def _reference_objective(tableau, basis, cost) -> Fraction:
    return sum(cost[var] * tableau[i][-1] for i, var in enumerate(basis))


def _reference_reduced_costs(tableau, basis, cost, ncols):
    # y = c_B B^{-1} is implicit: tableau rows are already B^{-1} A.
    out = []
    for j in range(ncols):
        rc = cost[j]
        for i, var in enumerate(basis):
            rc -= cost[var] * tableau[i][j]
        out.append(rc)
    return out


def _reference_simplex(tableau, basis, cost, ncols) -> str:
    m = len(tableau)
    while True:
        reduced = _reference_reduced_costs(tableau, basis, cost, ncols)
        entering = next((j for j in range(ncols) if reduced[j] < 0), None)
        if entering is None:
            return OPTIMAL
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
            return UNBOUNDED
        _reference_pivot(tableau, basis, leaving, entering)


def _reference_pivot(tableau, basis, row: int, col: int):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            factor = tableau[i][col]
            tableau[i] = [v - factor * w for v, w in zip(tableau[i], tableau[row])]
    basis[row] = col


def _reference_drive_out_artificials(tableau, basis, n_real: int):
    for i in range(len(basis)):
        if basis[i] >= n_real:
            col = next((j for j in range(n_real) if tableau[i][j] != 0), None)
            if col is not None:
                _reference_pivot(tableau, basis, i, col)
            # else: redundant row; harmless to leave the artificial at zero


def _slice_points(points, t: Fraction):
    """Generators of the slice {u' : (u', t) in conv(points)+orthant}.

    Vertices of the slice come from points at height <= t and from edges
    mixing a low point with a high point exactly at height t.
    """
    low = [p for p in points if p[-1] <= t]
    high = [p for p in points if p[-1] > t]
    out = [p[:-1] for p in low]
    for a in low:
        for b in high:
            s = (t - a[-1]) / (b[-1] - a[-1])
            out.append(
                tuple(x + (y - x) * s for x, y in zip(a[:-1], b[:-1]))
            )
    return out


def _interp_integral(xs, ys, lo: Fraction, hi: Fraction) -> Fraction:
    """Integral over [lo, hi] of the Lagrange interpolant through (xs, ys)."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        # integrate the i-th Lagrange basis polynomial exactly
        coeffs = [Fraction(1)]  # polynomial in t, ascending powers
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(coeffs) + 1)
            for d, cd in enumerate(coeffs):
                new[d] -= cd * xj
                new[d + 1] += cd
            coeffs = new
        integral = sum(
            cd * (hi ** (d + 1) - lo ** (d + 1)) / (d + 1)
            for d, cd in enumerate(coeffs)
        )
        total += yi * integral / denom
    return total


def covolume_reference(points, n: int) -> Fraction:
    """Volume of the orthant complement of conv(points)+orthant, the reference
    for ``thresholds.newton.covolume``.

    Requires the complement to be bounded, which holds when the points include
    one on each coordinate axis.  Recursive slicing along the last coordinate:
    between consecutive generator heights the slice volume is a polynomial of
    degree < n, recovered by exact interpolation and integrated.
    """
    points = minimal_points([tuple(Fraction(x) for x in p) for p in points])
    if n == 1:
        return min(p[0] for p in points)
    heights = sorted({p[-1] for p in points})
    if heights[0] != 0:
        heights.insert(0, Fraction(0))
    total = Fraction(0)
    for lo, hi in zip(heights, heights[1:]):
        span = hi - lo
        # n interior sample points determine the degree <(n) polynomial; one
        # extra point cross-checks that the degree bound actually holds
        xs = [lo + span * Fraction(j, n + 2) for j in range(1, n + 2)]
        ys = [covolume_reference(_slice_points(points, t), n - 1) for t in xs]
        extra = _interp_value(xs[:-1], ys[:-1], xs[-1])
        if extra != ys[-1]:
            raise AssertionError("slice volume not polynomial on interval")
        total += _interp_integral(xs[:-1], ys[:-1], lo, hi)
    return total


def _interp_value(xs, ys, x: Fraction) -> Fraction:
    out = Fraction(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = yi
        for j, xj in enumerate(xs):
            if j != i:
                term *= (x - xj) / (xi - xj)
        out += term
    return out


def _laplace_det(m) -> int:
    """Determinant by cofactor expansion along the first row; 1 for 0 x 0."""
    if not m:
        return 1
    return sum((-1) ** j * x * _laplace_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j, x in enumerate(m[0]) if x)


def extreme_rays_reference(rows, d: int) -> set:
    """Extreme rays of {x in R^d : x >= 0, <a, x> >= 0 for each row a}, the
    reference for ``thresholds.newton.extreme_rays``: a set of (ray, tight)
    pairs, bit j < d of the mask for x_j >= 0 and bit d + i for row i.

    The cone lies in the orthant, so a nonzero point of it spans an extreme
    ray exactly when the constraints zero on it have rank d - 1.  Brute
    force over every d - 1 constraints of that rank: their kernel is the line
    spanned by the signed maximal minors, and each primitive direction on it
    that meets every constraint is an extreme ray.
    """
    cons = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    cons += [tuple(a) for a in rows]
    out = set()
    for sub in combinations(cons, d - 1):
        k = [(-1) ** j * _laplace_det([c[:j] + c[j + 1:] for c in sub])
             for j in range(d)]
        if not any(k):
            continue
        g = gcd(*k)
        for ray in (tuple(x // g for x in k), tuple(-x // g for x in k)):
            values = [sum(x * y for x, y in zip(c, ray)) for c in cons]
            if min(values) >= 0:
                out.add((ray, sum(1 << i for i, v in enumerate(values) if not v)))
    return out


# ----------------------------------------------------------------------
# The product sweep as it stood before exponents were packed into ints:
# tuple exponents added entry by entry, the level test a max over them.
# ----------------------------------------------------------------------

def _times_reference(prod, g, q: int, p: int):
    """Monic prod*g with every term that has an exponent >= q dropped.

    Products are frozensets of (exponent, coefficient) pairs; the result is
    None when no term survives.
    """
    out: dict = {}
    for eb, cb in g:
        for ea, ca in prod:
            exp = tuple(map(add, ea, eb))
            if max(exp) < q:
                out[exp] = (out.get(exp, 0) + ca * cb) % p
    if 0 in out.values():
        out = {exp: c for exp, c in out.items() if c}
    if not out:
        return None
    inv = pow(out[max(out)], p - 2, p)
    if inv != 1:
        out = {exp: c * inv % p for exp, c in out.items()}
    return frozenset(out.items())


def product_sweep_reference(gens, q: int, budget: int,
                            start: Polynomial | None = None,
                            steps: int | None = None) -> tuple:
    """Multiply generator products up degree by degree modulo m^[q] over F_p.

    ``gens`` and ``start``, a monic product to begin from (1 when None),
    share one F_p ring.  Each degree keeps every monic product that is
    nonzero modulo m^[q] with the smallest generator index it may still be
    multiplied by; indices never decrease, so each multiset of generators is
    formed once, and equal monic products are kept once.  A product costs
    the number of term pairs it multiplies, charged to ``budget``.  The
    sweep stops after ``steps`` degrees, or when none is given, before the
    first degree with no product left.  Returns the number of degrees taken,
    the products of the last one and the budget left.
    """
    ring = gens[0].ring
    terms = [tuple(g.terms.items()) for g in gens]
    start = Polynomial.one(ring) if start is None else start
    frontier = {frozenset(start.terms.items()): 0}
    taken = 0
    while steps is None or taken < steps:
        nxt: dict = {}
        for prod, first in frontier.items():
            size = len(prod)
            for j in range(first, len(terms)):
                budget -= size * len(terms[j])
                if budget < 0:
                    raise BudgetExceededError(
                        "generator-product sweep exceeded its term budget"
                    )
                r = _times_reference(prod, terms[j], q, ring.p)
                if r is not None and j < nxt.get(r, len(terms)):
                    nxt[r] = j
        if not nxt:
            break
        frontier, taken = nxt, taken + 1
    return taken, [Polynomial(ring, dict(prod)) for prod in frontier], budget


# ----------------------------------------------------------------------
# Buchberger as it stood before its kernels were made single passes: every
# leading term a max over grevlex_key, one-term multiples built by
# Polynomial.mul, the chain criterion rebuilding the set of pending pairs.
# ----------------------------------------------------------------------

def grevlex_key_reference(exp):
    """Sort key realizing graded reverse lexicographic order (larger = bigger)."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def _leading_reference(f: Polynomial):
    exp = max(f.terms, key=grevlex_key_reference)
    return exp, f.terms[exp]


def _lcm_reference(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form_reference(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the basis (full reduction)."""
    ring = f.ring
    remainder: dict = {}
    work = dict(f.terms)
    leads = [(_leading_reference(g)[0], _leading_reference(g)[1], g) for g in basis]
    while work:
        exp = max(work, key=grevlex_key_reference)
        coeff = work.pop(exp)
        for lexp, lc, g in leads:
            if _divides(lexp, exp):
                factor = Polynomial.monomial(
                    ring,
                    tuple(a - b for a, b in zip(exp, lexp)),
                    ring.coeff(coeff * ring.coeff_inv(lc)),
                )
                for e2, c2 in (factor * g).terms.items():
                    if e2 == exp:
                        continue
                    c = ring.coeff(work.get(e2, 0) - c2)
                    if c == 0:
                        work.pop(e2, None)
                    else:
                        work[e2] = c
                break
        else:
            remainder[exp] = coeff
    return Polynomial(ring, remainder)


def _s_poly_reference(f: Polynomial, g: Polynomial) -> Polynomial:
    ring = f.ring
    (fe, fc), (ge, gc) = _leading_reference(f), _leading_reference(g)
    lcm = _lcm_reference(fe, ge)
    mf = Polynomial.monomial(
        ring, tuple(a - b for a, b in zip(lcm, fe)), ring.coeff_inv(fc)
    )
    mg = Polynomial.monomial(
        ring, tuple(a - b for a, b in zip(lcm, ge)), ring.coeff_inv(gc)
    )
    return mf * f - mg * g


def groebner_basis_reference(gens) -> tuple:
    """Reduced grevlex Groebner basis, monic, sorted by leading term."""
    basis = _fp_generators(gens)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    processed, limit = 0, budget(grobner.DEFAULT_PAIR_BUDGET)
    while pairs:
        # prefer the pair with the grevlex-smallest lcm (normal selection)
        pairs.sort(
            key=lambda ij: grevlex_key_reference(
                _lcm_reference(_leading_reference(basis[ij[0]])[0],
                               _leading_reference(basis[ij[1]])[0])
            ),
            reverse=True,
        )
        i, j = pairs.pop()
        processed += 1
        if processed > limit:
            raise BudgetExceededError("S-pair budget exceeded")
        fe, ge = _leading_reference(basis[i])[0], _leading_reference(basis[j])[0]
        lcm = _lcm_reference(fe, ge)
        if lcm == tuple(a + b for a, b in zip(fe, ge)):
            continue  # coprime leading terms: S-poly reduces to zero
        if _chain_criterion_reference(basis, pairs, i, j, lcm):
            continue
        r = normal_form_reference(_s_poly_reference(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(r)
            k = len(basis) - 1
            pairs.extend((k, t) for t in range(k))
    return _reduce_basis_reference(basis)


def _chain_criterion_reference(basis, pairs, i, j, lcm) -> bool:
    pairset = {frozenset(p) for p in pairs}
    for k in range(len(basis)):
        if k in (i, j):
            continue
        if not _divides(_leading_reference(basis[k])[0], lcm):
            continue
        if frozenset((i, k)) not in pairset and frozenset((j, k)) not in pairset:
            return True
    return False


def _reduce_basis_reference(basis) -> tuple:
    ring = basis[0].ring
    # keep the first member with each minimal leading term
    first: dict = {}
    for g in basis:
        first.setdefault(_leading_reference(g)[0], g)
    keep = [first[lead] for lead in minimal_points(first)]
    # fully reduce each survivor against the others and make it monic
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form_reference(g, others) if others else g
        lc = _leading_reference(r)[1]
        out.append(r.scale(ring.coeff_inv(lc)))
    out.sort(key=lambda g: grevlex_key_reference(_leading_reference(g)[0]))
    return tuple(out)


def rank_mod_p(rows: list, p: int) -> tuple:
    """Rank over F_p of a dense matrix given as a list of rows (lists of
    integers), and the nonzero rows of its reduced row-echelon form: Gauss-
    Jordan elimination, one column at a time, each pivot row made monic."""
    rows = [[a % p for a in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        top = rows[rank] = [a * inv % p for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                m = rows[r][col]
                rows[r] = [(a - m * b) % p for a, b in zip(rows[r], top)]
        rank += 1
    return rank, rows[:rank]


def is_smooth_cubic_reference(f: Polynomial) -> bool:
    """Whether the plane cubic f = 0 is smooth, by Groebner bases: J = (f,
    f_x, f_y, f_z) is m-primary iff the leading terms of its reduced basis
    include a pure power of every variable (J is homogeneous, so a finite
    zero set is the origin alone)."""
    gens = [f]
    for i in range(3):
        gens.append(Polynomial(f.ring, {
            exp[:i] + (exp[i] - 1,) + exp[i + 1:]: c * exp[i]
            for exp, c in f.terms.items() if exp[i]}))
    leads = [_leading_reference(g)[0] for g in groebner_basis_reference(gens)]
    return all(any(lead[i] == sum(lead) for lead in leads) for i in range(3))


def is_prime_by_trial_division(n: int) -> bool:
    """n >= 2 with no divisor d, 2 <= d <= sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
