"""Slow, independent oracles for the property tests; the package runs none.

Each function here is a direct transcription of a definition; the property
tests check the package's faster or more uniform paths against them.
"""

from fractions import Fraction
from itertools import product
from math import ceil

from thresholds.grobner import PolyIdeal
from thresholds.lp import OPTIMAL, solve_lp
from thresholds.newton import MonomialIdeal
from thresholds.rings import Polynomial, Ring


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
    if g.ring.fieldtag != "Fp":
        raise ValueError("in_frobenius_power needs an F_p ring")
    q = g.ring.p**e
    return all(any(x >= q for x in exp) for exp in g.terms)
