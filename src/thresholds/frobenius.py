"""F-pure thresholds via Frobenius powers of the maximal ideal.

nu(e) is the largest i such that a^i is not contained in m^[p^e]; the values
nu(e)/p^e increase to the F-pure threshold.  One degree sweep computes it:
starting from 1, every kept product of generators is multiplied by each
generator, every term with an exponent >= p^e is dropped as soon as it is
formed (m^[p^e] is spanned by exactly those monomials), and the answer is the
last degree with a product left.  Products of monomials are points of the box
{0..p^e-1}^n, so for monomial ideals the sweep runs on a bitset of that box.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from thresholds.grobner import PolyIdeal
from thresholds.lct0 import ThresholdResult
from thresholds.newton import lct_monomial
from thresholds.rings import (
    BudgetExceededError,
    Polynomial,
    budget,
    monomial_coefficient,
    product_sweep,
)

DEFAULT_BOX_BUDGET = 10**7
DEFAULT_PRODUCT_BUDGET = 10**6  # term pairs multiplied by product_sweep
PE_CAP = 10**8  # fpt_enclosure uses no level p^e above this


def _in_m(a) -> PolyIdeal:
    """PolyIdeal(a), checked to lie in the maximal ideal m at the origin."""
    a = PolyIdeal(a)
    if any((0,) * a.ring.nvars in g.terms for g in a.gens):
        raise ValueError("generator has a constant term, so a is not in m")
    return a


def _nu_box(exps, n: int, q: int) -> int:
    """Largest i such that some i-fold sum of generator exponents stays < q.

    The box {0..q-1}^n is one int used as a bitset, point u at bit
    sum_j u_j q^j.  Adding generator g moves the points with u + g < q
    (the bits of ``mask``) up by ``shift`` = sum_j g_j q^j.
    """
    limit = budget(DEFAULT_BOX_BUDGET)
    if q**n > limit:
        raise BudgetExceededError(f"exponent box {q}^{n} exceeds budget {limit}")
    moves = []
    for g in exps:
        if any(x >= q for x in g):
            continue  # never below q, so never part of a surviving product
        mask, stride = 1, 1
        for x in g:
            # repeat the block of the coordinates so far q - x times
            mask *= ((1 << stride * (q - x)) - 1) // ((1 << stride) - 1)
            stride *= q
        moves.append((mask, sum(x * q**j for j, x in enumerate(g))))
    reach, i = 1, 0
    while True:
        nxt = 0
        for mask, shift in moves:
            nxt |= (reach & mask) << shift
        if not nxt:
            return i
        reach, i = nxt, i + 1


def nu(a, e: int) -> int:
    """Largest i with a^i not contained in m^[p^e], at the origin.

    Monomial ideals sweep the exponent box (:func:`_nu_box`); every other
    ideal sweeps its generator products (:func:`rings.product_sweep`).  A
    principal ideal walks the levels p, p^2, ..., p^e: over F_p, f^(p*j)
    modulo m^[p*q] is f^j modulo m^[q] with every exponent multiplied by p,
    and p*nu(k) <= nu(k+1) <= p*nu(k) + p - 1 (Blickle-Mustata-Smith,
    F-thresholds of hypersurfaces), so level k+1 resumes from the p-th power
    of level k's last product and takes at most p - 1 further steps; a level
    that takes more raises AssertionError.

    A level k with nu(k) = p^k - 1 ends the walk, since then nu(e) = p^e - 1
    for every e.  Indeed nu(j) <= p^j - 1 always (f^(p^j) lies in m^[p^j]),
    so nu(k) <= p*nu(k-1) + p - 1 forces nu(k-1) = p^(k-1) - 1, and so on
    down to nu(1) = p - 1: f^(p-1) is not in m^[p], so f is F-pure by
    Fedder's criterion.  Work in the local ring R at the origin, where g is
    outside m^[q] exactly when (g)^[1/q] = R.  From (g^p h)^[1/p] =
    g (h)^[1/p] and (f^(p-1))^[1/p] = R, induction on j gives
    (f^(p^(j+1)-1))^[1/p^(j+1)] = (f^(p^j-1) (f^(p-1))^[1/p])^[1/p^j]
    = (f^(p^j-1))^[1/p^j] = R.
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    a = _in_m(a)
    ring, p = a.ring, a.ring.p
    if a.monomial is not None:
        return _nu_box(a.monomial.gens, ring.nvars, p**e)
    left = budget(DEFAULT_PRODUCT_BUDGET)
    if len(a.gens) > 1:
        return product_sweep(a.gens, p**e, left)[0]
    i, start = 0, None
    for k in range(1, e + 1):
        d, products, left = product_sweep(a.gens, p**k, left, start)
        if d > p - 1:
            raise AssertionError(f"level {k} of the nu walk took {d} > p - 1 steps")
        i += d
        if i == p**k - 1:
            return p**e - 1
        if k == e:
            return i
        (prod,) = products
        start = Polynomial(ring, {tuple(x * p for x in u): c
                                  for u, c in prod.terms.items()})
        i *= p


def fpt_enclosure(a, e_max: int) -> ThresholdResult:
    """Proved enclosure of the F-pure threshold from nu(e) data.

    Closed-form families short-circuit to exact values: monomial generator
    lists (threshold from the Newton polyhedron) and one-variable principal
    ideals (threshold 1/ord).  Otherwise the interval is
    [nu(e)/p^e, (nu(e)+1)/p^e] for principal ideals, with a generator-wise sum
    as the fallback upper bound, clamped into [1/ord, n/ord].  The prime p is
    the ring's, and e is the largest level <= e_max with p^e <= PE_CAP.
    """
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    a = _in_m(a)
    gens, p, n = a.gens, a.ring.p, a.ring.nvars
    ord_a = min(g.order() for g in gens)

    if a.monomial is not None:
        return ThresholdResult.exact(lct_monomial(a.monomial), "LP")
    if len(gens) == 1:
        used = [i for i in range(n) if any(exp[i] for exp in gens[0].terms)]
        if len(used) == 1:
            return ThresholdResult.exact(Fraction(1, ord_a), "closed-form")

    e = 0
    while e < e_max and p ** (e + 1) <= PE_CAP:
        e += 1
    if e == 0:
        raise BudgetExceededError("p^e cap leaves no usable e")
    q = p**e
    if len(gens) == 1:
        nu_e = nu(a, e)  # the walk checks nu(k+1) <= p*nu(k) + p - 1
        upper = Fraction(nu_e + 1, q)
    else:
        values = [nu(a, k) for k in range(1, e + 1)]
        if any(b < p * a for a, b in zip(values, values[1:])):
            raise AssertionError(
                f"nu sequence violates nu(e+1) >= p*nu(e): {values}"
            )
        nu_e = values[-1]
        upper = sum(Fraction(nu(g, e) + 1, q) for g in gens)

    lower = max(Fraction(nu_e, q), Fraction(1, ord_a))
    upper = min(upper, Fraction(n, ord_a))
    return ThresholdResult(lower, upper, "nu-limit")


# ----------------------------------------------------------------------
# Cones over plane cubics
# ----------------------------------------------------------------------

def _forms(d: int) -> list:
    """The exponents of the monomials of degree d in three variables."""
    return [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]


def _rank_mod_p(rows: list, p: int) -> int:
    """Rank over F_p of a matrix given as a list of rows (lists of residues)."""
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inv = pow(top[col], p - 2, p)
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                m = rows[r][col] * inv % p
                rows[r] = [(a - m * b) % p for a, b in zip(rows[r], top)]
        rank += 1
    return rank


def is_smooth_cubic(f: Polynomial) -> bool:
    """Whether the plane cubic f = 0 over F_p is smooth (over the algebraic
    closure), by the rank of the degree-4 Macaulay matrix of
    J = (f, df/dx, df/dy, df/dz).

    Its rows are the multiples of each partial by the six quadratic
    monomials and of f by the three linear ones, its 15 columns the quartic
    monomials.  Full rank puts every quartic in J, so J is m-primary and the
    curve is smooth, for every p.  For p != 3 the converse holds: Euler's
    identity 3f = x f_x + y f_y + z f_z puts f in (f_x, f_y, f_z); three
    quadrics with no common zero form a regular sequence, whose ideal
    contains every quartic, and an ideal with a common zero contains no
    power of m.  For p = 3 the converse was checked against a Groebner
    basis test on every nonzero cubic form over F_3.
    """
    p = f.ring.p
    col = {exp: i for i, exp in enumerate(_forms(4))}
    rows = []
    parts = [(f.derivative(i), _forms(2)) for i in range(3)] + [(f, _forms(1))]
    for g, shifts in parts:
        for s in shifts:
            row = [0] * len(col)
            for exp, c in g.terms.items():
                row[col[tuple(map(add, exp, s))]] = c
            rows.append(row)
    return _rank_mod_p(rows, p) == len(col)


def is_ordinary_cubic(f: Polynomial) -> bool:
    """Ordinarity of the plane cubic: coefficient of (xyz)^{p-1} in f^{p-1}.

    The curve must be smooth (:func:`is_smooth_cubic`); a singular cubic
    raises ``ValueError``.
    """
    if f.ring.p is None:
        raise ValueError("cubic must live over F_p")
    if f.ring.nvars != 3:
        raise ValueError("cubic must have exactly 3 variables")
    if f.is_zero() or any(sum(exp) != 3 for exp in f.terms):
        raise ValueError("polynomial is not homogeneous of degree 3")
    p = f.ring.p
    if not is_smooth_cubic(f):
        raise ValueError(f"the cubic curve is singular over F_{p}; "
                         "ordinarity needs a smooth plane cubic")
    c = monomial_coefficient(f, p - 1, (p - 1, p - 1, p - 1))
    return c != 0


def fpt_cubic_cone(f: Polynomial) -> Fraction:
    """Threshold of the cone: 1 when the curve is ordinary, else 1 - 1/p."""
    if is_ordinary_cubic(f):
        return Fraction(1)
    return Fraction(f.ring.p - 1, f.ring.p)
