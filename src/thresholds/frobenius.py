"""F-pure thresholds via Frobenius powers of the maximal ideal.

nu(e) is the largest i with a^i not in m^[p^e]; nu(e)/p^e increases to the
F-pure threshold.  ``_levels`` yields nu(1), nu(2), ... for ``nu`` and
``fpt_enclosures``, one degree sweep per level: from 1, each kept product of
generators is multiplied by every generator, each term with an exponent >= p^e
is dropped as it is formed (m^[p^e] is spanned by those monomials), and nu(e)
is the last degree with a product left; monomial ideals sweep a bitset, and
Thom-Sebastiani sums read base-p digits, as the ``digits`` rule does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import lcm, prod

from thresholds.grobner import PolyIdeal
from thresholds.lct0 import ThresholdResult, first_exact, thom_sebastiani_orders
from thresholds.newton import lct_monomial
# unused here: bench/run.py reads the two budgets from this module
from thresholds.rings import DEFAULT_BOX_BUDGET, DEFAULT_PRODUCT_BUDGET
from thresholds.rings import (
    BudgetExceededError,
    Polynomial,
    charge_box,
    echelon,
    monomial_coefficient,
    power_has_reduced_term,
    product_sweep,
)

PE_CAP = 10**8  # fpt_enclosures uses no level p^e above this


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
    charge_box(q**n, f"exponent box {q}^{n}")
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


def _carry_bound(ks, p: int, columns: int) -> Fraction | None:
    """p^(1-L) plus the sum of <1/k>_(L-1), k in ks, at the first base-p digit
    column L <= columns where the 1/k sum to p or more, else None.  Digit j of
    1/k is (p*s + p - 1) // k, then s its rest, from s = 0: so lcm(ks) hold all."""
    charge_box(len(ks) * columns, f"digit scan of {columns} columns")
    rems, t = [0] * len(ks), 1
    for _ in range(columns):
        digits, rems = zip(*(divmod(p * s + p - 1, k) for s, k in zip(rems, ks)))
        if sum(digits) >= p:
            return Fraction(sum((t - 1) // k for k in ks) + 1, t)
        t *= p


def _digit_fpt(ks, p: int) -> Fraction | None:
    """The limit of the digit levels of :func:`_levels` (Hernandez 2015)."""
    try:
        return (_carry_bound(ks, p, lcm(*ks) if len(ks) > 1 else 0)
                or sum(Fraction(1, k) for k in ks))
    except BudgetExceededError:
        return None  # the levels still read digits; one part never carries


def _walk_finds_f_pure(g: Polynomial) -> bool:
    """Whether the walk finds g^(p-1) outside m^[p]: g is F-pure (Fedder)."""
    try:
        return power_has_reduced_term(g, g.ring.p - 1, g.ring.p)
    except BudgetExceededError:
        return False  # the walk ran out too


def _levels(a: PolyIdeal, walked: bool = False):
    """Yield nu(1), nu(2), ... of an ideal a in m (checked by :func:`_in_m`).

    Monomial ideals sweep the exponent box (:func:`_nu_box`), others their
    generator products (:func:`rings.product_sweep`) on a fresh budget per
    level.  A principal ideal walks the levels on one budget: f^(p*j) mod
    m^[p*q] is f^j mod m^[q] with its exponents times p, so level k+1 resumes
    from level k's lifted last product.  If level 1's sweep runs out, the walk
    on G = g_1 ... g_l (unless ``walked``) may still give nu(1) = l(p - 1).
    A Thom-Sebastiani sum g_1 + ... + g_s of orders k_i (:func:`lct0.
    thom_sebastiani_orders`) has nu(e) = max sum j_i, j_i <= (q - 1)/k_i adding
    without a carry: by Lucas the lowest terms of the g_i^(j_i) make a term
    outside m^[q] no other split reaches.  So keep the digit column sums above
    the first >= p, and p - 1 from there on: q*w - 1, w of :func:`_carry_bound`.

    Each level lies in the window p*nu(k) <= nu(k+1) <= p*nu(k) + l(p - 1),
    l = len(a.gens), or raises AssertionError.  Indeed h^p is outside m^[pq]
    when h is outside m^[q]; and a product g^w of generators, w = p*b + c
    with 0 <= c_i < p, lies in (a^|b|)^[p], inside m^[p^(k+1)] once
    |w| > p*nu(k) + l(p - 1) forces |b| > nu(k).

    A level k with nu(k) = l(p^k - 1) ends the walk: nu(e) = l(p^e - 1) for
    every e.  Indeed a product of at least l(p^j - 1) generators other than
    G^(p^j - 1), G = g_1 ... g_l, has a factor g_i^(p^j), in m^[p^j]; so
    nu(j) = l(p^j - 1) iff G^(p^j - 1) is outside m^[p^j].  The window forces
    nu(k-1) = l(p^(k-1) - 1), and so on down to nu(1) = l(p - 1): G^(p-1)
    is not in m^[p], so G is F-pure by Fedder's criterion.  In the local
    ring R at the origin g is outside m^[q] exactly when (g)^[1/q] = R; from
    (g^p h)^[1/p] = g (h)^[1/p] and (G^(p-1))^[1/p] = R, induction on j gives
    (G^(p^(j+1)-1))^[1/p^(j+1)] = (G^(p^j-1) (G^(p-1))^[1/p])^[1/p^j] = R.
    """
    ring, p, ell = a.ring, a.ring.p, len(a.gens)
    ks = ell == 1 and thom_sebastiani_orders(a.gens[0])
    left, prev, q = None, 0, 1  # None: the first sweep starts a fresh budget
    for k in count(1):
        q *= p
        if 0 < prev == ell * (q // p - 1):
            level = ell * (q - 1)  # F-pure: no sweep needed
        elif a.monomial is not None:
            level = _nu_box(a.monomial.gens, ring.nvars, q)
        elif ks:
            w = _carry_bound(ks, p, k)
            level = int(q * w) - 1 if w else sum((q - 1) // i for i in ks)
        else:  # only a principal level resumes, on the budget left
            start = None if k == 1 or ell > 1 else Polynomial(
                ring, {tuple(x * p for x in u): c for u, c in last[0].terms.items()})
            try:
                d, last, left = product_sweep(a.gens, q, start and left, start)
            except BudgetExceededError:
                if k > 1 or walked or not _walk_finds_f_pure(
                        prod(a.gens[1:], start=a.gens[0])):
                    raise
                d = ell * (p - 1)
            level = d if start is None else p * prev + d
        lo, hi = p * prev, p * prev + ell * (p - 1)
        if not lo <= level <= hi:
            raise AssertionError(f"nu({k}) = {level} is outside [p*nu({k - 1}), p*nu("
                                 f"{k - 1}) + l(p - 1)] = [{lo}, {hi}], l = {ell}")
        yield level
        prev = level


def nu(a, e: int) -> int:
    """Largest i with a^i not contained in m^[p^e], at the origin: level e."""
    if e < 1:
        raise ValueError("e must be >= 1")
    return next(islice(_levels(_in_m(a)), e - 1, None))


# (method, rule): a rule maps an ideal a in m to its exact F-pure threshold, or
# to a false value: see lct_monomial (Hara-Yoshida), fpt_cubic_cone, _digit_fpt.
CHAR_P_RULES = (
    ("LP", lambda a: a.monomial and lct_monomial(a.monomial)),
    ("cubic-cone", lambda a: len(a.gens) == 1 and is_smooth_cubic(a.gens[0])
                             and _cone_fpt(a.gens[0])),
    ("digits", lambda a: len(a.gens) == 1 and (ks := thom_sebastiani_orders(a.gens[0]))
                         and _digit_fpt(ks, a.ring.p)),
)


def fpt_enclosures(a):
    """Yield a proved enclosure of the F-pure threshold per level e with
    p^e <= PE_CAP.  An exact value comes once: from the first rule of
    ``CHAR_P_RULES`` that answers, or l = len(a.gens) once nu(e) = l(p^e - 1):
    the product of the generators is F-pure (see :func:`_levels`).  Others give
    [nu(e)/p^e, (nu(e)+l)/p^e] in [1/ord, n/ord]; by the window of
    :func:`_levels` both ends tend to the threshold monotonically.
    """
    a = _in_m(a)
    if exact := first_exact(CHAR_P_RULES, a):
        yield exact
        return
    p, n, ell = a.ring.p, a.ring.nvars, len(a.gens)
    ord_a = min(g.order() for g in a.gens)
    if p > PE_CAP:
        raise BudgetExceededError("p^e cap leaves no usable e")
    for e, nu_e in enumerate(_levels(a), 1):
        q = p**e
        if nu_e == ell * (q - 1):
            yield ThresholdResult.exact(ell, "F-pure")
            return
        yield ThresholdResult(max(Fraction(nu_e, q), Fraction(1, ord_a)),
                              min(Fraction(nu_e + ell, q), Fraction(n, ord_a)),
                              "nu-limit")
        if q * p > PE_CAP:
            return


def fpt_enclosure(a, e_max: int) -> ThresholdResult:
    """The last enclosure of :func:`fpt_enclosures` at a level <= e_max."""
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    return list(islice(fpt_enclosures(a), e_max))[-1]


# ----------------------------------------------------------------------
# Cones over plane cubics
# ----------------------------------------------------------------------

def is_smooth_cubic(f: Polynomial) -> bool:
    """Whether f is a cubic form in three variables over F_p whose plane
    curve f = 0 is smooth (over the algebraic closure): whether the multiples
    of each partial by the six quadratic monomials and of f by the three
    linear ones span the 15 quartic monomials (:func:`rings.echelon`).

    If they do, J = (f, df/dx, df/dy, df/dz) is m-primary and the curve is
    smooth, for every p.  For p != 3 the converse holds: Euler's identity
    3f = x f_x + y f_y + z f_z puts f in (f_x, f_y, f_z); three quadrics with
    no common zero form a regular sequence, whose ideal contains every
    quartic, and an ideal with a common zero contains no power of m.  For
    p = 3 the converse was checked against a Groebner basis test on every
    nonzero cubic form over F_3.
    """
    if f.ring.nvars != 3 or any(sum(exp) != 3 for exp in f.terms):
        return False
    quadrics = [(a, b, 2 - a - b) for a in range(3) for b in range(3 - a)]
    parts = [(f.derivative(i), quadrics) for i in range(3)]
    parts.append((f, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    rows = [{(x + a, y + b, z + c): v for (x, y, z), v in g.terms.items()}
            for g, shifts in parts for a, b, c in shifts]
    return len(echelon(rows, f.ring.p)) == 15


def _cone_fpt(f: Polynomial) -> Fraction:
    """Threshold of the cone over the smooth plane cubic f, unchecked: 1 when
    the curve is ordinary ((xyz)^{p-1} has a nonzero coefficient in f^{p-1}),
    else 1 - 1/p.  Past the walk budget nu(1) = p - 1 decides: f^{p-1} has
    degree 3(p-1), so (xyz)^{p-1} is its one monomial with exponents < p."""
    p = f.ring.p
    try:
        ordinary = monomial_coefficient(f, p - 1, (p - 1, p - 1, p - 1)) != 0
    except BudgetExceededError:  # nu(1) by its sweep: its walk is this one
        ordinary = next(_levels(_in_m(f), walked=True)) == p - 1
    return Fraction(1) if ordinary else Fraction(p - 1, p)


def fpt_cubic_cone(f: Polynomial) -> Fraction:
    """Threshold of the cone over the plane cubic f = 0 over F_p, which must
    be smooth (:func:`is_smooth_cubic`); anything else raises ``ValueError``."""
    if f.ring.p is None:
        raise ValueError("cubic must live over F_p")
    if not is_smooth_cubic(f):
        raise ValueError(f"not a cubic form in three variables, or singular over "
                         f"F_{f.ring.p}: ordinarity needs a smooth plane cubic")
    return _cone_fpt(f)


def is_ordinary_cubic(f: Polynomial) -> bool:
    """Ordinarity of the smooth plane cubic f = 0 (see :func:`fpt_cubic_cone`)."""
    return fpt_cubic_cone(f) == 1
