"""Test ideals over F_p via Frobenius roots.

``frobenius_root(b, e)`` is the smallest ideal J with b contained in
J^[p^e]; it comes from writing each generator as a sum of p^e-th powers
times monomials with exponents below p^e.

``tau(a, lam)`` dispatches on the shape of the ideal:

* monomial ideals have an exact polyhedral description: tau is generated
  by the monomials u with u + (1,...,1) in the interior of lam * P(a);
* principal ideals use that (f^a)^[1/p^e] is exactly tau(f^{a/p^e}),
  together with Skoda's theorem tau(f^{k+s}) = f^k*tau(f^s) and the
  scaling tau(f^{s/p}) = tau(f^s)^[1/p]; starting from the exact value at
  a p-adic rounding of lam, the monotone iteration Y -> (f^c Y)^[1/p^b]
  (with c = lam*(p^b - 1) an integer) increases to tau(f^lam) by right
  continuity, so the first repeat is a sound stopping point;
* anything else falls back to the ascending chain
  (a^{ceil(lam p^e)})^[1/p^e], whose members are lower bounds; the result
  is certified only when the chain reaches the unit ideal.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from thresholds.grobner import PolyIdeal, ideal_power
from thresholds.newton import MonomialIdeal, ray_entry
from thresholds.rings import Polynomial, frobenius_decompose

DEFAULT_E_MAX = 5
ITER_MAX = 40  # fixed-point steps of the principal iteration


def frobenius_root(b, e: int) -> PolyIdeal:
    """Smallest ideal whose e-th Frobenius power contains the ideal b.

    For monomial generators this is componentwise floor division of the
    exponents by p^e; in general it is generated by the coefficient
    polynomials of the base-p^e decomposition of every generator.
    """
    if e < 0:
        raise ValueError("e must be >= 0")
    b = PolyIdeal(b)
    if e == 0:
        return b
    return PolyIdeal(
        [c for g in b.gens for c in frobenius_decompose(g, e).values()]
    )


@dataclass(frozen=True)
class TauResult:
    ideal: PolyIdeal
    stabilized: bool  # True only with a certificate of exactness
    e_used: int


def ascending_chain(a, lam, e_max: int = DEFAULT_E_MAX) -> Iterator[PolyIdeal]:
    """The chain I_e = (a^{ceil(lam p^e)})^[1/p^e], e = 1..e_max.

    Ascends to tau(a^lam); each member is a certified lower bound but the
    chain can plateau before its limit, so equality of two members is not
    by itself a stabilization proof.  The ideal is checked at the call;
    members are formed as they are asked for, each checked to contain the
    one before.
    """
    a = PolyIdeal(a)
    lam = Fraction(lam)

    def members():
        prev = None
        for e in range(1, e_max + 1):
            cur = frobenius_root(ideal_power(a.gens, ceil(lam * a.ring.p**e)), e)
            if prev is not None and not cur.contains(prev):
                raise AssertionError("Frobenius-root chain failed to ascend")
            yield cur
            prev = cur

    return members()


# ----------------------------------------------------------------------
# Exact monomial test ideals
# ----------------------------------------------------------------------

def tau_monomial(ideal: MonomialIdeal, lam) -> MonomialIdeal:
    """tau(a^lam) for monomial a: monomials u with u+1 interior to lam*P(a).

    For v > 0, t*v is interior to P(a) exactly when t > t0 = ray_entry(a, v),
    so v is interior to lam*P(a) iff lam*t0 < 1.  No prime appears here.
    """
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    n = ideal.n
    if lam == 0:
        return MonomialIdeal(n, [(0,) * n])
    from itertools import product

    # u+1 is interior to lam*P(a) iff u+1 > w for some w in lam*conv(gens),
    # where w_j <= lam*max_g g_j, so a minimal generator has
    # u_j <= floor(lam*max_g g_j): 0 where no generator involves x_j
    axes = [range(floor(lam * max(g[j] for g in ideal.gens)) + 1)
            for j in range(n)]
    gens = []
    for u in product(*axes):
        if any(all(x >= y for x, y in zip(u, g)) for g in gens):
            continue  # already inside a found generator's shadow
        if lam * ray_entry(ideal, [x + 1 for x in u]) < 1:
            gens.append(u)
    if not gens:
        raise AssertionError("tau search box too small")  # pragma: no cover
    return MonomialIdeal(n, gens)


# ----------------------------------------------------------------------
# Exact principal test ideals
# ----------------------------------------------------------------------

def _multiplicative_order(p: int, d: int) -> int:
    if d == 1:
        return 1
    b, x = 1, p % d
    while x != 1:
        x = x * p % d
        b += 1
        if b > d:
            raise AssertionError("order computation ran past the modulus")
    return b


def _tau_principal(f: Polynomial, lam: Fraction) -> TauResult:
    ring = f.ring
    p = ring.p
    if lam == 0:
        return TauResult(PolyIdeal(Polynomial.one(ring)), True, 0)
    if lam >= 1:
        # Skoda, k = floor(lam) times at once: tau(f^{k+s}) = f^k * tau(f^s)
        k = floor(lam)
        inner = _tau_principal(f, lam - k)
        fk = f.pow(k)
        return TauResult(PolyIdeal([fk * g for g in inner.ideal.gens]),
                         inner.stabilized, inner.e_used)
    d = lam.denominator
    m = 0
    while d % p == 0:
        d //= p
        m += 1
    if m:
        # tau(f^{s/p^m}) = tau(f^s)^[1/p^m]
        inner = _tau_principal(f, lam * p**m)
        return TauResult(frobenius_root(inner.ideal, m), inner.stabilized, inner.e_used)
    # p does not divide the denominator: fixed-point iteration at level q
    b = _multiplicative_order(p, d)
    q = p**b
    c = lam * (q - 1)
    assert c.denominator == 1
    c = c.numerator
    # exact starting value tau(f^{ceil(lam q)/q}) = (f^{ceil(lam q)})^[1/q]
    Y = frobenius_root([f.pow(ceil(lam * q))], b)
    fc = f.pow(c)
    for it in range(1, ITER_MAX + 1):
        Z = frobenius_root([fc * g for g in Y.gens], b)
        if Z.equal(Y):
            return TauResult(Y, True, it)
        if not Z.contains(Y):
            raise AssertionError("principal tau iteration failed to ascend")
        Y = Z
    return TauResult(Y, False, ITER_MAX)


def tau(a, lam, *, e_max: int = DEFAULT_E_MAX) -> TauResult:
    """Test ideal tau(a^lam) with a certificate whenever one is available."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    a = PolyIdeal(a)
    ring = a.ring
    if lam == 0:
        return TauResult(PolyIdeal(Polynomial.one(ring)), True, 0)
    if a.monomial is not None:
        result = tau_monomial(a.monomial, lam).gens
        return TauResult(
            PolyIdeal([Polynomial.monomial(ring, u) for u in result]), True, 0)
    if len(a.gens) == 1:
        return _tau_principal(a.gens[0], lam)
    one = Polynomial.one(ring)
    for e, cur in enumerate(ascending_chain(a, lam, e_max), start=1):
        if cur.member(one):
            # an ascending chain that reaches (1) stays there
            return TauResult(PolyIdeal(one), True, e)
    return TauResult(cur, False, e_max)


# ----------------------------------------------------------------------
# Identities used as cross-checks
# ----------------------------------------------------------------------

def check_skoda(a, lam, **kw) -> bool:
    """tau(a^lam) = a * tau(a^{lam-1}) for lam >= number of generators."""
    a = PolyIdeal(a)
    lam = Fraction(lam)
    if lam < len(a.gens):
        raise ValueError("Skoda needs lambda >= number of generators")
    left = tau(a, lam, **kw).ideal
    right = a.product(tau(a, lam - 1, **kw).ideal)
    return left.equal(right)


def check_p_scaling(a, lam, **kw) -> bool:
    """tau(a^{lam/p}) = tau(a^lam)^[1/p]."""
    a = PolyIdeal(a)
    left = tau(a, Fraction(lam) / a.ring.p, **kw).ideal
    right = frobenius_root(tau(a, lam, **kw).ideal, 1)
    return left.equal(right)


# ----------------------------------------------------------------------
# Jumping numbers by grid scan
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class JumpingReport:
    """Grid scan of lambda -> tau(a^lam) on {k/grid : 0 <= k <= grid*span}.

    ``jumps`` holds the grid values where the ideal strictly drops; a true
    jumping number in (prev, k/grid] is reported as k/grid, so locations
    are exact when they lie on the grid and otherwise rounded up by less
    than ``resolution`` = 1/grid.
    """

    grid: int
    jumps: tuple
    certified: bool

    @property
    def resolution(self) -> Fraction:
        return Fraction(1, self.grid)


def fjump_scan(a, grid: int, span=1, *, e_max: int = DEFAULT_E_MAX) -> JumpingReport:
    a = PolyIdeal(a)
    if grid < 1:
        raise ValueError("grid must be >= 1")
    span = Fraction(span)
    if span <= 0:
        raise ValueError("span must be > 0")
    jumps = []
    certified = True
    prev_ideal = tau(a, Fraction(0), e_max=e_max).ideal
    k = 1
    while Fraction(k, grid) <= span:
        res = tau(a, Fraction(k, grid), e_max=e_max)
        certified = certified and res.stabilized
        if not res.ideal.equal(prev_ideal):
            if not prev_ideal.contains(res.ideal):
                raise AssertionError("test ideals failed to decrease in lambda")
            jumps.append(Fraction(k, grid))
        prev_ideal = res.ideal
        k += 1
    return JumpingReport(grid, tuple(jumps), certified)
