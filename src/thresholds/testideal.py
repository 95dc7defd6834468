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
  continuity, so the first repeat is a sound stopping point; each root is
  taken one base-p digit of the exponent at a time, so no power f^d with
  d >= p is expanded below lam = 1;
* anything else falls back to the ascending chain
  (a^{ceil(lam p^e)})^[1/p^e], whose members are lower bounds; the result
  is certified only when the chain reaches the unit ideal.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil, floor, prod

from thresholds.grobner import PolyIdeal, ideal_power
from thresholds.newton import MonomialIdeal, facets, lattice_generators
from thresholds.rings import (
    BudgetExceededError,
    Polynomial,
    budget,
    charge_box,
    frobenius_decompose,
)

DEFAULT_E_MAX = 5
DEFAULT_GENERATOR_BUDGET = 10**6  # minimal generators a monomial tau may keep
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
    e_used: int  # chain level; fixed-point steps if principal; 0 if monomial


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

    u+1 is interior to lam*P(a) exactly when <w, u+1> > lam*b on every
    facet <w, .> >= b of P(a) with b > 0 (Hara-Yoshida); no prime appears
    here.  ``newton.lattice_generators`` scans the generator box for the
    minimal generators of the integer form of those inequalities.
    """
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    n = ideal.n
    # u+1 is interior to lam*P(a) iff u+1 > v for some v in lam*conv(gens),
    # where v_j <= lam*max_g g_j, so a minimal generator has
    # u_j <= floor(lam*max_g g_j): 0 where no generator involves x_j
    sides = [floor(lam * max(g[j] for g in ideal.gens)) + 1 for j in range(n - 1)]
    size = prod(sides)
    charge_box(size, f"tau prefix box of {size} points")
    # with lam = r/s: s*<w, u+1> > r*b, i.e. s*<w, u> >= r*b + 1 - s*sum(w)
    r, s = lam.numerator, lam.denominator
    rows = [([s * x for x in w], r * b + 1 - s * sum(w))
            for w, b, _ in facets(list(ideal.gens)) if b > 0]
    limit = budget(DEFAULT_GENERATOR_BUDGET)
    gens = list(islice(lattice_generators(rows, sides), limit + 1))
    if len(gens) > limit:
        raise BudgetExceededError(f"tau exceeds generator budget {limit}")
    return MonomialIdeal(n, gens)


# ----------------------------------------------------------------------
# Exact principal test ideals
# ----------------------------------------------------------------------

def _multiplicative_order(p: int, d: int) -> int:
    b, x = 1, p % d
    while x != 1:
        x = x * p % d
        b += 1
        if b > d:
            raise AssertionError("order computation ran past the modulus")
    return b


def _tau_principal(f: Polynomial, lam: Fraction) -> TauResult:
    """tau(f^lam) from Frobenius roots that multiply only by f^d, d < p.

    With lam = (k + s)/p^m, k an integer, 0 <= s < 1 and p prime to the
    denominator of s, Skoda and the p-scaling give tau(f^lam) =
    (f^k * tau(f^s))^[1/p^m]; tau(f^s) is the fixed point of the module
    docstring at the level q = p^b where p^b = 1 mod that denominator.
    """
    p = f.ring.p

    def root(n: int, ideal: PolyIdeal, b: int) -> PolyIdeal:
        """(f^n * ideal)^[1/p^b], one base-p digit d of n at a time:
        (f^(d + p*n') * g)^[1/p^b] = (f^n' * (f^d * g)^[1/p])^[1/p^(b-1)]."""
        for _ in range(b):
            n, d = divmod(n, p)
            fd = f.pow(d)
            ideal = frobenius_root([fd * g for g in ideal.gens], 1)
        return PolyIdeal([f.pow(n) * g for g in ideal.gens]) if n else ideal

    m = 0
    while lam.denominator % p == 0:
        lam *= p
        m += 1
    k = floor(lam)
    s = lam - k
    Y, stabilized, it = PolyIdeal(Polynomial.one(f.ring)), True, 0
    if s:
        b = _multiplicative_order(p, s.denominator)
        q = p**b
        c = s * (q - 1)
        if c.denominator != 1:
            raise AssertionError(f"s*(q-1) = {c} is not an integer")
        # exact starting value tau(f^{ceil(s q)/q}) = (f^{ceil(s q)})^[1/q]
        Y = root(ceil(s * q), Y, b)
        for it in range(1, ITER_MAX + 1):
            Z = root(c.numerator, Y, b)
            if Z.equal(Y):
                break
            if not Z.contains(Y):
                raise AssertionError("principal tau iteration failed to ascend")
            Y = Z
        else:
            stabilized = False
    return TauResult(root(k, Y, m), stabilized, it)


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
        return TauResult(PolyIdeal([Polynomial.monomial(ring, u) for u in
                                    tau_monomial(a.monomial, lam).gens]), True, 0)
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

def check_skoda(a, lam) -> bool:
    """tau(a^lam) = a * tau(a^{lam-1}) for lam >= number of generators."""
    a = PolyIdeal(a)
    lam = Fraction(lam)
    if lam < len(a.gens):
        raise ValueError("Skoda needs lambda >= number of generators")
    left = tau(a, lam).ideal
    right = a.product(tau(a, lam - 1).ideal)
    return left.equal(right)


def check_p_scaling(a, lam) -> bool:
    """tau(a^{lam/p}) = tau(a^lam)^[1/p]."""
    a = PolyIdeal(a)
    left = tau(a, Fraction(lam) / a.ring.p).ideal
    right = frobenius_root(tau(a, lam).ideal, 1)
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
    points = floor(grid * span)
    charge_box(points, f"fjump scan of {points} grid points")
    jumps = []
    certified = True
    prev_ideal = tau(a, Fraction(0), e_max=e_max).ideal
    for k in range(1, points + 1):  # the grid values k/grid <= span
        res = tau(a, Fraction(k, grid), e_max=e_max)
        certified = certified and res.stabilized
        if not res.ideal.equal(prev_ideal):
            if not prev_ideal.contains(res.ideal):
                raise AssertionError("test ideals failed to decrease in lambda")
            jumps.append(Fraction(k, grid))
        prev_ideal = res.ideal
    return JumpingReport(grid, tuple(jumps), certified)
