"""F-pure thresholds via Frobenius powers of the maximal ideal.

nu(e) is the largest i such that a^i is not contained in m^[p^e]; the values
nu(e)/p^e increase to the F-pure threshold.  Three computation paths share the
same contract:

* monomial generator lists run a reachability sweep over the box of exponents
  below p^e (products of monomials are monomials, so containment is a lattice
  question);
* principal ideals binary-search i, deciding "f^i has a term with all
  exponents below p^e" by a pruned multinomial sum;
* general generator lists enumerate degree-i generator products with
  deduplication and a budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from thresholds.lct0 import ThresholdResult
from thresholds.newton import MonomialIdeal, lct_monomial
from thresholds.rings import (
    BudgetExceededError,
    Polynomial,
    monomial_coefficient,
    power_has_reduced_term,
)

DEFAULT_BOX_BUDGET = 10**7
DEFAULT_PRODUCT_BUDGET = 10**6


@dataclass(frozen=True)
class FrobeniusContext:
    p: int
    e_max: int = 4
    pe_cap: int = 10**8

    def __post_init__(self):
        from thresholds.rings import is_prime

        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.e_max < 1:
            raise ValueError("e_max must be >= 1")


@dataclass(frozen=True)
class NuSequence:
    """nu(1..e_max) together with the sanity bound nu(e+1) >= p*nu(e)."""

    p: int
    values: tuple
    description: str = ""

    def __post_init__(self):
        for a, b in zip(self.values, self.values[1:]):
            if b < self.p * a:
                raise ValueError(
                    f"nu sequence violates nu(e+1) >= p*nu(e): {self.values}"
                )


def _as_generators(a) -> list:
    if isinstance(a, Polynomial):
        return [a]
    gens = list(a)
    if not gens:
        raise ValueError("empty generator list")
    return gens


def _validate(gens) -> tuple:
    ring = gens[0].ring
    if ring.fieldtag != "Fp":
        raise ValueError("characteristic-p computations need an F_p ring")
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
        if g.is_zero():
            raise ValueError("zero generator")
        if (0,) * ring.nvars in g.terms:
            raise ValueError("generator has a constant term, so a is not in m")
    return ring, ring.p


def in_frobenius_power(g: Polynomial, e: int) -> bool:
    """Membership of g in m^[p^e] = (x_1^{p^e}, ..., x_n^{p^e}), termwise."""
    if e < 1:
        raise ValueError("e must be >= 1")
    if g.ring.fieldtag != "Fp":
        raise ValueError("in_frobenius_power needs an F_p ring")
    q = g.ring.p**e
    return all(any(x >= q for x in exp) for exp in g.terms)


def _nu_monomial_box(exps, n: int, q: int, budget: int) -> int:
    """Largest i such that some i-fold sum of generator exponents stays < q.

    Degree-by-degree reachability over the box {0..q-1}^n, vectorized as
    boolean shifts.  Generators with any exponent >= q can never contribute.
    """
    if q**n > budget:
        raise BudgetExceededError(f"exponent box {q}^{n} exceeds budget {budget}")
    usable = [g for g in exps if all(x < q for x in g)]
    if not usable:
        return 0
    reach = np.zeros((q,) * n, dtype=bool)
    reach[(0,) * n] = True
    nu_val = 0
    while True:
        nxt = np.zeros_like(reach)
        for g in usable:
            src = tuple(slice(0, q - x) for x in g)
            dst = tuple(slice(x, q) for x in g)
            np.logical_or(nxt[dst], reach[src], out=nxt[dst])
        if not nxt.any():
            return nu_val
        nu_val += 1
        reach = nxt


def _nu_principal(f: Polynomial, q: int, budget: int) -> int:
    """Binary search on the monotone predicate "f^i not in m^[p^e]"."""
    n = f.ring.nvars
    small_support = len(f.terms) <= 8

    def outside(i: int) -> bool:
        if small_support:
            return power_has_reduced_term(f, i, q, budget)
        return not in_frobenius_power(f.pow(i, budget), _e_from_q(f.ring.p, q))

    lo, hi = 0, n * (q - 1) + 1  # outside(lo) holds; outside(hi) fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outside(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _e_from_q(p: int, q: int) -> int:
    e = 0
    while q > 1:
        q //= p
        e += 1
    return e


def _nu_products(gens, e: int, budget: int) -> int:
    """Ascending search over deduplicated degree-i generator products."""
    ring = gens[0].ring
    frontier = {Polynomial.one(ring): 0}  # product -> smallest usable gen index
    nu_val = 0
    seen = 0
    i = 0
    while frontier:
        i += 1
        nxt: dict = {}
        for prod, start in frontier.items():
            for j in range(start, len(gens)):
                q = prod * gens[j]
                if in_frobenius_power(q, e):
                    continue
                prev = nxt.get(q)
                if prev is None or j < prev:
                    nxt[q] = j
                seen += 1
                if seen > budget:
                    raise BudgetExceededError(
                        "generator-product enumeration budget exceeded"
                    )
        if nxt:
            nu_val = i
        frontier = nxt
    return nu_val


def nu(a, e: int, *, box_budget: int | None = None,
       product_budget: int | None = None) -> int:
    """Largest i with a^i not contained in m^[p^e], at the origin."""
    # budgets resolve late so the CLI environment override is honored
    box_budget = DEFAULT_BOX_BUDGET if box_budget is None else box_budget
    product_budget = (
        DEFAULT_PRODUCT_BUDGET if product_budget is None else product_budget
    )
    if e < 1:
        raise ValueError("e must be >= 1")
    gens = _as_generators(a)
    ring, p = _validate(gens)
    q = p**e
    mono = MonomialIdeal.from_polynomials(gens)
    if mono is not None:
        return _nu_monomial_box(mono.gens, ring.nvars, q, box_budget)
    if len(gens) == 1:
        return _nu_principal(gens[0], q, product_budget)
    return _nu_products(gens, e, product_budget)


def nu_sequence(a, ctx: FrobeniusContext, description: str = "") -> NuSequence:
    values = []
    for e in range(1, ctx.e_max + 1):
        if ctx.p**e > ctx.pe_cap:
            break
        values.append(nu(a, e))
    return NuSequence(ctx.p, tuple(values), description)


def _ideal_order(gens) -> int:
    return min(g.order() for g in gens)


def fpt_monomial(a: MonomialIdeal, p: int | None = None) -> Fraction:
    """F-pure threshold of a monomial ideal: equals the char-0 threshold.

    The value is independent of p, which is accepted only for interface
    symmetry with the other fpt entry points.
    """
    return lct_monomial(a)


def fpt_enclosure(a, ctx: FrobeniusContext) -> ThresholdResult:
    """Certified interval around the F-pure threshold from nu(e) data.

    Closed-form families short-circuit to exact values: monomial generator
    lists (threshold from the Newton polyhedron) and one-variable principal
    ideals (threshold 1/ord).  Otherwise the interval is
    [nu(e)/p^e, (nu(e)+1)/p^e] for principal ideals, with a generator-wise sum
    as the fallback upper bound, clamped into [1/ord, n/ord].
    """
    gens = _as_generators(a)
    ring, p = _validate(gens)
    if p != ctx.p:
        raise ValueError("context prime differs from the ring prime")
    n = ring.nvars
    ord_a = _ideal_order(gens)

    mono = MonomialIdeal.from_polynomials(gens)
    if mono is not None:
        return ThresholdResult.exact(lct_monomial(mono), "LP")
    if len(gens) == 1:
        used = [i for i in range(n) if any(exp[i] for exp in gens[0].terms)]
        if len(used) == 1:
            return ThresholdResult.exact(Fraction(1, ord_a), "closed-form")

    seq = nu_sequence(a, ctx)
    e_used = len(seq.values)
    if e_used == 0:
        raise BudgetExceededError("p^e cap leaves no usable e")
    q = p**e_used
    nu_last = seq.values[-1]
    lower = Fraction(nu_last, q)

    if len(gens) == 1:
        # nu(e+1) <= p*nu(e) + p - 1 holds for principal ideals; the computed
        # sequence is checked against it before the bound is used.
        for a_e, b_e in zip(seq.values, seq.values[1:]):
            if b_e > p * a_e + p - 1:
                raise AssertionError(
                    f"principal nu regression failed: {seq.values}"
                )
        upper = Fraction(nu_last + 1, q)
    else:
        upper = sum(
            Fraction(nu(g, e_used) + 1, q) for g in gens
        )

    lower = max(lower, Fraction(1, ord_a))
    upper = min(upper, Fraction(n, ord_a))
    return ThresholdResult(lower, upper, False, "nu-limit")


# ----------------------------------------------------------------------
# Cones over plane cubics
# ----------------------------------------------------------------------

def _check_cubic(f: Polynomial):
    if f.ring.fieldtag != "Fp":
        raise ValueError("cubic must live over F_p")
    if f.ring.nvars != 3:
        raise ValueError("cubic must have exactly 3 variables")
    if f.is_zero() or any(sum(exp) != 3 for exp in f.terms):
        raise ValueError("polynomial is not homogeneous of degree 3")


def is_ordinary_cubic(f: Polynomial) -> bool:
    """Ordinarity of the plane cubic: coefficient of (xyz)^{p-1} in f^{p-1}.

    Smoothness of the projective curve is the caller's responsibility; the
    test is meaningful only for cubics with an isolated singularity at 0.
    """
    _check_cubic(f)
    p = f.ring.p
    c = monomial_coefficient(f, p - 1, (p - 1, p - 1, p - 1))
    return c != 0


def fpt_cubic_cone(f: Polynomial) -> Fraction:
    """Threshold of the cone: 1 when the curve is ordinary, else 1 - 1/p."""
    _check_cubic(f)
    p = f.ring.p
    if is_ordinary_cubic(f):
        return Fraction(1)
    return Fraction(p - 1, p)
