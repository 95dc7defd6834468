"""Characteristic-zero log canonical thresholds for closed-form families.

Only the families with known closed forms are computed, each by a function
of its data: diagonal forms, homogeneous polynomials with isolated
singularity, and nonsingular subschemes.  A plane node is
``lct_homogeneous_isolated(2, 2)``, with threshold 1.  Bad data raises
``ValueError``; computing a general threshold would need a log resolution,
which is out of scope.

``CHAR0_RULES`` gives exact thresholds: Howald's for a monomial ideal (so
this module imports ``newton``) and Thom-Sebastiani's for a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from thresholds.newton import MonomialIdeal, lct_monomial
from thresholds.rings import Polynomial


@dataclass(frozen=True)
class ThresholdResult:
    """Proved enclosure lo <= threshold <= hi; exact when lo == hi."""

    lo: Fraction
    hi: Fraction
    method: str  # a rule's name in a table of exact rules, 'F-pure' or 'nu-limit'

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(value, method: str = "closed-form") -> "ThresholdResult":
        value = Fraction(value)
        return ThresholdResult(value, value, method)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("interval result has no single value")
        return self.lo

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo


def lct_closed_form(exponents) -> Fraction:
    """Diagonal x_1^{a_1} + ... + x_n^{a_n}: min(1, sum 1/a_i)."""
    if not exponents or min(exponents) < 1:
        raise ValueError("diagonal exponents must be >= 1")
    return min(Fraction(1), sum(Fraction(1, a) for a in exponents))


def thom_sebastiani_orders(f: Polynomial) -> list | None:
    """The k of each part of f = g_1 + ... + g_r in disjoint variables, if
    each part is in one variable (k its order) or one term c*x^u (k = max u);
    else None, as for f = 0 or f(0) != 0."""
    parts = []  # [variables, exponents] of each part of the terms so far
    for u in f.terms:
        part = [{i for i, x in enumerate(u) if x}, [u]]
        for other in [q for q in parts if q[0] & part[0]]:
            parts.remove(other)
            part[0] |= other[0]
            part[1] += other[1]
        parts.append(part)
    # a false k marks a part that is neither, or a constant term
    ks = [min(map(sum, exps)) if len(used) == 1 else len(exps) == 1 and max(exps[0])
          for used, exps in parts]
    return ks if ks and all(ks) else None


def _thom_sebastiani(f):
    """lct(g(x) + h(y)) = min(1, lct g + lct h) for g, h in disjoint variables
    (Demailly-Kollar, Ann. Sci. ENS 2001), and each part above has lct 1/k."""
    ks = isinstance(f, Polynomial) and thom_sebastiani_orders(f)
    return ks and lct_closed_form(ks)


# (method, rule): a rule maps a MonomialIdeal or a polynomial over Q to its
# exact lct at the origin, or to a false value where it does not apply
CHAR0_RULES = (
    ("LP", lambda a: isinstance(a, MonomialIdeal) and lct_monomial(a)),  # Howald
    ("closed-form", _thom_sebastiani),
)


def first_exact(rules, a) -> ThresholdResult | None:
    """The exact result of the first (method, rule) in rules that answers a."""
    for method, rule in rules:
        if value := rule(a):
            return ThresholdResult.exact(value, method)
    return None


def lct_homogeneous_isolated(n: int, d: int) -> Fraction:
    """Form of degree d in n variables, isolated singularity: min(1, n/d)."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    return min(Fraction(1), Fraction(n, d))


def lct_smooth_subscheme(codim: int) -> Fraction:
    """Ideal of a nonsingular subscheme of pure codimension codim: codim."""
    if codim < 1:
        raise ValueError("codimension must be >= 1")
    return Fraction(codim)


def truncation_bound(lct_f: Fraction, n: int, N: int) -> tuple:
    """Certified range of the threshold of any polynomial sharing a truncation.

    Two polynomials agreeing up to degree N have thresholds within n/(N+1)
    of each other, so the result is [max(0, lct - n/(N+1)), lct + n/(N+1)].
    """
    if n < 1 or N < 1:
        raise ValueError("need n >= 1 and N >= 1")
    lct_f = Fraction(lct_f)
    if not 0 <= lct_f <= n:
        raise ValueError(f"threshold {lct_f} outside [0, {n}]")
    slack = Fraction(n, N + 1)
    return (max(Fraction(0), lct_f - slack), lct_f + slack)


def lct_general_combination(ideal_lct) -> Fraction:
    """Threshold of a general linear combination of the ideal's generators.

    Valid for generic coefficients only: specific coefficient choices can have
    a smaller threshold, and genericity is not decidable from the input.
    """
    return min(Fraction(ideal_lct), Fraction(1))
