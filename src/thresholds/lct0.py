"""Characteristic-zero log canonical thresholds for closed-form families.

Only the families with known closed forms are computed, each by a function
of its data: diagonal forms, homogeneous polynomials with isolated
singularity, and nonsingular subschemes.  A plane node is
``lct_homogeneous_isolated(2, 2)``, with threshold 1; monomial ideals go
through :func:`thresholds.newton.lct_monomial`.  Bad data raises
``ValueError``; computing a general threshold would need a log resolution,
which is out of scope.

This module imports no other ``thresholds`` module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ThresholdResult:
    """Proved enclosure lo <= threshold <= hi; exact when lo == hi."""

    lo: Fraction
    hi: Fraction
    method: str  # 'closed-form' | 'LP' | 'nu-limit' | 'F-pure' | 'cubic-cone'

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
