"""Reduction mod p and comparison of the two thresholds.

For a polynomial with rational coefficients, the F-pure threshold of the
reduction mod p never exceeds the characteristic-zero threshold, and the two
agree for infinitely many p.  ``compare_at_prime`` produces one row of that
comparison from a proved enclosure of the F-pure threshold; ``compare`` runs
it across a prime range for a polynomial over Q whose threshold a rule of
``lct0.CHAR0_RULES`` gives.  Such a polynomial is a Thom-Sebastiani sum, so
the ``digits`` rule of ``frobenius.CHAR_P_RULES`` makes every row exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from math import prod

from thresholds.frobenius import fpt_enclosures
from thresholds.lct0 import (
    CHAR0_RULES,
    ThresholdResult,
    first_exact,
    thom_sebastiani_orders,
)
from thresholds.rings import Polynomial, Ring, is_prime

EQUAL = "equal"
FPT_LESS = "fpt-less"
INCONCLUSIVE = "inconclusive"
LEVELS = 3  # fpt enclosure levels a comparison row reads at most


def reduce_mod_p(f: Polynomial, p: int) -> Polynomial:
    """Coefficientwise reduction of a Q-polynomial to F_p."""
    if f.ring.p is not None:
        raise ValueError("polynomial is already in characteristic p")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    target = Ring.prime_field(f.ring.nvars, p, f.ring.names)
    terms = {}
    for exp, c in f.terms.items():
        c = Fraction(c)
        if c.denominator % p == 0:
            raise ValueError(f"denominator of {c} vanishes mod {p}")
        num = c.numerator % p
        if num:
            terms[exp] = target.coeff(num * pow(c.denominator % p, -1, p))
    return Polynomial(target, terms)


@dataclass(frozen=True)
class ComparisonRow:
    p: int
    fpt: ThresholdResult
    lct0: Fraction
    residue: int | None = None  # p mod a_1*...*a_n in diagonal comparisons

    @property
    def relation(self) -> str:
        """EQUAL | FPT_LESS | INCONCLUSIVE, read off the enclosure of fpt <= lct0."""
        if self.fpt.lo == self.lct0:
            return EQUAL
        return FPT_LESS if self.fpt.hi < self.lct0 else INCONCLUSIVE


def compare_at_prime(f: Polynomial, p: int, lct0: Fraction) -> ComparisonRow:
    """One comparison row: the first enclosure of fpt(f mod p) at a level
    e <= LEVELS that decides its relation to lct0, else the last, intersected
    with the a-priori bound fpt <= lct0."""
    lct0 = Fraction(lct0)
    fp = reduce_mod_p(f, p)
    for enc in islice(fpt_enclosures(fp), LEVELS):
        if enc.hi < lct0 or enc.is_exact:
            break
    if enc.lo > lct0:
        raise AssertionError(
            f"fpt lower bound {enc.lo} exceeds the char-0 threshold {lct0}"
        )
    return ComparisonRow(p, replace(enc, hi=min(enc.hi, lct0)), lct0)


def compare(f: Polynomial, primes) -> list:
    """Comparison rows across the given primes for f over Q, vanishing at the
    origin, whose threshold lct0 a rule of ``CHAR0_RULES`` gives.

    Primes that divide a coefficient of f or the k of a part of f
    (:func:`thom_sebastiani_orders`) are skipped.  A row of a diagonal
    c_1 x_1^{a_1} + ... + c_n x_n^{a_n} has residue p mod a_1*...*a_n.
    """
    if f.ring.p is not None:
        raise ValueError("polynomial is already in characteristic p")
    if (0,) * f.ring.nvars in f.terms:
        raise ValueError("f does not vanish at the origin")
    if not (exact := first_exact(CHAR0_RULES, f)):
        raise ValueError("no rule gives the characteristic-zero threshold of f")
    ks = thom_sebastiani_orders(f)
    bad = ks + [n for c in f.terms.values() for n in c.as_integer_ratio()]
    # a diagonal has one part per term and one variable per part
    diagonal = len(ks) == len(f.terms) == sum(map(any, zip(*f.terms)))
    modulus = prod(ks) if diagonal else None
    rows = []
    for p in primes:
        if any(b % p == 0 for b in bad):
            continue
        row = compare_at_prime(f, p, exact.value)
        rows.append(replace(row, residue=modulus and p % modulus))
    return rows
