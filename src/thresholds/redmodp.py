"""Reduction mod p and comparison of the two thresholds.

For a polynomial with rational coefficients, the F-pure threshold of the
reduction mod p never exceeds the characteristic-zero threshold, and the two
agree for infinitely many p.  ``compare_at_prime`` produces one row of that
comparison from a proved enclosure of the F-pure threshold;
``compare_diagonal`` runs it across a prime range for a diagonal polynomial
over Q, where equality has a clean congruence description.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from math import prod

from thresholds.frobenius import fpt_enclosures
from thresholds.lct0 import ThresholdResult, lct_closed_form
from thresholds.rings import Polynomial, Ring, is_prime

EQUAL = "equal"
FPT_LESS = "fpt-less"
INCONCLUSIVE = "inconclusive"

_NOT_DIAGONAL = "compare expects a diagonal x1^a1 + ... + xn^an"


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


def compare_at_prime(f: Polynomial, p: int, lct0: Fraction, *,
                     e_max: int) -> ComparisonRow:
    """One comparison row: the first enclosure of fpt(f mod p) at a level
    e <= e_max that decides its relation to lct0, else the last, intersected
    with the a-priori bound fpt <= lct0."""
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    lct0 = Fraction(lct0)
    fp = reduce_mod_p(f, p)
    for enc in islice(fpt_enclosures(fp), e_max):
        if enc.hi < lct0 or enc.is_exact:
            break
    if enc.lo > lct0:
        raise AssertionError(
            f"fpt lower bound {enc.lo} exceeds the char-0 threshold {lct0}"
        )
    return ComparisonRow(p, replace(enc, hi=min(enc.hi, lct0)), lct0)


def compare_diagonal(f: Polynomial, primes, *, e_max: int = 3) -> list:
    """Comparison rows for a diagonal f = x_1^{a_1} + ... + x_n^{a_n} over Q
    across the given primes.

    f must be a sum of terms 1*x_i^{a_i}, each variable in at most one of
    them; anything else raises ``ValueError``.  The two thresholds agree
    when p = 1 mod a_1*...*a_n (every a_i then divides p - 1), so those rows
    are EQUAL without a computation; every row carries p mod a_1*...*a_n as
    its residue.
    Primes dividing some exponent are skipped: the reduction is then a p-th
    power times a unit pattern and the diagonal closed forms do not apply.
    """
    if f.ring.p is not None:
        raise ValueError("polynomial is already in characteristic p")
    exponents = {}  # variable index -> its exponent
    for exp, c in f.terms.items():
        support = [i for i, a in enumerate(exp) if a]
        if len(support) != 1 or c != 1 or support[0] in exponents:
            raise ValueError(_NOT_DIAGONAL)
        exponents[support[0]] = exp[support[0]]
    if not exponents:
        raise ValueError(_NOT_DIAGONAL)
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    exps = tuple(exponents.values())
    lct0 = lct_closed_form(exps)
    modulus = prod(exps)
    rows = []
    for p in primes:
        if any(a % p == 0 for a in exps):
            continue
        if p % modulus == 1:
            row = ComparisonRow(p, ThresholdResult.exact(lct0), lct0)
        else:
            row = compare_at_prime(f, p, lct0, e_max=e_max)
        rows.append(replace(row, residue=p % modulus))
    return rows
