"""Asymptotic invariants of graded sequences of monomial ideals.

A graded sequence assigns to each m a monomial ideal a_m with
a_m * a_l contained in a_{m+l}.  The normalized Arnold multiplicities
Arn(a_m)/m decrease to a limit, and weighted orders ord_v(a_m)/m converge
likewise.  Three concrete sequences are provided: powers of a fixed ideal,
lattice points of dilates of a rational polyhedral region, and lattice
points of dilates of the hyperbola region (u1+1)*u2 >= 1, whose limit is
the golden ratio conjugate (sqrt(5)-1)/2 -- an irrational limit, so no
single ideal in the sequence attains it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod

from thresholds.newton import (
    MonomialIdeal,
    diagonal_entry_min,
    extreme_rays,
    lattice_generators,
    monomial_valuation,
)
from thresholds.rings import charge_box

SQRT_DIGITS = 30


def sqrt_enclosure(x, digits: int = SQRT_DIGITS) -> tuple:
    """Rational lo <= sqrt(x) <= hi with hi - lo <= 2/10^digits."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative argument")
    scale = 10**digits
    y = isqrt(x.numerator * x.denominator * scale * scale)
    den = x.denominator * scale
    return Fraction(y, den), Fraction(y + 1, den)


GOLDEN_LO, GOLDEN_HI = [(s - 1) / 2 for s in sqrt_enclosure(5)]


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Finite-m samples of a normalized invariant plus certified limit bounds."""

    samples: tuple  # ((m, Fraction), ...)
    limit_lo: Fraction
    limit_hi: Fraction

    def last(self) -> Fraction:
        return self.samples[-1][1]


class PowersOf:
    """a_m = I^m for a fixed monomial ideal I; all invariants scale exactly."""

    def __init__(self, ideal: MonomialIdeal):
        self.base = ideal
        self.n = ideal.n

    def ideal(self, m: int) -> MonomialIdeal:
        # Newton polyhedron of I^m is the m-fold dilate, so scaling the
        # generators gives the same polyhedron without the combinatorics.
        if m < 1:
            raise ValueError("m must be >= 1")
        return self.base.scaled(m)

    def arn_limit(self) -> tuple:
        t = diagonal_entry_min(self.base)
        return t, t

    def val_limit(self, v) -> tuple:
        w = monomial_valuation(v, self.base)
        return w, w


class PolyhedralQ:
    """a_m = monomials in the m-fold dilate of Q = {u >= 0 : C u >= b}.

    Rows of C must be nonnegative and b positive, so Q is an unbounded
    convex region avoiding the origin.  Ideals and limits are exact in any
    dimension: ``newton.lattice_generators`` gives the ideals.
    """

    def __init__(self, C, b):
        C = [[Fraction(x) for x in row] for row in C]
        b = [Fraction(x) for x in b]
        if not C or len(C) != len(b):
            raise ValueError("constraint shape mismatch")
        self.n = len(C[0])
        if any(x < 0 for row in C for x in row) or any(x <= 0 for x in b):
            raise ValueError("need C >= 0 and b > 0")
        if not all(any(row) for row in C):
            raise ValueError("a zero row of C makes Q empty")
        # each row (c, b) times the lcm of its denominators: integers
        self.rows = [([int(x * s) for x in c], int(bb * s)) for c, bb in zip(C, b)
                     for s in [lcm(*(x.denominator for x in (*c, bb)))]]

    def ideal(self, m: int) -> MonomialIdeal:
        if m < 1:
            raise ValueError("m must be >= 1")
        rows = [(c, m * bb) for c, bb in self.rows]
        # lowering a u_j > ceil(m*b/c_j) keeps every row with c_j > 0 met
        sides = [1 + max((-(-mb // c[j]) for c, mb in rows if c[j]), default=0)
                 for j in range(self.n - 1)]
        last = prod(sides) - 1
        charge_box(last, f"runaway enumeration to column {last} (is Q proper?)")
        return MonomialIdeal(self.n, lattice_generators(rows, sides))

    def arn_limit(self) -> tuple:
        t = max(Fraction(bb, sum(c)) for c, bb in self.rows)
        return t, t

    def val_limit(self, v) -> tuple:
        v = [Fraction(x) for x in v]
        if len(v) != self.n or any(x < 0 for x in v):
            raise ValueError("need n weights, each >= 0")
        # v >= 0 is bounded below on Q, so its minimum sits at a vertex; the
        # vertices u/t are the rays with t > 0 of {(u, t) >= 0 : C u - t b >= 0}
        rows = [(*c, -bb) for c, bb in self.rows]
        w = min(
            sum(x * y for x, y in zip(v, ray)) / ray[-1]
            for ray, _ in extreme_rays(rows, self.n + 1) if ray[-1] > 0
        )
        return w, w


class HyperbolaQ:
    """a_m = monomials (u1, u2) with (u1 + m) * u2 >= m^2.

    These are the lattice points of the m-fold dilate of the region bounded
    by the hyperbola (u1+1)*u2 = 1.  The normalized diagonal invariant
    converges to the golden ratio conjugate.
    """

    n = 2

    def ideal(self, m: int) -> MonomialIdeal:
        if m < 1:
            raise ValueError("m must be >= 1")
        mm = m * m
        gens = []
        a = 0
        while True:
            b = -(-mm // (a + m))  # ceil(m^2 / (a + m))
            gens.append((a, b))
            if b == 1:
                break
            # smallest a with ceil(m^2/(a+m)) <= b-1
            a = -(-mm // (b - 1)) - m
        return MonomialIdeal(2, gens)

    def arn_limit(self) -> tuple:
        return GOLDEN_LO, GOLDEN_HI

    def val_limit(self, v) -> tuple:
        """min over Q of alpha*u1 + beta*u2: 2*sqrt(alpha*beta) - alpha
        when beta >= alpha, else beta (minimum on the u2-axis)."""
        alpha, beta = (Fraction(x) for x in v)
        if alpha < 0 or beta < 0:
            raise ValueError("weights must be >= 0")
        if beta < alpha:
            return beta, beta
        lo, hi = sqrt_enclosure(alpha * beta)
        return 2 * lo - alpha, 2 * hi - alpha


def arn_asym(seq, m: int) -> Fraction:
    """Normalized Arnold multiplicity Arn(a_m) / m, exact."""
    return diagonal_entry_min(seq.ideal(m)) / m


def val_asym(seq, v, m: int) -> Fraction:
    """Normalized weighted order ord_v(a_m) / m, exact."""
    return monomial_valuation(v, seq.ideal(m)) / m


def estimate_arn(seq, m_max: int, *, start: int = 16) -> AsymptoticEstimate:
    """Sample Arn(a_m)/m at m = start, 2*start, ..., m_max."""
    if m_max < start:
        raise ValueError(f"m_max must be >= {start}")
    charge_box(m_max, f"m_max = {m_max}")
    samples = []
    m = start
    while m <= m_max:
        samples.append((m, arn_asym(seq, m)))
        m *= 2
    lo, hi = seq.arn_limit()
    return AsymptoticEstimate(tuple(samples), lo, hi)


def golden_ratio_demo(m_max: int = 2048) -> AsymptoticEstimate:
    """Convergence table for the hyperbola sequence.

    Every sample is an upper bound for the limit (the lattice ideal sits
    inside the dilated region), and the m-th sample is within 1/m of it.
    """
    est = estimate_arn(HyperbolaQ(), m_max)
    for m, value in est.samples:
        if not (GOLDEN_LO <= value <= GOLDEN_HI + Fraction(1, m)):
            raise AssertionError(f"sample at m={m} outside certified band")
    return est
