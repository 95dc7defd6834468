"""Newton polyhedra of monomial ideals and Howald-style threshold data.

The Newton polyhedron of a monomial ideal is ``conv(gens) + R_{>=0}^n``,
represented implicitly by the generator exponents.  Where a positive ray
enters it (one exact LP) gives the threshold and the monomial test ideal; the
multiplicity comes from an exact covolume computed by recursive slicing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from thresholds.lp import OPTIMAL, solve_lp
from thresholds.rings import infer_ring, parse_polynomial


class NotMPrimaryError(ValueError):
    pass


def minimal_points(points) -> list:
    """The points not componentwise >= another point, in lex order.

    Lex order extends the componentwise order, so a point can only be
    dominated by a point sorted before it: one pass against the points kept
    so far suffices.  In two dimensions the kept second coordinates strictly
    decrease, so the last kept point alone decides.
    """
    out = []
    for p in sorted(points):
        if len(p) == 2:
            dominated = out and out[-1][1] <= p[1]
        else:
            dominated = any(all(a <= b for a, b in zip(q, p)) for q in out)
        if not dominated:
            out.append(p)
    return out


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal stored by its minimal generator exponents."""

    n: int
    gens: tuple

    def __init__(self, n: int, gens):
        gens = [tuple(int(x) for x in g) for g in gens]
        if not gens:
            raise ValueError("the zero ideal is not allowed")
        for g in gens:
            if len(g) != n:
                raise ValueError(f"generator {g} has wrong length for n={n}")
            if any(x < 0 for x in g):
                raise ValueError(f"negative exponent in generator {g}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", tuple(minimal_points(gens)))

    @staticmethod
    def parse(text: str) -> "MonomialIdeal":
        """Parse a comma-separated monomial list such as ``x^2, y^3``."""
        ring = infer_ring(text.replace(",", "+"))
        gens = []
        for piece in text.split(","):
            poly = parse_polynomial(piece.strip(), ring)
            if len(poly.terms) != 1:
                raise ValueError(f"{piece.strip()!r} is not a monomial")
            ((exp, coeff),) = poly.terms.items()
            if coeff != 1:
                raise ValueError(f"monomial generators must be monic: {piece!r}")
            gens.append(exp)
        return MonomialIdeal(ring.nvars, gens)

    def is_proper(self) -> bool:
        return all(any(x > 0 for x in g) for g in self.gens)

    def is_m_primary(self) -> bool:
        """True iff the ideal contains a pure power of every variable."""
        for i in range(self.n):
            if not any(
                g[i] > 0 and all(x == 0 for j, x in enumerate(g) if j != i)
                for g in self.gens
            ):
                return False
        return True

    def contains_monomial(self, exp) -> bool:
        return any(all(a <= b for a, b in zip(g, exp)) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains_monomial(g) for g in other.gens)

    def scaled(self, r: int) -> "MonomialIdeal":
        """All generator exponents multiplied by r (Newton polyhedron r*P)."""
        return MonomialIdeal(self.n, [tuple(r * x for x in g) for g in self.gens])

    def ord(self) -> int:
        """Order at the origin: min total degree of a generator."""
        return min(sum(g) for g in self.gens)


def _lower_hull(points):
    """Vertices of the lower-left convex hull of a staircase point set."""
    pts = sorted(points)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            # drop the middle point unless it makes a strict left turn
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                break
            hull.pop()
        hull.append(p)
    return hull


def ray_entry(a: MonomialIdeal, v) -> Fraction:
    """min{t : t*v in P(a)} for v > 0: where the ray through v enters P(a).

    One exact LP in the convex weights mu of the generators and t: minimize
    t subject to sum mu_i g_i <= t*v and sum mu_i = 1.  In two variables
    only the vertices of P(a) can carry weight, so the rest are dropped first.
    A v of another dimension or with an entry <= 0 raises ``ValueError``.
    """
    if len(v) != a.n or any(x <= 0 for x in v):
        raise ValueError(f"ray direction must have {a.n} entries, each > 0")
    gens = _lower_hull(a.gens) if a.n == 2 else a.gens
    k = len(gens)
    # columns mu_1..mu_k, t;  one row sum_i mu_i g_i[j] - t v_j <= 0 per j
    c = [Fraction(0)] * k + [Fraction(1)]
    A_ub = [[g[j] for g in gens] + [-Fraction(v[j])] for j in range(a.n)]
    b_ub = [Fraction(0)] * a.n
    A_eq = [[Fraction(1)] * k + [Fraction(0)]]
    res = solve_lp(c, A_ub, b_ub, A_eq, [Fraction(1)])
    if res.status != OPTIMAL:
        raise AssertionError(f"ray LP unexpectedly {res.status}")
    return res.objective


def diagonal_entry_min(a: MonomialIdeal) -> Fraction:
    """min{t : (t,...,t) in P(a)}, the Arnold multiplicity of the ideal."""
    return ray_entry(a, (1,) * a.n)


def lct_monomial(a: MonomialIdeal) -> Fraction:
    """Howald's formula: max lambda with (1,...,1) in lambda*P(a).

    An improper ideal has no finite threshold and raises ``ValueError``.
    """
    if not a.is_proper():
        raise ValueError("improper ideal: threshold is infinite")
    return 1 / diagonal_entry_min(a)


def monomial_valuation(v, a: MonomialIdeal) -> Fraction:
    """min over generators u of <u, v>, for v >= 0 componentwise."""
    v = [Fraction(x) for x in v]
    if len(v) != a.n:
        raise ValueError("valuation vector dimension mismatch")
    if any(x < 0 for x in v):
        raise ValueError("monomial valuations require v >= 0")
    return min(sum(x * y for x, y in zip(g, v)) for g in a.gens)


# ----------------------------------------------------------------------
# Covolume and multiplicity
# ----------------------------------------------------------------------

def _slice_points(points, t: Fraction):
    """Generators of the slice {u' : (u', t) in conv(points)+orthant}.

    Vertices of the slice come from points at height <= t and from edges
    mixing a low point with a high point exactly at height t.
    """
    low = [p for p in points if p[-1] <= t]
    high = [p for p in points if p[-1] > t]
    out = [p[:-1] for p in low]
    for a in low:
        for b in high:
            s = (t - a[-1]) / (b[-1] - a[-1])
            out.append(
                tuple(x + (y - x) * s for x, y in zip(a[:-1], b[:-1]))
            )
    return out


def _interp_integral(xs, ys, lo: Fraction, hi: Fraction) -> Fraction:
    """Integral over [lo, hi] of the Lagrange interpolant through (xs, ys)."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        # integrate the i-th Lagrange basis polynomial exactly
        coeffs = [Fraction(1)]  # polynomial in t, ascending powers
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(coeffs) + 1)
            for d, cd in enumerate(coeffs):
                new[d] -= cd * xj
                new[d + 1] += cd
            coeffs = new
        integral = sum(
            cd * (hi ** (d + 1) - lo ** (d + 1)) / (d + 1)
            for d, cd in enumerate(coeffs)
        )
        total += yi * integral / denom
    return total


def covolume(points, n: int) -> Fraction:
    """Volume of the orthant complement of conv(points)+orthant.

    Requires the complement to be bounded, which holds when the points include
    one on each coordinate axis.  Recursive slicing along the last coordinate:
    between consecutive generator heights the slice volume is a polynomial of
    degree < n, recovered by exact interpolation and integrated.
    """
    points = minimal_points([tuple(Fraction(x) for x in p) for p in points])
    if n == 1:
        return min(p[0] for p in points)
    heights = sorted({p[-1] for p in points})
    if heights[0] != 0:
        heights.insert(0, Fraction(0))
    total = Fraction(0)
    for lo, hi in zip(heights, heights[1:]):
        span = hi - lo
        # n interior sample points determine the degree <(n) polynomial; one
        # extra point cross-checks that the degree bound actually holds
        xs = [lo + span * Fraction(j, n + 2) for j in range(1, n + 2)]
        ys = [covolume(_slice_points(points, t), n - 1) for t in xs]
        extra = _interp_value(xs[:-1], ys[:-1], xs[-1])
        if extra != ys[-1]:
            raise AssertionError("slice volume not polynomial on interval")
        total += _interp_integral(xs[:-1], ys[:-1], lo, hi)
    return total


def _interp_value(xs, ys, x: Fraction) -> Fraction:
    out = Fraction(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = yi
        for j, xj in enumerate(xs):
            if j != i:
                term *= (x - xj) / (xi - xj)
        out += term
    return out


def multiplicity_monomial(a: MonomialIdeal) -> int:
    """Hilbert-Samuel multiplicity: n! times the Newton covolume.

    Only defined for m-primary ideals (finite covolume).  The value equals
    the multiplicity of the integral closure; on diagonal ideals it is the
    product of the exponents.
    """
    if not a.is_m_primary():
        raise NotMPrimaryError(f"{a.gens} is not m-primary")
    vol = covolume(a.gens, a.n)
    result = vol * math.factorial(a.n)
    if result.denominator != 1:
        raise AssertionError(f"multiplicity came out non-integral: {result}")
    return result.numerator


def check_amgm(a: MonomialIdeal) -> bool:
    """Multiplicity bound e(a) * lct(a)^n >= n^n, exact rationals."""
    e = multiplicity_monomial(a)
    lct = lct_monomial(a)
    return e * lct**a.n >= a.n**a.n
