"""Newton polyhedra of monomial ideals and Howald-style threshold data.

The Newton polyhedron of a monomial ideal is ``conv(gens) + R_{>=0}^n``,
represented implicitly by the generator exponents.  Where a positive ray
enters it (one exact LP) gives the threshold.  Its facets, which give the
monomial test ideal, come from an exact integer double description, which
starts from the unit vectors of an orthant that holds the cone of valid
inequalities; the multiplicity sums determinants over a triangulation of
the compact facets.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from thresholds.lp import OPTIMAL, solve_lp
from thresholds.rings import parse_generators


def _front_insert(bs: list, cs: list, b, c) -> bool:
    """Add (b, c) to the Pareto front (bs rising, cs falling) unless a point
    of the front is <= (b, c), dropping the points that (b, c) is <=; whether
    (b, c) was added."""
    i = bisect_right(bs, b)
    if i and cs[i - 1] <= c:  # the front's least c among its b' <= b
        return False
    j = k = bisect_left(bs, b, 0, i)
    while k < len(cs) and cs[k] >= c:
        k += 1
    bs[j:k], cs[j:k] = [b], [c]
    return True


def minimal_points(points) -> list:
    """The points not componentwise >= another point, in lex order.

    Lex order extends the componentwise order, so a point can only be
    dominated by a point sorted before it: one pass against the points kept
    so far suffices.  In at most three dimensions, with the missing
    coordinates 0, every kept point has a first coordinate <= this one's, so
    the Pareto front of the kept points' last two coordinates decides, by
    one bisection.
    """
    out, bs, cs = [], [], []
    for p in sorted(points):
        if len(p) <= 3:
            dominated = not _front_insert(bs, cs, *(*p[1:], 0, 0)[:2])
        else:
            dominated = any(all(a <= b for a, b in zip(q, p)) for q in out)
        if not dominated:
            out.append(p)
    return out


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal stored by its minimal generator exponents, in lex
    order (:func:`minimal_points`)."""

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
        polys = parse_generators(text)
        gens = []
        for piece, poly in zip(text.split(","), polys):
            piece = piece.strip()
            if len(poly.terms) != 1:
                raise ValueError(f"{piece!r} is not a monomial")
            ((exp, coeff),) = poly.terms.items()
            if coeff != 1:
                raise ValueError(f"monomial generators must be monic: {piece!r}")
            gens.append(exp)
        return MonomialIdeal(polys[0].ring.nvars, gens)

    def is_proper(self) -> bool:
        return all(any(x > 0 for x in g) for g in self.gens)

    def is_m_primary(self) -> bool:
        """True iff the ideal contains a pure power of every variable."""
        return all(any(0 < g[i] == sum(g) for g in self.gens) for i in range(self.n))

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


def lattice_generators(rows, sides):
    """Minimal generators, in lex order, of {u in N^n : <w, u> >= c for every
    integer row (w, c), w >= 0}, whose first n - 1 coordinates lie in the box
    u_j < sides[j].  A prefix u' of the box is kept, with the least last
    coordinate low(u') the rows allow, iff no u' - e_j reaches as low."""
    strides = [math.prod(sides[j + 1:]) for j in range(len(sides))]
    lows = []  # lows[i]: low of the i-th prefix, inf if a row without x_n is unmet
    for i, u in enumerate(product(*map(range, sides))):
        low = 0
        for w, c in rows:
            need = c - sum(map(mul, w, u))  # u stops short of w_n
            if w[-1]:
                low = max(low, -(-need // w[-1]))
            elif need > 0:
                low = math.inf
                break
        lows.append(low)
        if low < math.inf and all(lows[i - t] > low for x, t in zip(u, strides) if x):
            yield (*u, low)


# ----------------------------------------------------------------------
# Facets by double description; covolume and multiplicity
# ----------------------------------------------------------------------

def _primitive(vec) -> tuple:
    """The integer vector divided by the gcd of its entries."""
    g = math.gcd(*vec)
    return tuple(x // g for x in vec)


def extreme_rays(rows, d: int) -> list:
    """Extreme rays of the cone {x in R^d : x >= 0, <a, x> >= 0 for each row a}.

    Exact double description over integer rows (Motzkin, Raiffa, Thompson
    and Thrall 1953; Fukuda and Prodon 1996).  The cone lies in the orthant,
    so it is pointed, and the orthant's unit vectors start the method.  Each
    row is then added in turn: it keeps the rays on its side and joins each
    pair of rays on opposite sides that are adjacent, which the combinatorial
    test decides: no third ray is tight on every constraint that both are
    tight on (distinct extreme rays have distinct tight sets).  Returns
    ``(ray, tight)`` pairs: a primitive integer vector and the bitmask of the
    constraints that are zero on it, bit j < d for x_j >= 0 and bit d + i
    for row i.
    """
    full = (1 << d) - 1
    rays = [(tuple(int(i == j) for i in range(d)), full & ~(1 << j)) for j in range(d)]
    for i, a in enumerate(rows):
        bit = 1 << (d + i)
        pos, neg, new = [], [], []
        for r, tight in rays:
            s = sum(x * y for x, y in zip(a, r))
            if s > 0:
                pos.append((r, tight, s))
                new.append((r, tight))
            elif s < 0:
                neg.append((r, tight, s))
            else:
                new.append((r, tight | bit))
        for rp, tp, sp in pos:
            for rn, tn, sn in neg:
                common = tp & tn
                if common.bit_count() < d - 2 or any(
                    common & t == common and t != tp and t != tn for _, t in rays
                ):
                    continue
                new.append((_primitive([sp * y - sn * x for x, y in zip(rp, rn)]),
                            common | bit))
        rays = new
    return rays


def facets(points) -> list:
    """Facets <w, u> >= b of conv(points) + R^n_{>=0}, for integer points.

    A valid inequality is a pair (w, b) with w >= 0 and <w, g> >= b at each
    point g, so the facets are the extreme rays of that cone of pairs, all
    but the trivial 0 >= -1.  In the coordinates (w, c), c = <w, g_0> - b,
    the cone lies in the orthant: c >= 0 at g_0 = points[0], and
    <w, g - g_0> + c >= 0 at every other point g.  The change is unimodular,
    so rays stay primitive, and point i is the constraint of bit n + i of a
    ray's tight mask.  Each facet comes as ``(w, b, on)`` with w a
    primitive integer vector and ``on`` the frozenset of the indices of the
    points on it.  The coordinate facets u_i >= 0 have b = 0; every other
    facet of an m-primary point set has b > 0 and is compact.
    """
    n, first = len(points[0]), points[0]
    rows = [tuple(x - y for x, y in zip(p, first)) + (1,) for p in points[1:]]
    out = []
    for (*w, c), tight in extreme_rays(rows, n + 1):
        b = sum(x * y for x, y in zip(w, first)) - c
        if b >= 0:
            on = frozenset(i for i in range(len(points)) if tight >> (n + i) & 1)
            out.append((tuple(w), b, on))
    return out


def _pulling(face: frozenset, facet_sets) -> list:
    """Pulling triangulation of a compact face, given by the set of points on
    it: cone its least point over the triangulated facets of the face that
    miss that point.  The facets of a face are the maximal proper nonempty
    intersections of its point set with the facets of the polyhedron."""
    cuts = {face & s for s in facet_sets} - {face, frozenset()}
    ridges = [r for r in cuts if not any(r < s for s in cuts)]
    p = min(face)
    if not ridges:  # a vertex
        return [(p,)]
    return [(p,) + simplex for r in ridges if p not in r
            for simplex in _pulling(r, facet_sets)]


def _det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination."""
    m = [list(r) for r in rows]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def covolume(points, n: int) -> Fraction:
    """Volume of the orthant complement of conv(points)+orthant.

    The points are scaled to integers by the lcm of their denominators and
    read as the generators of a :class:`MonomialIdeal`, whose checks reject
    no points and points of another length than n or with a negative entry.
    The complement is empty when the origin is a point, and otherwise
    bounded exactly when the ideal is m-primary: the volume is then its
    multiplicity over n!, scaled back.
    """
    points = [tuple(Fraction(x) for x in p) for p in points]
    scale = math.lcm(*(x.denominator for p in points for x in p))
    ideal = MonomialIdeal(n, [tuple(x * scale for x in p) for p in points])
    if not ideal.is_proper():
        return Fraction(0)
    return Fraction(multiplicity_monomial(ideal), math.factorial(n) * scale**n)


def multiplicity_monomial(a: MonomialIdeal) -> int:
    """Hilbert-Samuel multiplicity: n! times the Newton covolume.

    Only defined for m-primary ideals (finite covolume).  The complement of
    P(a) in the orthant is then the union of the cones from the origin over
    the compact facets (b > 0), so the multiplicity is sum |det(v_1, ...,
    v_n)| over a pulling triangulation of those facets.  The value equals
    the multiplicity of the integral closure; on diagonal ideals it is the
    product of the exponents.
    """
    if not a.is_m_primary():
        raise ValueError(f"{a.gens} is not m-primary")
    faces = facets(a.gens)
    sets = [on for _, _, on in faces]
    return sum(abs(_det([a.gens[i] for i in simplex]))
               for _, b, on in faces if b > 0 for simplex in _pulling(on, sets))


def check_amgm(e: int, lct: Fraction, n: int) -> bool:
    """Multiplicity bound e(a) * lct(a)^n >= n^n for an m-primary ideal a in
    n variables, given its multiplicity e and threshold lct."""
    return e * lct**n >= n**n
