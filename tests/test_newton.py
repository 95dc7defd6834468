from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import brute_lct_diagonal, m_primary_exponent_sets, monomial_exponent_sets
from oracles import (
    contains_point,
    covolume_reference,
    extreme_rays_reference,
    minimal_points_by_pairs,
    ray_entry_dual,
    tau_by_slack,
)
from thresholds.grobner import PolyIdeal, ideal_power
from thresholds.newton import (
    MonomialIdeal,
    check_amgm,
    covolume,
    diagonal_entry_min,
    extreme_rays,
    facets,
    lct_monomial,
    minimal_points,
    monomial_valuation,
    multiplicity_monomial,
    ray_entry,
)
from thresholds.rings import Polynomial, Ring
from thresholds.testideal import tau_monomial


def _power(a, r):
    """a^r, formed by the one product engine over F_2."""
    ring = Ring.prime_field(a.n, 2)
    gens = [Polynomial.monomial(ring, g) for g in a.gens]
    return PolyIdeal(ideal_power(gens, r)).monomial


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
           st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=40)),
       st.integers(0, 10), st.integers(1, 4))
def test_minimal_generators(points, repeat, den):
    a = MonomialIdeal(2, [(2, 0), (2, 1), (0, 3), (4, 4)])
    assert a.gens == ((0, 3), (2, 0))
    points = points + points[:repeat]  # duplicates
    assert minimal_points(points) == minimal_points_by_pairs(points)
    n = len(points[0])
    assert MonomialIdeal(n, points).gens == tuple(minimal_points_by_pairs(points))
    # the covolume oracle minimalizes Fraction points
    scaled = [tuple(Fraction(x, den) for x in p) for p in points]
    assert minimal_points(scaled) == minimal_points_by_pairs(scaled)


def test_parse():
    a = MonomialIdeal.parse("x^2, y^3")
    assert a.gens == ((0, 3), (2, 0))
    with pytest.raises(ValueError):
        MonomialIdeal.parse("x + y")


def test_m_primary_detection():
    assert MonomialIdeal(2, [(2, 0), (0, 3)]).is_m_primary()
    assert not MonomialIdeal(2, [(2, 0), (1, 1)]).is_m_primary()
    assert MonomialIdeal(1, [(4,)]).is_m_primary()


def test_containment_and_power():
    a = MonomialIdeal(2, [(2, 0), (0, 2)])
    b = MonomialIdeal(2, [(1, 0), (0, 1)])
    assert b.contains_ideal(a)
    assert not a.contains_ideal(b)
    assert _power(a, 2).gens == ((0, 4), (2, 2), (4, 0))


def test_lct_cusp_exponents():
    assert lct_monomial(MonomialIdeal.parse("x^2, y^3")) == Fraction(5, 6)


def test_lct_maximal_ideal_is_dimension():
    for n in (1, 2, 3, 4):
        gens = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        assert lct_monomial(MonomialIdeal(n, gens)) == n


def test_lct_improper_is_infinite():
    with pytest.raises(ValueError, match="infinite"):
        lct_monomial(MonomialIdeal(2, [(0, 0)]))


def test_lct_non_diagonal():
    # (x^3, xy, y^2): the generator (1,1) puts the diagonal point at t = 1
    a = MonomialIdeal(2, [(3, 0), (1, 1), (0, 2)])
    assert lct_monomial(a) == Fraction(1)
    # without it the diagonal meets the segment (3,0)-(0,2) at t = 6/5
    b = MonomialIdeal(2, [(3, 0), (0, 2)])
    assert lct_monomial(b) == Fraction(5, 6)


@given(st.lists(st.integers(1, 10), min_size=1, max_size=4))
def test_lct_diagonal_formula(exps):
    n = len(exps)
    gens = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(exps)]
    assert lct_monomial(MonomialIdeal(n, gens)) == brute_lct_diagonal(exps)


@given(monomial_exponent_sets(2), st.integers(2, 4))
def test_lct_scaling(gens, r):
    a = MonomialIdeal(2, gens)
    if not a.is_proper():
        return
    assert lct_monomial(a.scaled(r)) == lct_monomial(a) / r


@given(monomial_exponent_sets(2, max_exp=4, max_gens=3))
def test_lct_bounds_and_monotonicity(gens):
    a = MonomialIdeal(2, gens)
    if not a.is_proper():
        return
    lct = lct_monomial(a)
    ord_a = a.ord()
    assert Fraction(1, ord_a) <= lct <= Fraction(2, ord_a)
    # dropping to a subideal (multiply one generator) can only lower lct
    smaller = MonomialIdeal(2, [tuple(x + 1 for x in gens[0])] + gens[1:])
    if a.contains_ideal(smaller):
        assert lct_monomial(smaller) <= lct


def test_lct_disjoint_variables_add():
    # (x^2) in x and (y^3, z^3) in (y, z), combined in 3 variables
    a = MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert lct_monomial(a) == Fraction(1, 2) + Fraction(2, 3)


def test_contains_point_tight_at_threshold():
    a = MonomialIdeal.parse("x^2, y^3")
    lct = lct_monomial(a)
    assert contains_point(a, [1 / lct, 1 / lct])
    tighter = lct + Fraction(1, 1000)
    assert not contains_point(a, [1 / tighter, 1 / tighter])


def test_diagonal_entry_min_value():
    a = MonomialIdeal(2, [(2, 0), (0, 3)])
    assert diagonal_entry_min(a) == Fraction(6, 5)


@st.composite
def _ideal_and_ray(draw):
    """A proper monomial ideal with 1-5 minimal generators of exponents <= 6,
    and a direction v in [1..6]^n.  In two variables the generators are drawn
    as a staircase, so that hulls with several vertices come up."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 5))
    if n == 2:
        xs, ys = (draw(st.lists(st.integers(0, 6), min_size=k, max_size=k, unique=True))
                  for _ in range(2))
        gens = list(zip(sorted(xs), sorted(ys, reverse=True)))
    else:
        gens = draw(st.lists(st.tuples(*[st.integers(0, 6)] * 3), min_size=k, max_size=k))
    assume(all(any(g) for g in gens))
    v = draw(st.tuples(*[st.integers(1, 6)] * n))
    return MonomialIdeal(n, gens), v


@given(_ideal_and_ray())
def test_ray_entry_matches_the_oracles(ideal_v):
    a, v = ideal_v
    t0 = ray_entry(a, v)
    # t0*v is on the boundary of P(a): inside it, and the ray enters no earlier
    assert contains_point(a, [t0 * x for x in v])
    assert not contains_point(a, [t0 * Fraction(99, 100) * x for x in v])
    # the 2-D hull step drops no vertex the LP needs
    if a.n == 2:
        assert t0 == ray_entry_dual(a, v)


def test_ray_entry_rejects_a_ray_of_another_dimension_or_not_positive():
    a = MonomialIdeal.parse("x^2, y^3")
    assert ray_entry(a, (1, 1)) == Fraction(6, 5)
    for v in ((1, 1, 1), (1,), (-1, 2), (0, 1)):
        with pytest.raises(ValueError):
            ray_entry(a, v)


# the oracle runs one LP per undecided point of a box, and a non-m-primary
# ideal in three variables can leave thousands undecided; the column scan
# runs none, so 60 examples take about a second (100 take three)
@settings(max_examples=60)
@given(_ideal_and_ray(), st.fractions(Fraction(1, 7), 2, max_denominator=7))
def test_tau_monomial_matches_the_slack_oracle(ideal_v, lam):
    a, _ = ideal_v
    # u+1 interior to lam*P(a): the facet inequalities against the slack LP
    assert tau_monomial(a, lam) == tau_by_slack(a, lam)


def test_monomial_valuation():
    a = MonomialIdeal.parse("x^2, y^3")
    assert monomial_valuation((1, 1), a) == 2
    assert monomial_valuation((3, 2), a) == 6
    with pytest.raises(ValueError):
        monomial_valuation((-1, 0), a)


def test_covolume_diagonal():
    assert covolume([(2, 0), (0, 3)], 2) == 3
    assert covolume([(2, 0, 0), (0, 3, 0), (0, 0, 5)], 3) == 5
    assert covolume([(0, 0), (1, 1)], 2) == 0  # the origin is on every axis


def test_covolume_rejects_an_infinite_or_malformed_input():
    for points, n in (
        ([(2, 0), (1, 1)], 2),  # no point on the second axis
        ([(2, 0, 0), (0, 3, 0)], 3),
        ([], 2),
        ([(2, 0), (0, 3, 1)], 2),  # a point of another length
        ([(2, 0), (-1, 2), (0, 3)], 2),
    ):
        with pytest.raises(ValueError):
            covolume(points, n)


@st.composite
def _cones(draw):
    """d = 2-5 and 0-6 integer rows with entries in [-4, 4]."""
    d = draw(st.integers(2, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), max_size=6))
    return rows, d


# more examples than the suite's 30: an adjacency test without its third-ray
# check still passes 50 of them
@settings(max_examples=100)
@given(_cones())
def test_extreme_rays_match_the_brute_force_oracle(cone):
    rows, d = cone
    rays = extreme_rays(rows, d)
    assert len(set(rays)) == len(rays)
    assert set(rays) == extreme_rays_reference(rows, d)


def _affine_rank(points) -> int:
    rows = [[Fraction(x - y) for x, y in zip(p, points[0])] for p in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[x - r[col] / pivot[col] * y for x, y in zip(r, pivot)] for r in rows]
        rank += 1
    return rank


@st.composite
def _m_primary_points(draw):
    """n = 2-4, a pure power on each axis and up to 3 mixed points; as
    integers, or as Fractions over a common denominator 2-4."""
    n = draw(st.integers(2, 4))
    gens = draw(m_primary_exponent_sets(n, max_extra=3))
    den = draw(st.integers(1, 4))
    points = [tuple(Fraction(x, den) for x in g) for g in gens] if den > 1 else gens
    return n, gens, points


@given(_m_primary_points(), st.lists(st.integers(1, 7), min_size=4, max_size=4))
def test_facets_and_covolume_match_the_oracles(case, v):
    n, gens, points = case
    assert covolume(points, n) == covolume_reference(points, n)
    a = MonomialIdeal(n, gens)
    faces = facets(a.gens)
    for w, b, on in faces:
        assert all(x >= 0 for x in w)
        values = [sum(x * y for x, y in zip(w, g)) for g in a.gens]
        assert min(values) == b
        assert on == {i for i, value in enumerate(values) if value == b}
        # n affinely independent points of P(a) on the facet: its generators,
        # and one of them moved along each axis the facet is parallel to
        first = a.gens[min(on)]
        moved = [tuple(x + (j == i) for j, x in enumerate(first))
                 for i in range(n) if not w[i]]
        assert _affine_rank([a.gens[i] for i in on] + moved) == n - 1
    # the facets and the ray LP agree on where a ray enters P(a)
    v = v[:n]
    assert ray_entry(a, v) == max(
        Fraction(b, sum(x * y for x, y in zip(w, v))) for w, b, _ in faces
    )


def test_multiplicity_known_values():
    assert multiplicity_monomial(MonomialIdeal.parse("x^2, y^3")) == 6
    assert multiplicity_monomial(MonomialIdeal(2, [(3, 0), (1, 1), (0, 2)])) == 5
    assert multiplicity_monomial(MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 1


def test_multiplicity_of_powers_scales():
    a = MonomialIdeal.parse("x^2, y^3")
    assert multiplicity_monomial(_power(a, 2)) == 4 * 6


def test_multiplicity_requires_m_primary():
    with pytest.raises(ValueError, match="is not m-primary"):
        multiplicity_monomial(MonomialIdeal(2, [(1, 1)]))


def test_amgm_equality_on_equal_diagonals():
    for n, a in [(1, 3), (2, 4), (3, 2)]:
        gens = [tuple(a if j == i else 0 for j in range(n)) for i in range(n)]
        ideal = MonomialIdeal(n, gens)
        e = multiplicity_monomial(ideal)
        lct = lct_monomial(ideal)
        assert e * lct**n == n**n


def _amgm(a):
    return check_amgm(multiplicity_monomial(a), lct_monomial(a), a.n)


@given(m_primary_exponent_sets(2))
def test_amgm_random_2d(gens):
    assert _amgm(MonomialIdeal(2, gens))


@given(m_primary_exponent_sets(3, max_exp=4, max_extra=1))
def test_amgm_random_3d(gens):
    assert _amgm(MonomialIdeal(3, gens))
