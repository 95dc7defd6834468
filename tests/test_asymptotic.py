from fractions import Fraction
from itertools import product
from math import ceil

import pytest
from hypothesis import given, strategies as st

from thresholds.asymptotic import (
    GOLDEN_HI,
    GOLDEN_LO,
    HyperbolaQ,
    PolyhedralQ,
    PowersOf,
    arn_asym,
    estimate_arn,
    golden_ratio_demo,
    sqrt_enclosure,
    val_asym,
)
from helpers import within_seconds
from oracles import ray_entry_dual
from thresholds.lp import OPTIMAL, solve_lp
from thresholds.newton import MonomialIdeal, _lower_hull, lct_monomial
from thresholds.rings import BudgetExceededError


@given(st.fractions(min_value=0, max_value=10**6), st.integers(5, 25))
def test_sqrt_enclosure_property(x, digits):
    lo, hi = sqrt_enclosure(x, digits)
    assert lo * lo <= x <= hi * hi
    assert hi - lo <= Fraction(2, 10**digits)


def test_sqrt_enclosure_exact_squares():
    lo, hi = sqrt_enclosure(49)
    assert lo == 7
    with pytest.raises(ValueError):
        sqrt_enclosure(-1)


def test_golden_constants():
    assert GOLDEN_LO < GOLDEN_HI
    # x satisfies x^2 + x - 1 = 0
    assert GOLDEN_LO**2 + GOLDEN_LO - 1 < 0 < GOLDEN_HI**2 + GOLDEN_HI - 1


def test_powers_of_constancy():
    seq = PowersOf(MonomialIdeal.parse("x^2, y^3"))
    lo, hi = seq.arn_limit()
    assert lo == hi == Fraction(6, 5)
    for m in (1, 2, 5, 8):
        assert arn_asym(seq, m) == lo
        assert val_asym(seq, (1, 1), m) == Fraction(2)


def _brute_region_ideal(pred, bound):
    gens = [
        (u1, u2)
        for u1 in range(bound + 1)
        for u2 in range(bound + 1)
        if pred(u1, u2)
    ]
    return MonomialIdeal(2, gens)


def test_polyhedral_ideal_matches_bruteforce():
    # Q = {u >= 0 : 2 u1 + u2 >= 2, u1 + 3 u2 >= 3}
    seq = PolyhedralQ([(2, 1), (1, 3)], [2, 3])
    for m in (1, 2, 3, 5):
        brute = _brute_region_ideal(
            lambda a, b: 2 * a + b >= 2 * m and a + 3 * b >= 3 * m, 4 * m
        )
        assert seq.ideal(m).gens == brute.gens


def test_polyhedral_limits():
    seq = PolyhedralQ([(2, 1), (1, 3)], [2, 3])
    lo, hi = seq.arn_limit()
    assert lo == hi == max(Fraction(2, 3), Fraction(3, 4))
    vlo, vhi = seq.val_limit((1, 1))
    assert vlo == vhi
    # the normalized samples must approach the limit from above
    est = estimate_arn(seq, 64, start=4)
    assert all(v >= lo for _, v in est.samples)
    assert est.last() - lo <= Fraction(1, 64)


def test_polyhedral_validation():
    with pytest.raises(ValueError):
        PolyhedralQ([(1, -1)], [1])
    with pytest.raises(ValueError):
        PolyhedralQ([(1, 1)], [0])
    with pytest.raises(ValueError):
        PolyhedralQ([], [])
    with pytest.raises(ValueError, match="zero row"):
        PolyhedralQ([(1, 2), (0, 0)], [1, 1])  # Q empty: no ideal, no limit
    seq = PolyhedralQ([(1, 2), (2, 1)], [1, 1])
    for v in ((-1, 1), (1, 1, 1)):
        with pytest.raises(ValueError):
            seq.val_limit(v)  # unbounded below, or the wrong dimension


def test_polyhedral_ideal_rejects_m_below_1():
    seq = PolyhedralQ([(2, 1), (1, 3)], [2, 3])
    for m in (0, -1):
        with pytest.raises(ValueError, match="m must be >= 1"):
            seq.ideal(m)  # m = 0 would be the unit ideal; arn_asym divides by 0

@st.composite
def _region_and_weight(draw):
    """Q = {u >= 0 : C u >= b} in 1-3 variables with 1-4 nonzero rows C >= 0
    and b > 0, integer and fractional, and a weight v >= 0."""
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.integers(0, 4), st.fractions(0, 4, max_denominator=3))
    row = st.lists(entry, min_size=n, max_size=n).filter(any)
    C = draw(st.lists(row, min_size=1, max_size=4))
    rhs = st.one_of(st.integers(1, 5), st.fractions(Fraction(1, 3), 5, max_denominator=3))
    b = draw(st.lists(rhs, min_size=len(C), max_size=len(C)))
    return C, b, draw(st.lists(entry, min_size=n, max_size=n))


@given(_region_and_weight(), st.integers(1, 4))
def test_polyhedral_ideal_matches_the_box_scan(region, m):
    # every coordinate of a minimal generator is at most max_i ceil(m*b_i/c_ij)
    # over the rows with c_ij > 0, so the box of those sides holds them all
    C, b, _ = region
    n = len(C[0])
    sides = [max((ceil(m * bb / Fraction(row[j])) for row, bb in zip(C, b) if row[j]),
                 default=0) + 1 for j in range(n)]
    points = [u for u in product(*map(range, sides))
              if all(sum(Fraction(x) * y for x, y in zip(row, u)) >= m * bb
                     for row, bb in zip(C, b))]
    assert PolyhedralQ(C, b).ideal(m) == MonomialIdeal(n, points)


@given(_region_and_weight())
def test_val_limit_from_vertices_matches_the_lp(region):
    C, b, v = region
    res = solve_lp(v, [[-x for x in row] for row in C], [-x for x in b])
    assert res.status == OPTIMAL
    assert PolyhedralQ(C, b).val_limit(v) == (res.objective, res.objective)


def test_polyhedral_staircase_ends_where_u2_stops_moving():
    # a row with c1 = 0 binds for every u1, so u2 never reaches 0
    with within_seconds(5):
        for m in (1, 2, 5):
            assert PolyhedralQ([(0, 1)], [1]).ideal(m).gens == ((0, m),)
            square = PolyhedralQ([(1, 0), (0, 1)], [1, 1])
            assert square.ideal(m).gens == ((m, m),)
        # the last column, 10^8, is known before the first: the guard fires
        # at once instead of after ten million columns
        with pytest.raises(RuntimeError, match="runaway enumeration"):
            PolyhedralQ([(Fraction(1, 10**8), 1)], [1]).ideal(1)


def test_box_budget_caps_the_polyhedral_enumeration(monkeypatch):
    square = PolyhedralQ([(1, 0), (0, 1)], [1, 1])
    monkeypatch.setenv("THRESHOLDS_BUDGET", "5")
    assert square.ideal(5).gens == ((5, 5),)  # the last column is 5
    with pytest.raises(BudgetExceededError, match="runaway enumeration"):
        square.ideal(6)


def test_hyperbola_ideal_matches_bruteforce():
    seq = HyperbolaQ()
    for m in (1, 2, 3, 7, 12):
        brute = _brute_region_ideal(lambda a, b: (a + m) * b >= m * m, m * m)
        assert MonomialIdeal(2, list(seq.ideal(m).gens)).gens == brute.gens


@given(st.integers(1, 40), st.integers(1, 40))
def test_graded_sequence_property(m, l):
    # a_m * a_l contained in a_{m+l}
    seq = HyperbolaQ()
    am, al, aml = seq.ideal(m), seq.ideal(l), seq.ideal(m + l)
    for u in am.gens[:: max(1, len(am.gens) // 4)]:
        for v in al.gens[:: max(1, len(al.gens) // 4)]:
            w = (u[0] + v[0], u[1] + v[1])
            assert (w[0] + m + l) * w[1] >= (m + l) ** 2


def test_lower_hull_drops_interior_points():
    pts = [(0, 4), (1, 2), (2, 1), (4, 0), (1, 3), (3, 1)]
    assert _lower_hull(pts) == [(0, 4), (1, 2), (2, 1), (4, 0)]


def test_hull_reduction_preserves_diagonal_invariant():
    seq = HyperbolaQ()
    for m in (5, 9, 16):
        a = seq.ideal(m)
        # the hull shortcut in arn_asym must agree with the full generator set
        assert arn_asym(seq, m) == ray_entry_dual(a, (1, 1)) / m
        # and with the reciprocal of the log canonical threshold
        assert arn_asym(seq, m) == 1 / lct_monomial(MonomialIdeal(2, list(a.gens))) / m


def test_hyperbola_val_limit_cases():
    seq = HyperbolaQ()
    lo, hi = seq.val_limit((3, 1))  # beta < alpha: minimum on the u2-axis
    assert lo == hi == 1
    lo, hi = seq.val_limit((1, 1))  # 2*sqrt(1) - 1 = 1 exactly
    assert lo <= 1 <= hi and hi - lo < Fraction(1, 10**20)
    with pytest.raises(ValueError):
        seq.val_limit((-1, 1))


def test_val_asym_hyperbola_converges():
    seq = HyperbolaQ()
    samples = [val_asym(seq, (1, 1), m) for m in (64, 128, 256)]
    assert all(abs(v - 1) <= Fraction(2, 64) for v in samples)
    assert abs(samples[-1] - 1) <= Fraction(2, 256)


def test_golden_ratio_demo_small():
    est = golden_ratio_demo(256)
    assert est.samples[0][0] == 16
    assert est.limit_lo == GOLDEN_LO and est.limit_hi == GOLDEN_HI
    # samples decrease toward the limit
    values = [v for _, v in est.samples]
    assert values == sorted(values, reverse=True)
    assert est.last() - GOLDEN_HI <= Fraction(1, 256)


def test_estimate_arn_rejects_range_below_start():
    with pytest.raises(ValueError, match="m_max"):
        estimate_arn(HyperbolaQ(), 15)
