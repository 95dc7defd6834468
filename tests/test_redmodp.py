from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from thresholds.redmodp import (
    EQUAL,
    FPT_LESS,
    BadReductionError,
    ComparisonRow,
    compare_at_prime,
    compare_diagonal,
    reduce_mod_p,
)
from thresholds.rings import Polynomial, Ring, parse_polynomial

Q2 = Ring.rationals(2)
CUSP = parse_polynomial("x^2 + y^3", Q2)


def test_reduce_mod_p_coefficients():
    f = parse_polynomial("x^2 + 7*y", Q2)
    g = reduce_mod_p(f, 7)
    assert g.terms == {(2, 0): 1}
    h = Polynomial(Q2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3)})
    r = reduce_mod_p(h, 5)
    # 1/2 = 3 mod 5
    assert r.terms == {(1, 0): 3, (0, 1): 3}


def test_reduce_mod_p_errors():
    f = Polynomial(Q2, {(1, 0): Fraction(1, 5)})
    with pytest.raises(BadReductionError):
        reduce_mod_p(f, 5)
    with pytest.raises(ValueError):
        reduce_mod_p(f, 6)
    fp = parse_polynomial("x", Ring.prime_field(2, 5))
    with pytest.raises(ValueError):
        reduce_mod_p(fp, 5)


@given(st.integers(-20, 20), st.integers(1, 20))
def test_reduce_mod_p_is_ring_map_on_samples(num, den):
    c = Fraction(num, den)
    if den % 7 == 0:
        return
    f = Polynomial(Q2, {(1, 1): c} if c else {})
    g = Polynomial(Q2, {(1, 1): Fraction(1, 3)})
    assert reduce_mod_p(f * g, 7) == reduce_mod_p(f, 7) * reduce_mod_p(g, 7)
    assert reduce_mod_p(f + g, 7) == reduce_mod_p(f, 7) + reduce_mod_p(g, 7)


def test_cusp_comparison_rows():
    lct0 = Fraction(5, 6)
    rows = compare_diagonal(CUSP, (5, 7, 11, 13, 31, 37), e_max=4)
    assert [row.p for row in rows] == [5, 7, 11, 13, 31, 37]
    for row in rows:
        assert row.fpt.hi <= lct0
        assert row.residue == row.p % 6
        if row.p % 3 == 1:
            assert row.relation == EQUAL
            assert row.fpt.value == lct0
        else:
            assert row.relation == FPT_LESS
            # the gap is exactly 1/(6p) for these primes
            assert row.fpt.contains(lct0 - Fraction(1, 6 * row.p))


def test_cusp_gap_is_zero_or_one_sixth_p():
    for row in compare_diagonal(CUSP, (5, 7, 11, 13), e_max=4):
        gap = Fraction(5, 6) - (row.fpt.value if row.fpt.is_exact else row.fpt.lo)
        assert gap == 0 or abs(gap - Fraction(1, 6 * row.p)) <= row.fpt.width()


def test_compare_diagonal_congruence():
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    rows = compare_diagonal(CUSP, primes)
    assert all(isinstance(r, ComparisonRow) for r in rows)
    assert {r.p for r in rows} == {p for p in primes if p not in (2, 3)}
    for r in rows:
        assert r.lct0 == Fraction(5, 6)
        assert r.fpt.hi <= r.lct0
        assert (r.relation == EQUAL) == (r.p % 6 == 1)


def test_compare_diagonal_three_variables():
    rows = compare_diagonal(
        parse_polynomial("x^2 + y^2 + z^2", Ring.rationals(3)), [5, 7, 17], e_max=2)
    for r in rows:
        assert r.lct0 == 1
        assert r.fpt.hi <= 1
        if r.p % 8 == 1:
            assert r.relation == EQUAL


def test_compare_diagonal_skips_bad_primes():
    rows = compare_diagonal(CUSP, [2, 3, 5])
    assert [r.p for r in rows] == [5]


@pytest.mark.parametrize("text", ["0", "x*y", "2*x^2 + y^3", "x^2 + x^3", "x^2 + 1"])
def test_compare_diagonal_reads_only_a_diagonal(text):
    with pytest.raises(ValueError, match="compare expects a diagonal"):
        compare_diagonal(parse_polynomial(text, Q2), [5])


def test_compare_diagonal_needs_rational_coefficients():
    with pytest.raises(ValueError, match="already in characteristic p"):
        compare_diagonal(parse_polynomial("x^2 + y^3", Ring.prime_field(2, 7)), [7])


def test_lower_bound_never_exceeds_lct0():
    # a wrong characteristic-zero value must be caught, not silently clamped
    f = parse_polynomial("x^2 + y^3", Q2)
    with pytest.raises(AssertionError):
        compare_at_prime(f, 7, Fraction(1, 2), e_max=4)
