from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import diagonal_fpt_by_congruence
from thresholds import frobenius
from thresholds.lct0 import thom_sebastiani_orders
from thresholds.redmodp import (
    EQUAL,
    FPT_LESS,
    INCONCLUSIVE,
    ComparisonRow,
    compare_at_prime,
    compare,
    reduce_mod_p,
)
from thresholds.rings import (
    Polynomial,
    Ring,
    infer_ring,
    parse_polynomial,
    product_sweep,
)

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
    with pytest.raises(ValueError, match="denominator of 1/5 vanishes mod 5"):
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
    rows = compare(CUSP, (5, 7, 11, 13, 31, 37))
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


def test_compare_sweeps_each_level_once(monkeypatch):
    calls = []

    def counting_sweep(*args):
        calls.append(args[1])
        return product_sweep(*args)

    monkeypatch.setattr(frobenius, "product_sweep", counting_sweep)
    # the cusp times a unit, so no Thom-Sebastiani sum: the levels are swept
    f = parse_polynomial("x^2 + x^2*y + y^3", Q2)
    row = compare_at_prime(f, 7, Fraction(5, 6))
    assert not row.fpt.is_exact  # no level decides, so all three are read
    assert calls == [7, 49, 343]


def test_cusp_gap_is_zero_or_one_sixth_p():
    for row in compare(CUSP, (5, 7, 11, 13)):
        gap = Fraction(5, 6) - (row.fpt.value if row.fpt.is_exact else row.fpt.lo)
        assert gap == 0 or abs(gap - Fraction(1, 6 * row.p)) <= row.fpt.width()


def test_compare_diagonal_congruence():
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    rows = compare(CUSP, primes)
    assert all(isinstance(r, ComparisonRow) for r in rows)
    assert {r.p for r in rows} == {p for p in primes if p not in (2, 3)}
    for r in rows:
        assert r.lct0 == Fraction(5, 6)
        assert r.fpt.hi <= r.lct0
        assert (r.relation == EQUAL) == (r.p % 6 == 1)


def test_compare_diagonal_three_variables():
    rows = compare(
        parse_polynomial("x^2 + y^2 + z^2", Ring.rationals(3)), [5, 7, 17])
    for r in rows:
        assert r.lct0 == 1
        assert r.fpt.hi <= 1
        if r.p % 8 == 1:
            assert r.relation == EQUAL


def test_compare_diagonal_skips_bad_primes():
    rows = compare(CUSP, [2, 3, 5])
    assert [r.p for r in rows] == [5]


@pytest.mark.parametrize("text", ["0", "x^2 + 1", "x^2*y + x*y^2"])
def test_compare_diagonal_reads_only_a_diagonal(text):
    # a rule must give lct0, and f must vanish at the origin
    with pytest.raises(ValueError, match="no rule gives|does not vanish"):
        compare(parse_polynomial(text, Q2), [5])


_ANSWERED = {  # text: (primes kept of 2, 3, 5, 7, lct0, diagonal)
    "x*y": ([2, 3, 5, 7], 1, False),
    "2*x^2 + y^3": ([5, 7], Fraction(5, 6), True),
    "x^2 + x^3": ([3, 5, 7], Fraction(1, 2), False),
}


@pytest.mark.parametrize("text", _ANSWERED)
def test_compare_takes_what_a_rule_answers(text):
    # primes that divide a coefficient or a part's k are skipped
    primes, lct0, diagonal = _ANSWERED[text]
    rows = compare(parse_polynomial(text, Q2), [2, 3, 5, 7])
    assert [r.p for r in rows] == primes
    for r in rows:
        assert r.lct0 == lct0 and r.fpt.hi <= lct0
        assert r.residue == (r.p % 6 if diagonal else None)


_DIAGONALS = ["x^2 + y^3", "x^2 + y^4", "x^3 + y^3", "x^3 + y^4", "x^4 + y^3",
              "x^4 + y^4", "x^2 + y^3 + z^5", "2*x^2 + y^3 + 3*z^7"]


@pytest.mark.parametrize("text", _DIAGONALS)
def test_congruence_oracle_agrees_with_every_equal_row(text):
    # every row of a diagonal is exact now, and each at p = 1 mod prod(a_i)
    # is the EQUAL that the congruence shortcut gave
    f = parse_polynomial(text, infer_ring(text))
    exponents = thom_sebastiani_orders(f)
    rows = compare(f, [p for p in range(2, 200) if all(p % d for d in range(2, p))])
    assert rows and all(r.fpt.is_exact and r.relation != INCONCLUSIVE for r in rows)
    congruent = [r for r in rows if r.residue == 1]
    assert congruent
    for r in congruent:
        assert r.relation == EQUAL
        assert r.fpt.value == r.lct0 == diagonal_fpt_by_congruence(exponents, r.p)


def test_compare_diagonal_needs_rational_coefficients():
    with pytest.raises(ValueError, match="already in characteristic p"):
        compare(parse_polynomial("x^2 + y^3", Ring.prime_field(2, 7)), [7])


def test_lower_bound_never_exceeds_lct0():
    # a wrong characteristic-zero value must be caught, not silently clamped
    f = parse_polynomial("x^2 + y^3", Q2)
    with pytest.raises(AssertionError):
        compare_at_prime(f, 7, Fraction(1, 2))


@pytest.mark.parametrize("text", ["x^3 + y^4", "x^2 + y^3 + z^7", "x^2*y^3 + z^5",
                                  "x^3 + y^3 + z^3"])
def test_compare_reads_no_level_of_a_thom_sebastiani_sum(monkeypatch, text):
    # every row is decided before a nu level is read, so no level cap matters
    def no_level(*args, **kwargs):
        raise AssertionError("compare read a nu level")

    monkeypatch.setattr(frobenius, "_levels", no_level)
    f = parse_polynomial(text, infer_ring(text))
    rows = compare(f, [p for p in range(2, 60) if all(p % d for d in range(2, p))])
    method = "cubic-cone" if text == "x^3 + y^3 + z^3" else "digits"
    assert rows and all(r.fpt.is_exact and r.fpt.method == method for r in rows)
