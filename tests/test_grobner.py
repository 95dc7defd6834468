from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, strategies as st

from helpers import ideal_members, nonzero_polynomials, polynomials
from thresholds import frobenius
from thresholds.grobner import (
    PolyIdeal,
    groebner_basis,
    ideal_power,
    normal_form,
)
from thresholds.rings import (
    BudgetExceededError,
    Polynomial,
    Ring,
    RingMismatchError,
    parse_polynomial,
)
from thresholds.testideal import ascending_chain

F5 = Ring.prime_field(2, 5)
F7 = Ring.prime_field(2, 7)


def P(text, ring=F5):
    return parse_polynomial(text, ring)


def test_normal_form_reduces_leading_terms():
    r = normal_form(P("x^2*y + x"), [P("x^2 - y")])
    assert r == P("y^2 + x")


def test_normal_form_zero_for_members():
    gens = [P("x^2 - y"), P("x*y - 1")]
    gb = groebner_basis(gens)
    f = P("x^3") * gens[0] + P("y + 2") * gens[1]
    assert normal_form(f, gb).is_zero()


@given(polynomials(F5, max_terms=3, max_exp=3))
def test_normal_form_idempotent(f):
    basis = groebner_basis([P("x^2 - y"), P("y^3 - x")])
    r = normal_form(f, basis)
    assert normal_form(r, basis) == r


def test_groebner_basis_is_reduced_and_monic():
    gb = groebner_basis([P("x^2 + y^2"), P("x*y + x")])
    from thresholds.grobner import _divides, _leading

    leads = [_leading(g)[0] for g in gb]
    for i, g in enumerate(gb):
        assert _leading(g)[1] == 1
        for j, lead in enumerate(leads):
            if i != j:
                assert not any(_divides(lead, exp) for exp in g.terms)


def test_groebner_independent_of_generator_order():
    gens = [P("x^2 - y"), P("x*y - 1"), P("y^2 - x")]
    assert groebner_basis(gens) == groebner_basis(gens[::-1])


def test_buchberger_nontrivial_s_polynomials():
    # twisted cubic-style relations force genuinely new basis members
    gens = [P("x^2 - y"), P("y^2 - x")]
    I = PolyIdeal(gens)
    assert I.member(P("x^4 - x"))
    assert not I.member(P("x"))
    assert not I.member(P("x^2"))


@given(ideal_members([parse_polynomial("x^2 - y", F5),
                      parse_polynomial("x*y - 1", F5)]))
def test_member_accepts_random_combinations(f):
    I = PolyIdeal([P("x^2 - y"), P("x*y - 1")])
    assert I.member(f)


def test_member_zero_and_one():
    I = PolyIdeal([P("x^2"), P("y")])
    assert I.member(Polynomial.zero(F5))
    assert not I.member(Polynomial.one(F5))
    J = PolyIdeal([P("x + 1"), P("x")])
    assert J.member(Polynomial.one(F5))


def test_member_rejects_a_polynomial_from_another_ring():
    x3 = P("x", Ring.prime_field(3, 5))
    x7 = P("x", F7)
    # the monomial path and the Groebner path
    for ideal in (PolyIdeal(P("x")), PolyIdeal(P("x + y^2"))):
        for f in (x3, x7):
            with pytest.raises(RingMismatchError):
                ideal.member(f)
        with pytest.raises(RingMismatchError):
            ideal.contains(PolyIdeal(x3))


def test_equal_rejects_an_ideal_from_another_ring():
    # x over F_5[x,y] against x over F_5[x,y,z]: not unequal, incomparable
    with pytest.raises(RingMismatchError):
        PolyIdeal(P("x")).equal(PolyIdeal(P("x", Ring.prime_field(3, 5))))


def test_equality_of_different_generating_sets():
    I = PolyIdeal([P("x"), P("y")])
    J = PolyIdeal([P("x + y"), P("x - y")])
    assert I.equal(J)
    K = PolyIdeal([P("x + y"), P("x*y")])
    assert not I.equal(K)


def test_containment_partial_order():
    I = PolyIdeal([P("x^2"), P("y^2")])
    J = PolyIdeal([P("x"), P("y")])
    K = PolyIdeal([P("x")])
    assert J.contains(I) and not I.contains(J)
    assert J.contains(K)
    assert I.contains(I)
    # transitivity on this triple
    L = PolyIdeal([P("x^2")])
    assert J.contains(I) and I.contains(L) and J.contains(L)


def _terms(exps_and_coeffs):
    return [Polynomial(F5, {e: c}) for e, c in exps_and_coeffs]


monomial_gens = st.lists(
    st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(1, 4)),
    min_size=1, max_size=5,
).map(_terms)


@example([P("x^3"), P("x*y"), P("y^2")],
         [P("x^2*y"), P("x^2"), P("y^3"), P("x^3 + y^2")],
         [P("x^3"), P("y^2"), P("x*y"), P("x^4")])
@given(monomial_gens, st.lists(polynomials(F5, max_terms=3, max_exp=5), max_size=4),
       monomial_gens)
def test_monomial_bypass_matches_general_path(gens, probe, other_gens):
    I, J = PolyIdeal(gens), PolyIdeal(other_gens)
    assert I.monomial is not None and J.monomial is not None
    general = groebner_basis(gens)
    assert I.groebner() == general
    for f in probe + list(other_gens):
        assert I.member(f) == normal_form(f, general).is_zero()
    assert I.equal(J) == (general == groebner_basis(other_gens))


def test_product_ideal():
    I = PolyIdeal([P("x")])
    J = PolyIdeal([P("y"), P("x + y")])
    IJ = I.product(J)
    assert IJ.member(P("x*y"))
    assert not IJ.member(P("x"))


def test_ideal_power_small_oracle():
    gens = [P("x"), P("y")]
    sq = ideal_power(gens, 2)
    assert PolyIdeal(sq).equal(PolyIdeal([P("x^2"), P("x*y"), P("y^2")]))
    with pytest.raises(ValueError):
        ideal_power(gens, 0)


def _power_by_combinations(gens, r):
    """Oracle: every multiset of r generators multiplied out from scratch."""
    out = []
    for combo in combinations_with_replacement(gens, r):
        prod = combo[0]
        for g in combo[1:]:
            prod = prod * g
        out.append(prod)
    return out


def _monic(f):
    lead = max(f.terms)
    return f.scale(f.ring.coeff_inv(f.terms[lead]))


@st.composite
def _power_cases(draw):
    ring = Ring.prime_field(2, draw(st.sampled_from([2, 3, 5])))
    gens = draw(st.lists(nonzero_polynomials(ring, max_terms=2, max_exp=2),
                         min_size=1, max_size=3))
    return gens, draw(st.integers(1, 5))


@given(_power_cases())
def test_ideal_power_matches_combinations(case):
    gens, r = case
    oracle = _power_by_combinations(gens, r)
    power = ideal_power(gens, r)
    # one monic product per distinct multiset product, and the same ideal
    assert len(set(power)) == len(power)
    assert set(power) == {_monic(f) for f in oracle}
    assert PolyIdeal(power).equal(PolyIdeal(oracle))


def test_product_budget_caps_ideal_power(monkeypatch):
    gens = [P("x^2 + y"), P("y^3 + x*y")]
    assert len(ideal_power(gens, 4)) == 5
    monkeypatch.setattr(frobenius, "DEFAULT_PRODUCT_BUDGET", 20)
    with pytest.raises(BudgetExceededError):
        ideal_power(gens, 4)
    with pytest.raises(BudgetExceededError):
        list(ascending_chain(gens, 1, 2))


@given(nonzero_polynomials(F7, max_terms=2, max_exp=2),
       nonzero_polynomials(F7, max_terms=2, max_exp=2))
def test_groebner_contains_products(f, g):
    I = PolyIdeal([f, g])
    assert I.member(f * g)
    assert I.member(f + g)
