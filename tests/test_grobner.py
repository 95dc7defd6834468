from itertools import combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import oracles
from helpers import ideal_members, nonzero_polynomials, polynomials
from oracles import (
    grevlex_key_reference,
    groebner_basis_reference,
    normal_form_reference,
)
from thresholds import grobner, rings
from thresholds.grobner import (
    PolyIdeal,
    _leading,
    groebner_basis,
    ideal_power,
    normal_form,
)
from thresholds.rings import (
    BudgetExceededError,
    Polynomial,
    Ring,
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
    from thresholds.grobner import _divides

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
            with pytest.raises(ValueError, match="ring mismatch"):
                ideal.member(f)
        with pytest.raises(ValueError, match="ring mismatch"):
            ideal.contains(PolyIdeal(x3))


def test_equal_rejects_an_ideal_from_another_ring():
    # x over F_5[x,y] against x over F_5[x,y,z]: not unequal, incomparable
    with pytest.raises(ValueError, match="ring mismatch"):
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
    monkeypatch.setattr(rings, "DEFAULT_PRODUCT_BUDGET", 20)
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


@st.composite
def _small_ideals(draw):
    """1-4 generators of up to 4 terms in 2-3 variables over F_2 ... F_7,
    and a polynomial to reduce."""
    ring = Ring.prime_field(draw(st.integers(2, 3)),
                            draw(st.sampled_from([2, 3, 5, 7])))
    gens = draw(st.lists(nonzero_polynomials(ring, max_terms=4, max_exp=3),
                         min_size=1, max_size=4))
    return gens, draw(polynomials(ring, max_terms=5, max_exp=4))


def _counting(fn, calls):
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


def _normal_form_calls(gens):
    """The basis from groebner_basis, and the normal_form calls it and the
    reference make, after checking that both give that reduced basis."""
    ours, theirs = [], []
    with mock.patch.object(grobner, "normal_form",
                           _counting(grobner.normal_form, ours)):
        basis = groebner_basis(gens)
    with mock.patch.object(oracles, "normal_form_reference",
                           _counting(oracles.normal_form_reference, theirs)):
        assert groebner_basis_reference(gens) == basis
    return basis, len(ours), len(theirs)


@given(_small_ideals())
def test_groebner_kernels_match_the_reference(case):
    # a reduced basis is unique, so the two Buchbergers agree exactly; the
    # loop drops coprime pairs where they are formed, so the chain criterion
    # can skip a reduction that the reference makes, and none is added
    gens, f = case
    basis, ours, theirs = _normal_form_calls(gens)
    assert ours <= theirs
    assert normal_form(f, basis) == normal_form_reference(f, basis)
    assert normal_form(f, gens) == normal_form_reference(f, gens)


@given(_small_ideals(), st.integers(1, 6))
def test_a_constant_generator_gives_the_unit_ideal(case, c):
    gens, _ = case
    ring = gens[0].ring
    gens = gens + [Polynomial.constant(ring, 1 + c % (ring.p - 1))]
    assert groebner_basis(gens) == groebner_basis_reference(gens) == (
        Polynomial.one(ring),)


def test_buchberger_stops_at_the_unit_ideal():
    # the S-polynomial of (3, 2) reduces to a nonzero constant, so the four
    # pairs still pending are never taken; the reference takes all six
    F2 = Ring.prime_field(2, 2)
    gens = [P(g, F2) for g in ["x^3*y^3 + y^2", "x^3*y^3 + x^3*y + y^3", "y^2 + 1"]]
    calls = []
    with mock.patch.object(grobner, "_chain_criterion",
                           _counting(grobner._chain_criterion, calls)):
        assert groebner_basis(gens) == (Polynomial.one(F2),)
    assert [(i, j) for _, _, i, j, _ in calls] == [(2, 1), (3, 2)]
    assert groebner_basis_reference(gens) == (Polynomial.one(F2),)


def test_coprime_pairs_never_reach_the_chain_criterion():
    # the S-polynomial of the two generators leaves y^2 + x, whose leading
    # term is coprime to x^2, so that pair never becomes pending; the chain
    # criterion (through x^2) then drops the pair of y^2 + x and
    # x^2*y^2 + x^3, which the reference, still holding the coprime pair,
    # reduces
    F2 = Ring.prime_field(2, 2)
    gens = [P("x^2 + 1", F2), P("x^2*y^2 + x^3", F2)]
    assert _normal_form_calls(gens)[1:] == (3, 4)


@example(P("x^3 + x*y^2 + y^3 + x^2*y + x + y + 1"))
@given(nonzero_polynomials(Ring.prime_field(3, 5), max_terms=12, max_exp=3))
def test_leading_term_is_the_grevlex_maximum(f):
    lead = max(f.terms, key=grevlex_key_reference)
    assert _leading(f) == (lead, f.terms[lead])
    for exp in f.terms:
        assert grobner.grevlex_key(exp) == grevlex_key_reference(exp)


def test_normal_form_multiplies_no_polynomials(monkeypatch):
    basis = groebner_basis([P("x^2 - y"), P("x*y - 1")])
    f = P("x^5*y^2 + 3*x*y^4 - y")
    expected = normal_form_reference(f, basis)
    assert expected != f
    calls = []
    monkeypatch.setattr(Polynomial, "mul", _counting(Polynomial.mul, calls))
    assert normal_form(f, basis) == expected
    assert calls == []


@pytest.mark.parametrize("ring, gens, order", [
    # the unit ideal: (3, 2) leaves a constant and ends the loop
    (Ring.prime_field(2, 2), ["x^3*y^3 + y^2", "x^3*y^3 + x^3*y + y^3", "y^2 + 1"],
     [(2, 1), (3, 2)]),
    (Ring.prime_field(3, 3), ["x^3*y*z^3 + y^2", "2*x^3*y^2*z^3 + x*y^3 + x^2"],
     [(1, 0), (2, 1), (3, 0), (4, 2), (2, 0), (3, 1), (4, 1), (4, 0), (3, 2),
      (4, 3)]),
    (Ring.prime_field(3, 5),
     ["x*y^2*z", "3*x^3*y^3*z^3 + 4*x^2*y*z^2 + x^3*y", "y^3*z + z"],
     [(2, 0), (3, 0), (3, 2), (3, 1), (4, 3), (4, 0), (4, 2), (4, 1), (2, 1),
      (1, 0)]),
    (Ring.prime_field(2, 2), ["x^2*y^2 + y^2", "x^3 + x*y + y^2", "x*y^2 + y^2"],
     [(2, 0), (2, 1), (3, 2), (1, 0), (3, 0)]),
])
def test_normal_selection_takes_the_newest_pair_on_a_tie(ring, gens, order):
    # the pairs in the order the chain criterion sees them: the smallest
    # lcm first, and among equal lcms the pair formed last; taking the
    # oldest pair on a tie changes each of these sequences
    calls = []
    with mock.patch.object(grobner, "_chain_criterion",
                           _counting(grobner._chain_criterion, calls)):
        groebner_basis([P(g, ring) for g in gens])
    assert [(i, j) for _, _, i, j, _ in calls] == order
