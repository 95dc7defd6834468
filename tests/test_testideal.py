from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    frobenius_level,
    m_primary_exponent_sets,
    monomial_exponent_sets,
    nonzero_polynomials,
    origin_polynomials,
    within_seconds,
)
from oracles import frobenius_bracket_power, tau_by_ray_entry, tau_principal_reference
from thresholds import newton, testideal
from thresholds.frobenius import fpt_enclosure, nu
from thresholds.grobner import PolyIdeal
from thresholds.newton import MonomialIdeal
from thresholds.rings import Polynomial, Ring, parse_polynomial
from thresholds.testideal import (
    ascending_chain,
    check_p_scaling,
    check_skoda,
    fjump_scan,
    frobenius_root,
    tau,
    tau_monomial,
)

F2 = Ring.prime_field(2, 2)
F3 = Ring.prime_field(2, 3)
F5 = Ring.prime_field(2, 5)
F7 = Ring.prime_field(2, 7)


def P(text, ring=F5):
    return parse_polynomial(text, ring)


def _mono(ring, exp):
    return Polynomial(ring, {exp: 1})


def test_frobenius_root_monomial_floor():
    # (x^3)^[1/2] = (x): (x^2)^[2] = (x^4) does not contain x^3, (x)^[2] does
    root = frobenius_root([P("x^3", F2)], 1)
    assert root.equal(PolyIdeal([P("x", F2)]))
    root = frobenius_root([P("x^4*y^7", F2)], 2)
    assert root.equal(PolyIdeal([P("x*y", F2)]))


def test_frobenius_root_polynomial_decomposition():
    # x^2 + y^3 over F_2, e=1: x^2 = (x)^2, y^3 = (y)^2 * y
    root = frobenius_root([P("x^2 + y^3", F2)], 1)
    assert root.equal(PolyIdeal([P("x", F2), P("y", F2)]))


def test_frobenius_root_e_zero_is_identity():
    gens = [P("x^2 + y^3")]
    assert frobenius_root(gens, 0).equal(PolyIdeal(gens))


@given(nonzero_polynomials(F2, max_terms=3, max_exp=5), st.integers(1, 2))
def test_root_containment_and_minimality(g, e):
    root = frobenius_root([g], e)
    bracket = frobenius_bracket_power(root, e)
    assert bracket.member(g)
    # minimality against a sampled family: dropping any root generator
    # must break containment
    if len(root.gens) > 1:
        for i in range(len(root.gens)):
            smaller = PolyIdeal(list(root.gens[:i]) + list(root.gens[i + 1:]))
            if not smaller.equal(root):
                assert not frobenius_bracket_power(smaller, e).member(g)


@given(nonzero_polynomials(F2, max_terms=3, max_exp=7))
def test_root_composition(g):
    two_steps = frobenius_root(frobenius_root([g], 1), 1)
    assert two_steps.equal(frobenius_root([g], 2))


def test_ascending_chain_ascends_and_can_plateau():
    f = P("x^2+y^3", F5)
    chain = list(ascending_chain([f], Fraction(23, 30), 4))
    for a, b in zip(chain, chain[1:]):
        assert b.contains(a)
    # the chain genuinely plateaus before jumping, so one equality is
    # not a stabilization certificate
    assert chain[0].equal(chain[1])
    assert not chain[1].equal(chain[2])


def test_chain_tau_stops_at_the_unit_ideal(monkeypatch):
    # level 1 is already (1); forming a^122 for level 5 would exhaust the
    # product budget
    a = [P("x^2 + y^3", F3), P("x^3 + y^2", F3)]
    powers = []
    ideal_power = testideal.ideal_power
    monkeypatch.setattr(testideal, "ideal_power",
                        lambda gens, r: powers.append(r) or ideal_power(gens, r))
    res = tau(a, Fraction(1, 2))
    assert res.stabilized and res.e_used == 1
    assert res.ideal.member(Polynomial.one(F3))
    assert powers == [2]


def test_tau_zero_lambda_is_unit():
    res = tau([P("x^2+y^3")], 0)
    assert res.ideal.member(Polynomial.one(F5))
    assert res.stabilized


def test_tau_monomial_formula():
    a = MonomialIdeal.parse("x^2, y^3")
    assert tau_monomial(a, Fraction(1, 2)).gens == ((0, 0),)
    assert tau_monomial(a, Fraction(5, 6)).gens == ((0, 1), (1, 0))
    assert tau_monomial(a, 1).gens == ((0, 1), (1, 0))
    assert tau_monomial(a, Fraction(7, 6)).gens == ((0, 2), (1, 0))


def test_tau_monomial_box_is_the_generator_box(monkeypatch):
    prefixes = []
    product = newton.product
    monkeypatch.setattr(newton, "product", lambda *axes: (
        prefixes.append(u) or u for u in product(*axes)))
    a = MonomialIdeal(3, [(6, 5, 0)])
    assert tau_monomial(a, 2).gens == ((12, 10, 0),)
    # the scan visits each prefix (u_x, u_y) of the box {0..12} x {0..10}
    # once, and solves its z column
    assert prefixes == [(i, j) for i in range(13) for j in range(11)]


@st.composite
def _monomial_ideals(draw):
    """A monomial ideal in 1-3 variables with exponents <= 4, m-primary or
    not."""
    n = draw(st.integers(1, 3))
    sets = m_primary_exponent_sets if draw(st.booleans()) else monomial_exponent_sets
    return MonomialIdeal(n, draw(sets(n, max_exp=4)))


# lambda = k/d in [0, 2] with d <= 7: zero, integers and proper fractions
_LAMBDAS = st.sampled_from(sorted({Fraction(k, d) for d in range(1, 8)
                                   for k in range(2 * d + 1)}))


@settings(max_examples=200)
@given(_monomial_ideals(), _LAMBDAS)
def test_tau_monomial_matches_the_ray_entry_scan(a, lam):
    # the facet column scan against one exact LP per undecided box point
    assert tau_monomial(a, lam) == tau_by_ray_entry(a, lam)


def test_tau_monomial_matches_chain_tail():
    xs, ys = P("x^2"), P("y^3")
    for lam in [Fraction(1, 2), Fraction(5, 6), 1, Fraction(3, 2)]:
        res = tau([xs, ys], lam)
        chain = list(ascending_chain([xs, ys], lam, 4))
        assert all(res.ideal.contains(c) for c in chain)
        assert res.ideal.equal(chain[-1])
        assert res.stabilized


def test_tau_principal_cusp_values():
    f7 = P("x^2+y^3", F7)
    cases = {
        Fraction(1, 2): [P("1", F7)],
        Fraction(5, 6): [P("x", F7), P("y", F7)],
        Fraction(29, 35): [P("1", F7)],
        Fraction(1): [f7],
    }
    for lam, gens in cases.items():
        res = tau([f7], lam)
        assert res.stabilized
        assert res.ideal.equal(PolyIdeal(gens))


def test_tau_principal_below_fpt_is_unit_f5():
    f5 = P("x^2+y^3", F5)
    res = tau([f5], Fraction(23, 30))  # fpt is 4/5 here
    assert res.stabilized
    assert res.ideal.member(Polynomial.one(F5))
    res = tau([f5], Fraction(4, 5))
    assert res.stabilized
    assert res.ideal.equal(PolyIdeal([P("x", F5), P("y", F5)]))


def test_tau_monotone_in_lambda():
    f = P("x^2+y^3", F7)
    prev = tau([f], Fraction(0)).ideal
    for k in range(1, 8):
        cur = tau([f], Fraction(k, 6)).ideal
        assert prev.contains(cur)
        prev = cur


def test_tau_contains_ideal_at_lambda_one():
    for gens in [[P("x^2+y^3")], [P("x^2"), P("y^3")], [P("x*y + x^3")]]:
        res = tau(gens, 1)
        assert all(res.ideal.member(g) for g in gens)


def test_tau_degree_bound():
    # generators of tau(a^lam) live in degree <= lam * max generator degree
    for gens, lam in [
        ([P("x^2+y^3")], Fraction(5, 6)),
        ([P("x^2+y^3")], Fraction(11, 6)),
        ([P("x^2"), P("y^3")], Fraction(2)),
    ]:
        d = max(g.total_degree() for g in gens)
        res = tau(gens, lam)
        assert all(g.total_degree() <= lam * d for g in res.ideal.gens)


def _tau_skoda_one_at_a_time(f, lam):
    """tau(f^lam) = f * tau(f^{lam-1}) applied once per unit of lam."""
    if lam < 1:
        return tau([f], lam).ideal
    return PolyIdeal([f * g for g in _tau_skoda_one_at_a_time(f, lam - 1).gens])


@pytest.mark.parametrize("ring", [F5, F7])
@pytest.mark.parametrize(
    "lam", [1, 2, Fraction(5, 2), Fraction(7, 3), Fraction(13, 4)]
)
def test_tau_principal_skoda_in_one_step(ring, lam):
    f = P("x^2+y^3", ring)
    res = tau([f], lam)
    assert res.stabilized
    assert res.ideal.equal(_tau_skoda_one_at_a_time(f, Fraction(lam)))


@st.composite
def _principal_cases(draw):
    """(f, lam): f of 1-3 terms in 2-3 variables over F_2 ... F_7 with no
    constant term, 0 < lam < 2 of denominator d or p*d, p prime to d and
    d of level at most 27."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    f = draw(origin_polynomials(Ring.prime_field(draw(st.integers(2, 3)), p)))
    d = draw(st.sampled_from([d for d in range(1, 30)
                              if d % p and frobenius_level(p, d) <= 27]))
    den = d * p ** draw(st.integers(0, 1))
    return f, Fraction(draw(st.integers(1, 2 * den - 1)), den)


@settings(max_examples=60)
@given(_principal_cases())
def test_tau_principal_matches_the_whole_power_iteration(case):
    f, lam = case
    res, ref = testideal._tau_principal(f, lam), tau_principal_reference(f, lam)
    assert res.ideal.equal(ref.ideal), (f, lam)
    assert (res.stabilized, res.e_used) == (ref.stabilized, ref.e_used)


def test_tau_principal_below_one_expands_no_power_of_f_past_p(monkeypatch):
    seen = []
    whole_pow = Polynomial.pow

    def recording_pow(self, k):
        seen.append((self.ring.p, k))
        return whole_pow(self, k)

    monkeypatch.setattr(Polynomial, "pow", recording_pow)
    for text, n, p, lam in [("x^2+y^3", 2, 13, Fraction(29, 35)),
                            ("x^2+y^3+z^5", 3, 7, Fraction(29, 30)),
                            ("x^2+y^3", 2, 5, Fraction(24, 25)),  # p^2 | denominator
                            ("x^3+x*y^2+y^5", 2, 3, Fraction(25, 26))]:
        testideal._tau_principal(parse_polynomial(text, Ring.prime_field(n, p)), lam)
    assert seen and all(k < p for p, k in seen)


def test_tau_and_fjump_reject_bad_parameters():
    gens = [P("x^2+y^3"), P("x*y")]
    with pytest.raises(ValueError, match="e_max"):
        tau(gens, Fraction(1, 2), e_max=0)
    with pytest.raises(ValueError, match="span"):
        fjump_scan([P("x^2+y^3")], 6, 0)


def test_skoda_and_scaling_checks():
    assert check_skoda([P("x^2"), P("y^3")], 2)
    assert check_skoda([P("x^2+y^3")], Fraction(11, 6))
    assert check_p_scaling([P("x^2+y^3")], Fraction(4, 5))
    assert check_p_scaling([P("x^2"), P("y^3")], Fraction(5, 6))
    with pytest.raises(ValueError):
        check_skoda([P("x"), P("y")], 1)


def test_fjump_scan_cusp_small_grid():
    rep = fjump_scan([P("x^2+y^3", F7)], 6, 1)
    assert rep.jumps == (Fraction(5, 6), Fraction(1))
    assert rep.certified


def test_fjump_scan_monomial():
    rep = fjump_scan([P("x^2"), P("y^3")], 6, 1)
    assert rep.jumps[0] == Fraction(5, 6)  # smallest jump = threshold
    assert rep.certified


def test_fjump_resolution_semantics():
    # fpt of the cusp over F_5 is 4/5; a grid that misses it reports the
    # next grid point up
    rep = fjump_scan([P("x^2+y^3", F5)], 6, 1)
    assert rep.jumps[0] == Fraction(5, 6)
    assert rep.resolution == Fraction(1, 6)


def test_entry_points_take_a_polynomial_a_list_or_a_poly_ideal():
    f = P("x^2 + y^3")
    for a in (f, [f], PolyIdeal(f)):
        assert nu(a, 2) == 19
        assert fpt_enclosure(a, 2) == fpt_enclosure([f], 2)
        assert tau(a, Fraction(4, 5)).ideal.equal(PolyIdeal([P("x"), P("y")]))
        assert frobenius_root(a, 1).equal(PolyIdeal(P("1")))
    gens = [P("x^2 + y^3"), P("x*y")]
    for a in (gens, PolyIdeal(gens)):
        assert nu(a, 1) == nu(gens, 1)
        assert fpt_enclosure(a, 2) == fpt_enclosure(gens, 2)
        assert tau(a, Fraction(1, 2), e_max=1).ideal.equal(
            tau(gens, Fraction(1, 2), e_max=1).ideal)
        assert frobenius_root(a, 1).equal(frobenius_root(gens, 1))


def test_entry_points_reject_what_poly_ideal_rejects():
    mixed = [P("x^2 + y^3"), P("x*y*z", Ring.prime_field(3, 5))]
    over_q = [P("x^2 + y^3", Ring.rationals(2))]
    zeros = [Polynomial.zero(F5), Polynomial.zero(F5)]
    calls = (
        lambda a: PolyIdeal(a),
        lambda a: nu(a, 1),
        lambda a: fpt_enclosure(a, 2),
        lambda a: tau(a, 1),
        lambda a: frobenius_root(a, 1),
        lambda a: ascending_chain(a, Fraction(1, 2), 1),
        lambda a: fjump_scan(a, 2),
        lambda a: check_skoda(a, 2),
        lambda a: check_p_scaling(a, Fraction(1, 2)),
    )
    for a in (mixed, over_q, zeros):
        for call in calls:
            with within_seconds(5), pytest.raises(ValueError):
                call(a)
