import re
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice
from operator import mul

import pytest
from hypothesis import assume, example, given, strategies as st

from helpers import nonzero_polynomials, src_uses
from oracles import fpt_upper_by_generators, in_frobenius_power, is_smooth_cubic_reference
from thresholds import frobenius, rings
from thresholds.frobenius import (
    fpt_cubic_cone,
    fpt_enclosure,
    fpt_enclosures,
    is_ordinary_cubic,
    is_smooth_cubic,
    nu,
)
from thresholds.grobner import PolyIdeal, ideal_power
from thresholds.newton import MonomialIdeal, lct_monomial
from thresholds.rings import (
    BudgetExceededError,
    Polynomial,
    Ring,
    monomial_coefficient,
    parse_polynomial,
    power_has_reduced_term,
    product_sweep,
)

F2 = Ring.prime_field(2, 2)
F3 = Ring.prime_field(2, 3)
F5 = Ring.prime_field(2, 5)
F7 = Ring.prime_field(2, 7)


def _mono(ring, exp):
    return Polynomial(ring, {exp: 1})


def test_in_frobenius_power():
    f = parse_polynomial("x^4 + x^2*y^2", F2)
    assert in_frobenius_power(f, 1)
    assert not in_frobenius_power(f, 2)
    assert in_frobenius_power(Polynomial.zero(F2), 3)


def test_nu_validates_input():
    with pytest.raises(ValueError):
        nu([parse_polynomial("x+1", F2)], 1)  # constant term
    with pytest.raises(ValueError):
        nu([Polynomial.zero(F2)], 1)
    with pytest.raises(ValueError):
        nu([parse_polynomial("x", Ring.rationals(1))], 1)


def _nu_bruteforce(gens, e):
    """Oracle: expand every degree-i product until all land in m^[p^e]."""
    from itertools import combinations_with_replacement

    i = 0
    while True:
        i += 1
        hit = False
        for combo in combinations_with_replacement(gens, i):
            prod = combo[0]
            for g in combo[1:]:
                prod = prod * g
            if not in_frobenius_power(prod, e):
                hit = True
                break
        if not hit:
            return i - 1


def test_nu_cusp_small_primes():
    for ring, p in [(F5, 5), (F7, 7)]:
        f = parse_polynomial("x^2+y^3", ring)
        assert nu(f, 1) == (p - 1) // 2 + (p - 1) // 3


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda g: any(g)),
        min_size=1,
        max_size=3,
    ),
    st.integers(1, 2),
)
def test_nu_monomial_path_matches_bruteforce(exps, e):
    gens = [_mono(F3, g) for g in exps]
    assert nu(gens, e) == _nu_bruteforce(gens, e)


@given(nonzero_polynomials(F3, max_terms=3, max_exp=3), st.integers(1, 2))
def test_nu_principal_path_matches_bruteforce(f, e):
    if (0, 0) in f.terms:
        return
    assert nu(f, e) == _nu_bruteforce([f], e)


def _nu_bisection(f, q):
    """Oracle: bisect on "f^i has a term with every exponent below q"."""
    lo, hi = 0, f.ring.nvars * (q - 1) + 1  # f^lo is outside, f^hi inside
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if power_has_reduced_term(f, mid, q):
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def _principal_cases(draw):
    n = draw(st.integers(1, 3))
    ring = Ring.prime_field(n, draw(st.sampled_from([2, 3, 5, 7])))
    f = draw(
        nonzero_polynomials(ring, max_terms=4, max_exp=3).filter(
            lambda f: len(f.terms) >= 2 and (0,) * n not in f.terms
        )
    )
    return f, draw(st.integers(1, 3))


@given(_principal_cases())
# F-pure f (nu(1) = p - 1), where the level walk stops after level 1
@example((parse_polynomial("x*y + x^3", F3), 3))
@example((parse_polynomial("x + y^2", F5), 3))
@example((parse_polynomial("x^3 + y^3 + z^3", Ring.prime_field(3, 7)), 2))
def test_nu_principal_sweep_matches_bisection(case):
    f, e = case
    assert nu(f, e) == _nu_bisection(f, f.ring.p**e)


_PRIME_POWERS = [
    (p, e) for p in (2, 3, 5, 7, 11) for e in range(1, 7) if p**e <= 125
]


@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=3),
    st.sampled_from(_PRIME_POWERS),
)
def test_nu_box_diagonal_closed_form(a, pe):
    p, e = pe
    n, q = len(a), p**e
    ring = Ring.prime_field(n, p)
    gens = [
        _mono(ring, tuple(a_i if j == i else 0 for j in range(n)))
        for i, a_i in enumerate(a)
    ]
    assert nu(gens, e) == sum((q - 1) // a_i for a_i in a)


_F3_GENERATORS = nonzero_polynomials(F3, max_terms=3, max_exp=3).filter(
    lambda f: (0, 0) not in f.terms
)


@given(st.lists(_F3_GENERATORS, min_size=2, max_size=3), st.integers(1, 2))
@example([parse_polynomial("x^2+y^3", F3), parse_polynomial("x*y", F3)], 1)
@example([parse_polynomial("x^2+y^3", F3), parse_polynomial("x*y", F3)], 2)
def test_nu_multigenerator_polynomial_path(gens, e):
    assert nu(gens, e) == _nu_bruteforce(gens, e)


@given(nonzero_polynomials(F3, max_terms=3, max_exp=2))
def test_nu_growth_bounds_principal(f):
    if (0, 0) in f.terms:
        return
    n1, n2 = nu(f, 1), nu(f, 2)
    assert 3 * n1 <= n2 <= 3 * n1 + 2  # p*nu(e) <= nu(e+1) <= p*nu(e)+p-1


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda g: any(g)),
        min_size=1,
        max_size=2,
    )
)
def test_nu_monotone_in_ideal(exps):
    gens = [_mono(F3, g) for g in exps]
    bigger = gens + [_mono(F3, (1, 1))]
    assert nu(gens, 1) <= nu(bigger, 1)


def test_nu_power_identity():
    # r*nu_{a^r}(e) <= nu_a(e) <= r*(nu_{a^r}(e)+1) - 1
    a = MonomialIdeal(2, [(2, 0), (0, 3)])
    for r in (2, 3):
        gens = [_mono(F5, g) for g in a.gens]
        gens_r = ideal_power(gens, r)
        for e in (1, 2):
            lo = nu(gens_r, e)
            mid = nu(gens, e)
            assert r * lo <= mid <= r * (lo + 1) - 1


def test_nu_subadditive_in_ideal_sum():
    a = [parse_polynomial("x^2+y^3", F5)]
    b = [_mono(F5, (1, 1))]
    assert nu(a + b, 1) <= nu(a, 1) + nu(b, 1) + 1


def test_nu_sequence_regression_guard(monkeypatch):
    f = parse_polynomial("x^2+y^3", F5)
    a = [f, parse_polynomial("x*y", F5)]
    assert [nu(f, e) for e in (1, 2, 3)] == [3, 19, 99]
    assert [nu(a, e) for e in (1, 2)] == [4, 24]

    def sweep_p_steps(gens, q, budget, start=None, steps=None):
        return gens[0].ring.p, [start], budget

    # a principal level of p steps breaks nu(e+1) <= p*nu(e) + l(p - 1), l = 1
    monkeypatch.setattr(frobenius, "product_sweep", sweep_p_steps)
    with pytest.raises(AssertionError, match=re.escape(
            "nu(1) = 5 is outside [p*nu(0), p*nu(0) + l(p - 1)] = [0, 4], l = 1")):
        nu(f, 1)

    def sweep_broken_ideal(level_2):
        def sweep(gens, q, budget=None, start=None, steps=None):
            if len(gens) == 1:
                return product_sweep(gens, q, budget, start, steps)
            return {5: 3, 25: level_2}[q], [], budget
        return sweep

    # for the two generators of a, nu(2) must lie in [5*3, 5*3 + 2*4] = [15, 23]
    for level_2 in (14, 24):
        monkeypatch.setattr(frobenius, "product_sweep", sweep_broken_ideal(level_2))
        for read in (lambda: nu(a, 2), lambda: fpt_enclosure(a, 2)):
            with pytest.raises(AssertionError, match=re.escape(
                    f"nu(2) = {level_2} is outside [p*nu(1), p*nu(1) + l(p - 1)]"
                    " = [15, 23], l = 2")):
                read()


@st.composite
def _ideal_cases(draw):
    n = draw(st.integers(1, 3))
    ring = Ring.prime_field(n, draw(st.sampled_from([2, 3, 5, 7])))
    gens = nonzero_polynomials(ring, max_terms=3, max_exp=3).filter(
        lambda f: (0,) * n not in f.terms)
    return draw(st.lists(gens, min_size=1, max_size=3)), draw(st.integers(1, 3))


@given(_ideal_cases())
# F-pure: G = (x + y^2)(y + x^3) has the term xy, so nu(e) = 2(p^e - 1)
@example(([parse_polynomial("x + y^2", F5), parse_polynomial("y + x^3", F5)], 3))
@example(([parse_polynomial("z^2 + x^3*y", Ring.prime_field(3, 3)),
           parse_polynomial("y^2*z^2 + 2*x^3", Ring.prime_field(3, 3))], 2))
def test_one_level_law_holds_for_every_ideal(case):
    # l generators: p*nu(e) <= nu(e+1) <= p*nu(e) + l(p - 1), so the upper
    # ends (nu(e) + l)/p^e bound every later level from above
    gens, e = case
    a = PolyIdeal(gens)
    p, ell = a.ring.p, len(a.gens)
    levels = []
    try:
        for level in islice(frobenius._levels(a), e):
            levels.append(level)
    except BudgetExceededError:
        pass
    prev = 0
    for level in levels:
        assert p * prev <= level <= p * prev + ell * (p - 1)
        prev = level
    for (k, nu_k), (j, nu_j) in combinations(enumerate(levels, 1), 2):
        assert Fraction(nu_j, p**j) <= Fraction(nu_k + ell, p**k)
    capped = [k for k, nu_k in enumerate(levels, 1) if nu_k == ell * (p**k - 1)]
    if capped:
        # a capped level stays capped: G^(q - 1) outside m^[q] at every later q
        product = reduce(mul, a.gens)
        for j in range(capped[0], len(levels) + 1):
            assert levels[j - 1] == ell * (p**j - 1)
            try:
                assert power_has_reduced_term(product, p**j - 1, p**j)
            except BudgetExceededError:
                pass
    for k, enc in enumerate(islice(fpt_enclosures(a), len(levels)), 1):
        for j in range(k + 1, len(levels) + 1):
            assert Fraction(levels[j - 1], p**j) <= enc.hi
        try:
            assert enc.hi <= fpt_upper_by_generators(a.gens, k)
        except BudgetExceededError:
            pass


def test_levels_are_swept_in_one_place():
    """Only ``_levels`` sweeps a nu level and only ``ideal_power`` forms a^r,
    and only the ``fpt`` subcommand asks for the last enclosure alone."""
    assert src_uses("product_sweep") == (
        {("frobenius", "_levels"), ("grobner", "ideal_power")},
        {"frobenius", "grobner"},
    )
    assert src_uses("fpt_enclosure") == ({("cli", "_cmd_fpt")}, set())


def test_fpt_enclosure_levels_and_cap(monkeypatch):
    f = parse_polynomial("x^2+y^3", F5)
    with pytest.raises(ValueError, match="e_max must be >= 1"):
        fpt_enclosure(f, 0)
    # the level used is the largest e <= e_max with p^e <= PE_CAP
    monkeypatch.setattr(frobenius, "PE_CAP", 125)
    assert fpt_enclosure(f, 10) == fpt_enclosure(f, 3) != fpt_enclosure(f, 2)
    monkeypatch.setattr(frobenius, "PE_CAP", 4)
    with pytest.raises(BudgetExceededError, match="p\\^e cap"):
        fpt_enclosure(f, 3)


@st.composite
def _f_pure_cases(draw):
    n = draw(st.integers(1, 3))
    ring = Ring.prime_field(n, draw(st.sampled_from([2, 3, 5, 7, 11, 13])))
    return draw(nonzero_polynomials(ring, max_terms=3, max_exp=2).filter(
        lambda f: (0,) * n not in f.terms))


@given(_f_pure_cases())
@example(parse_polynomial("x^2 + y^2", Ring.prime_field(2, 7)))
@example(parse_polynomial("x*y + x^3", F3))
def test_exact_one_means_f_pure(f):
    # fpt(f) lies in (nu(1)/p, (nu(1)+1)/p], so fpt = 1 exactly when nu(1) = p - 1
    enc = fpt_enclosure(f, 1)
    one = enc.is_exact and enc.value == 1
    assert one == (_nu_bruteforce([f], 1) == f.ring.p - 1)
    if one:
        assert fpt_enclosure(f, 3).contains(1)


@given(_f_pure_cases())
def test_the_walk_and_the_first_level_agree_on_f_purity(f):
    # Fedder: f is F-pure iff f^(p-1) is not in m^[p], iff nu(1) = p - 1
    p = f.ring.p
    assert power_has_reduced_term(f, p - 1, p) == (nu(f, 1) == p - 1)


def _enclosure_cases(k):
    gens = nonzero_polynomials(F3, max_terms=3, max_exp=3).filter(
        lambda f: (0, 0) not in f.terms)
    return st.lists(gens, min_size=k, max_size=k)


@given(_enclosure_cases(1) | _enclosure_cases(2), st.integers(1, 3))
@example([parse_polynomial("x^2+y^3", F3), parse_polynomial("x*y", F3)], 3)
def test_fpt_enclosure_is_the_last_of_fpt_enclosures(gens, e):
    encs = list(islice(fpt_enclosures(gens), e))
    assert fpt_enclosure(gens, e) == encs[-1]
    assert len(encs) == e or encs[-1].is_exact
    for wide, narrow in zip(encs, encs[1:]):  # each level narrows the last
        assert wide.lo <= narrow.lo <= narrow.hi <= wide.hi


def test_fpt_monomial_is_lct():
    for text in ("x^2, y^3", "x^3, x*y, y^4", "x^2*y, y^5, x^7"):
        a = MonomialIdeal.parse(text)
        for p in (2, 3, 5, 7):
            gens = [_mono(Ring.prime_field(2, p), g) for g in a.gens]
            res = fpt_enclosure(gens, 1)
            assert res.is_exact and res.value == lct_monomial(a)
    assert lct_monomial(MonomialIdeal.parse("x^2, y^3")) == Fraction(5, 6)


def test_fpt_enclosure_certified_monomial():
    gens = [_mono(F5, (2, 0)), _mono(F5, (0, 3))]
    res = fpt_enclosure(gens, 4)
    assert res.is_exact and res.value == Fraction(5, 6)


def test_fpt_enclosure_one_variable_principal():
    f = parse_polynomial("x^3 + x^5", F5)
    res = fpt_enclosure([f], 4)
    assert res.is_exact and res.value == Fraction(1, 3)


def test_fpt_enclosure_interval_bounds():
    f = parse_polynomial("x^2+y^3", F7)
    res = fpt_enclosure([f], 2)
    assert res.contains(Fraction(5, 6))
    assert Fraction(1, 2) <= res.lo <= res.hi <= Fraction(2, 2)
    assert not res.is_exact


def test_fpt_enclosure_multigenerator():
    gens = [parse_polynomial("x^2+y^3", F5), parse_polynomial("x*y", F5)]
    res = fpt_enclosure(gens, 2)
    ord_a = 2
    assert Fraction(1, ord_a) <= res.lo <= res.hi <= Fraction(2, ord_a)


def test_cubic_validation():
    ring3 = Ring.prime_field(3, 7)
    with pytest.raises(ValueError):
        is_ordinary_cubic(parse_polynomial("x^2+y^3", F7))
    with pytest.raises(ValueError):
        is_ordinary_cubic(parse_polynomial("x^3+y^3+z^2", ring3))


def test_fermat_cubic_ordinarity():
    for p, expected in [(5, False), (7, True), (11, False), (13, True)]:
        ring = Ring.prime_field(3, p)
        f = parse_polynomial("x^3+y^3+z^3", ring)
        assert is_ordinary_cubic(f) == expected
        assert fpt_cubic_cone(f) == (1 if expected else Fraction(p - 1, p))


@pytest.mark.parametrize("text,p,smooth", [
    ("x^3+y^3+z^3", 2, True),
    ("x^3+y^3+z^3", 7, True),
    ("x^3+y^3+z^3+x*y*z", 5, True),
    ("y^2*z - x^3 - x*z^2", 7, True),
    ("x^3+y^3+z^3", 3, False),  # (x + y + z)^3 over F_3
    ("y^2*z - x^3", 5, False),  # cuspidal
    ("x*y*z", 7, False),  # three lines
    ("x^3+y^3+z^3-3*x*y*z", 7, False),  # three concurrent lines
])
def test_smooth_cubic_examples(text, p, smooth):
    f = parse_polynomial(text, Ring.prime_field(3, p))
    assert is_smooth_cubic(f) == is_smooth_cubic_reference(f) == smooth
    # a singular cubic keeps the level sweep
    assert (fpt_enclosure(f, 1).method == "cubic-cone") == smooth
    if not smooth:
        with pytest.raises(ValueError, match="singular"):
            is_ordinary_cubic(f)


_CUBIC_MONOMIALS = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]


@st.composite
def _cubics(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=10, max_size=10)
                  .filter(any))
    return Polynomial(Ring.prime_field(3, p), dict(zip(_CUBIC_MONOMIALS, coeffs)))


@given(_cubics())
def test_smooth_cubic_rank_test_matches_groebner(f):
    smooth = is_smooth_cubic(f)
    assert smooth == is_smooth_cubic_reference(f)
    if smooth:
        # fpt_enclosure returns fpt_cubic_cone itself, so the oracle is the
        # raw level nu(3), which takes no shortcut
        nu_3, q = nu(f, 3), f.ring.p**3
        assert Fraction(nu_3, q) <= fpt_cubic_cone(f) <= Fraction(nu_3 + 1, q)
        assert fpt_enclosure(f, 3).method == "cubic-cone"
    else:
        with pytest.raises(ValueError, match="singular"):
            is_ordinary_cubic(f)


@st.composite
def _smooth_cubics(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=10, max_size=10))
    f = Polynomial(Ring.prime_field(3, p), dict(zip(_CUBIC_MONOMIALS, coeffs)))
    assume(is_smooth_cubic(f))
    return f


@given(_smooth_cubics())
def test_cubic_ordinarity_past_the_walk_budget_reads_the_first_nu_level(f):
    p = f.ring.p
    walk = monomial_coefficient(f, p - 1, (p - 1, p - 1, p - 1)) != 0
    levels = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "WALK_BUDGET", 1)
        mp.setattr(frobenius, "nu", lambda *args: levels.append(args) or nu(*args))
        assert is_ordinary_cubic(f) == walk
    assert levels == [(f, 1)]  # the walk ran out, and nu(1) = p - 1 decided


def test_fpt_enclosure_checks_a_smooth_cubic_once(monkeypatch):
    calls = []
    check = frobenius.is_smooth_cubic
    monkeypatch.setattr(frobenius, "is_smooth_cubic",
                        lambda f: calls.append(f) or check(f))
    f = parse_polynomial("x^3+y^3+z^3", Ring.prime_field(3, 7))
    assert fpt_enclosure(f, 1).method == "cubic-cone"
    assert len(calls) == 1


def test_non_fermat_cubic():
    # y^2*z = x^3 + x*z^2 over F_5: supersingular iff the (xyz)^{p-1}
    # coefficient vanishes; cross-checked by direct expansion
    ring = Ring.prime_field(3, 5)
    f = parse_polynomial("y^2*z - x^3 - x*z^2", ring)
    expanded = f.pow(4)
    oracle = expanded.coefficient((4, 4, 4)) != 0
    assert is_ordinary_cubic(f) == oracle
