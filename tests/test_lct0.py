from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from thresholds.frobenius import fpt_enclosure
from thresholds.lct0 import (
    CHAR0_RULES,
    ThresholdResult,
    first_exact,
    lct_closed_form,
    lct_general_combination,
    lct_homogeneous_isolated,
    lct_smooth_subscheme,
    truncation_bound,
)
from thresholds.newton import MonomialIdeal, lct_monomial
from thresholds.redmodp import reduce_mod_p
from thresholds.rings import Polynomial, Ring

COEFFS = st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 4))


def test_diagonal_closed_form():
    assert lct_closed_form((2, 3)) == Fraction(5, 6)
    assert lct_closed_form((2, 2, 2)) == 1  # clamped at 1
    assert lct_closed_form((5,)) == Fraction(1, 5)


def test_diagonal_with_unit_exponent_is_one():
    assert lct_closed_form((1, 7, 9)) == 1


def test_homogeneous_isolated():
    assert lct_homogeneous_isolated(3, 3) == 1
    assert lct_homogeneous_isolated(2, 5) == Fraction(2, 5)


def test_smooth_subscheme_and_node():
    assert lct_smooth_subscheme(2) == 2
    assert lct_homogeneous_isolated(2, 2) == 1  # a node


@given(st.lists(st.integers(1, 9), min_size=1, max_size=4))
def test_diagonal_family_agrees_with_monomial_ideal(exps):
    n = len(exps)
    gens = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(exps)]
    ideal_lct = lct_monomial(MonomialIdeal(n, gens))
    assert lct_closed_form(tuple(exps)) == min(Fraction(1), ideal_lct)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=4))
def test_outputs_in_range(exps):
    value = lct_closed_form(tuple(exps))
    assert 0 < value <= 1  # principal-ideal families stay at or below 1


@pytest.mark.parametrize("call,message", [
    (lambda: lct_closed_form(()), "diagonal exponents must be >= 1"),
    (lambda: lct_closed_form((2, 0)), "diagonal exponents must be >= 1"),
    (lambda: lct_homogeneous_isolated(0, 3), "need n >= 1 and d >= 1"),
    (lambda: lct_homogeneous_isolated(2, 0), "need n >= 1 and d >= 1"),
    (lambda: lct_smooth_subscheme(0), "codimension must be >= 1"),
])
def test_closed_forms_reject_bad_data(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_truncation_bound_nested_in_N():
    prev = truncation_bound(Fraction(5, 6), 2, 2)
    for N in range(3, 10):
        cur = truncation_bound(Fraction(5, 6), 2, N)
        assert prev[0] <= cur[0] and cur[1] <= prev[1]
        prev = cur


def test_truncation_bound_values():
    lo, hi = truncation_bound(Fraction(5, 6), 2, 5)
    assert (lo, hi) == (Fraction(1, 2), Fraction(7, 6))


def test_general_combination_clamps():
    assert lct_general_combination(Fraction(5, 6)) == Fraction(5, 6)
    assert lct_general_combination(Fraction(3)) == 1
    # an improper ideal has no threshold to clamp: its lct raises instead
    with pytest.raises(ValueError, match="infinite"):
        lct_monomial(MonomialIdeal(2, [(0, 0)]))


def test_threshold_result_invariants():
    r = ThresholdResult(Fraction(1, 3), Fraction(1, 2), "nu-limit")
    assert not r.is_exact
    assert r.contains(Fraction(2, 5))
    assert r.width() == Fraction(1, 6)
    with pytest.raises(ValueError):
        r.value
    with pytest.raises(ValueError):
        ThresholdResult(Fraction(1), Fraction(0), "closed-form")
    exact = ThresholdResult.exact(Fraction(5, 6))
    assert exact.is_exact and exact.value == Fraction(5, 6)


@given(st.lists(st.tuples(st.integers(1, 9), COEFFS), min_size=1, max_size=4))
def test_thom_sebastiani_on_a_diagonal_is_the_closed_form(parts):
    n = len(parts)
    f = Polynomial(Ring.rationals(n), {
        tuple(a if j == i else 0 for j in range(n)): c for i, (a, c) in enumerate(parts)})
    assert first_exact(CHAR0_RULES, f) == ThresholdResult.exact(
        lct_closed_form([a for a, _ in parts]), "closed-form")


# a part in one variable, as (exponent, coefficient) terms, or one term c*x^u
# with u >= 1 on a block of one or two variables
PART = st.one_of(
    st.lists(st.tuples(st.integers(1, 5), COEFFS), min_size=1, max_size=2,
             unique_by=lambda t: t[0]).map(lambda terms: ("one", terms)),
    st.tuples(st.lists(st.integers(1, 4), min_size=1, max_size=2), COEFFS)
    .map(lambda term: ("term", term)),
)


def _size(parts) -> tuple:
    """(variables, terms) of a sum of parts; with more than 3 terms in 3
    variables the level-1 sweep at p = 97 can run past its term budget."""
    return (sum(1 if kind == "one" else len(t[0]) for kind, t in parts),
            sum(len(t) if kind == "one" else 1 for kind, t in parts))


@given(st.lists(PART, min_size=1, max_size=3).filter(lambda ps: max(_size(ps)) <= 3))
def test_thom_sebastiani_bounds_every_fpt(parts):
    n = _size(parts)[0]
    terms, ks, start = {}, [], 0
    for kind, part in parts:
        if kind == "one":
            for a, c in part:
                terms[tuple(a if j == start else 0 for j in range(n))] = c
            ks.append(min(a for a, _ in part))
            start += 1
        else:
            u, c = part
            terms[(0,) * start + tuple(u) + (0,) * (n - start - len(u))] = c
            ks.append(max(u))
            start += len(u)
    f = Polynomial(Ring.rationals(n), terms)
    lct0 = first_exact(CHAR0_RULES, f).value
    assert lct0 == lct_closed_form(ks)
    for p in (97, 101):
        assert fpt_enclosure(reduce_mod_p(f, p), 2).lo <= lct0
