from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from thresholds.lct0 import (
    Diagonal,
    HomogeneousIsolated,
    SmoothSubscheme,
    ThresholdResult,
    lct_closed_form,
    lct_general_combination,
    truncation_bound,
)
from thresholds.newton import MonomialIdeal, lct_monomial


def test_diagonal_closed_form():
    assert lct_closed_form(Diagonal((2, 3))).value == Fraction(5, 6)
    assert lct_closed_form(Diagonal((2, 2, 2))).value == 1  # clamped at 1
    assert lct_closed_form(Diagonal((5,))).value == Fraction(1, 5)


def test_diagonal_with_unit_exponent_is_one():
    assert lct_closed_form(Diagonal((1, 7, 9))).value == 1


def test_homogeneous_isolated():
    assert lct_closed_form(HomogeneousIsolated(3, 3)).value == 1
    assert lct_closed_form(HomogeneousIsolated(2, 5)).value == Fraction(2, 5)


def test_smooth_subscheme_and_node():
    assert lct_closed_form(SmoothSubscheme(2)).value == 2
    assert lct_closed_form(HomogeneousIsolated(2, 2)).value == 1  # a node


@given(st.lists(st.integers(1, 9), min_size=1, max_size=4))
def test_diagonal_family_agrees_with_monomial_ideal(exps):
    n = len(exps)
    gens = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(exps)]
    ideal_lct = lct_monomial(MonomialIdeal(n, gens))
    assert lct_closed_form(Diagonal(tuple(exps))).value == min(Fraction(1), ideal_lct)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=4))
def test_outputs_in_range(exps):
    value = lct_closed_form(Diagonal(tuple(exps))).value
    assert 0 < value <= 1  # principal-ideal families stay at or below 1


def test_unsupported_family():
    with pytest.raises(ValueError, match="no closed form for"):
        lct_closed_form(object())


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
