import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import nonzero_polynomials, polynomials, within_seconds
from oracles import (
    frobenius_expand,
    grevlex_key_reference,
    is_prime_by_trial_division,
    parse_polynomial_reference,
    product_sweep_reference,
    rank_mod_p,
)
from thresholds import rings
from thresholds.rings import (
    BudgetExceededError,
    ParseError,
    Polynomial,
    Ring,
    echelon,
    frobenius_decompose,
    grevlex_key,
    is_prime,
    monomial_coefficient,
    multinomial_exact,
    multinomial_mod_p,
    parse_generators,
    parse_polynomial,
    power_coefficients,
    power_has_reduced_term,
    product_sweep,
    render_polynomial,
)

QQ2 = Ring.rationals(2)
F5 = Ring.prime_field(2, 5)
F7 = Ring.prime_field(3, 7)
F31 = Ring.prime_field(3, 31)


def test_is_prime_is_exact_and_charges_trial_division(monkeypatch):
    monkeypatch.delenv("THRESHOLDS_BUDGET", raising=False)
    assert all(is_prime(n) == is_prime_by_trial_division(n) for n in range(10**5))
    # the least strong pseudoprimes to the prime bases up to 7, 31 and 37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    with within_seconds(1):
        assert is_prime(2**61 - 1) and is_prime(10**18 + 3)
    psi_13 = 1287836182261 * 2575672364521
    assert psi_13 == rings.PSI_13
    with pytest.raises(BudgetExceededError, match="trial division"):
        is_prime(psi_13)


def test_ring_constructors_and_names():
    assert QQ2.names == ("x", "y")
    assert Ring.rationals(3).names == ("x", "y", "z")
    assert Ring.rationals(4).names == ("x1", "x2", "x3", "x4")
    assert QQ2.p is None and F5.p == 5  # the prime is the coefficient field
    with pytest.raises(ValueError):
        Ring.prime_field(2, 6)
    with pytest.raises(ValueError):
        Ring.prime_field(2, None)
    with pytest.raises(ValueError):
        Ring(2, 4)  # a ring's field is its prime, and 4 is not one


def test_coeff_normalization():
    assert F5.coeff(7) == 2
    assert F5.coeff(-1) == 4
    assert F5.coeff_inv(2) == 3


def test_parse_basic():
    f = parse_polynomial("x^2 + 3*x*y - y^3", QQ2)
    assert f.terms == {(2, 0): 1, (1, 1): 3, (0, 3): -1}
    g = parse_polynomial("x^2+y^3", F5)
    assert g.terms == {(2, 0): 1, (0, 3): 1}


def test_parse_rational_coefficients():
    from fractions import Fraction

    f = parse_polynomial("1/2*x + 2/3", QQ2)
    assert f.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(2, 3)}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_polynomial("x^", QQ2)
    with pytest.raises(ParseError):
        parse_polynomial("x + * y", QQ2)
    with pytest.raises(ParseError):
        parse_polynomial("w^2", QQ2)  # unknown variable
    # nesting is capped before the parser's recursion can overflow the stack
    d = rings.MAX_NESTING
    assert parse_polynomial("(" * d + "x" + ")" * d, QQ2) == parse_polynomial("x", QQ2)
    with pytest.raises(ParseError) as err:
        parse_polynomial("(" * (d + 1) + "x" + ")" * (d + 1), QQ2)
    assert err.value.position == d


# strings of the grammar, well formed or not: integers, names (w is unknown
# to the rings below), ^k, *, + and -, parentheses and a/b literals
_FACTORS = st.tuples(
    st.one_of(st.integers(0, 12).map(str), st.sampled_from(["x", "y", "z", "w"]),
              st.tuples(st.integers(0, 9), st.integers(0, 4)).map(
                  lambda t: f"{t[0]}/{t[1]}")),
    st.sampled_from(["", "", "^0", "^1", "^2", "^3"]),
).map("".join)
_EXPRESSIONS = st.recursive(_FACTORS, lambda inner: st.one_of(
    st.lists(inner, min_size=2, max_size=3).map("*".join),
    st.tuples(inner, st.sampled_from(["+", "-", " + ", " - "]), inner).map("".join),
    st.tuples(st.sampled_from(["+", "-"]), inner).map("".join),
    st.tuples(inner, st.sampled_from(["", "^2"])).map(lambda t: f"({t[0]}){t[1]}"),
), max_leaves=6)
_TOKEN_SOUP = st.lists(st.sampled_from(
    ["x", "y", "2", "10", "^", "^2", "*", "+", "-", "(", ")", "/", "3/4", " ", "w"]),
    max_size=10).map("".join)


def _parse_outcome(parse, text, ring):
    """The parsed polynomial, or the message and position of the ParseError."""
    try:
        return parse(text, ring)
    except ParseError as exc:
        return str(exc), exc.position


@settings(max_examples=300)
@given(st.one_of(_EXPRESSIONS, _TOKEN_SOUP),
       st.sampled_from([Ring.rationals(3), Ring.prime_field(3, 2), F7]))
@example("2^y", F7)  # each ParseError message once, and a zero coefficient
@example("x + * y", F7)
@example("3*w^2", F7)
@example("x - 3/0*y", Ring.rationals(3))
@example("(x + y", F7)
@example("1/2*x", F7)
@example("-7*(x + y)^2*(x - y) + 14*x^3*y", F7)
def test_parse_matches_the_polynomial_arithmetic_reference(text, ring):
    assert (_parse_outcome(parse_polynomial, text, ring)
            == _parse_outcome(parse_polynomial_reference, text, ring))


def test_a_huge_integer_power_over_f_p_parses_at_once():
    # 2^100000000 is reduced by pow(2, 100000000, 7), never formed
    with within_seconds(0.5):
        f = parse_polynomial("2^100000000*x + y", F7)
    assert f.terms == {(1, 0, 0): pow(2, 10**8, 7), (0, 1, 0): 1}


def test_render_deterministic_and_readable():
    f = parse_polynomial("y^3 + x^2", QQ2)
    assert render_polynomial(f) == "y^3 + x^2"
    assert render_polynomial(Polynomial.zero(QQ2)) == "0"


@given(nonzero_polynomials(QQ2))
def test_render_parse_roundtrip_rational(f):
    assert parse_polynomial(render_polynomial(f), QQ2) == f


@given(nonzero_polynomials(F5))
def test_render_parse_roundtrip_fp(f):
    assert parse_polynomial(render_polynomial(f), F5) == f


@given(polynomials(F5), polynomials(F5), polynomials(F5))
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(polynomials(F5))
def test_char_p_additive_order(f):
    acc = Polynomial.zero(F5)
    for _ in range(5):
        acc = acc + f
    assert acc.is_zero()


def test_grevlex_order():
    # graded first; within a degree, reverse lex on reversed exponents
    exps = [(2, 0), (1, 1), (0, 2), (3, 0), (0, 0)]
    exps.sort(key=grevlex_key)
    assert exps == [(0, 0), (0, 2), (1, 1), (2, 0), (3, 0)]


@given(polynomials(F5, max_terms=5, max_exp=9), st.integers(1, 2))
def test_frobenius_decompose_expand_roundtrip(h, e):
    comps = frobenius_decompose(h, e)
    q = 5**e
    for w in comps:
        assert all(0 <= x < q for x in w)
    assert frobenius_expand(comps, F5, e) == h
    # decomposition of the re-expansion is the same association
    assert frobenius_decompose(frobenius_expand(comps, F5, e), e) == comps


def test_multinomial_mod_p_matches_exact():
    for parts in [(2, 3), (1, 1, 1), (4, 0, 2), (5, 5), (7, 2, 1)]:
        for p in (2, 3, 5, 7):
            assert multinomial_mod_p(parts, p) == multinomial_exact(parts) % p


@given(nonzero_polynomials(F5, max_terms=3, max_exp=2), st.integers(0, 4))
def test_monomial_coefficient_matches_expansion(f, k):
    full = f.pow(k)
    for exp in list(full.terms)[:4]:
        assert monomial_coefficient(f, k, exp) == full.terms[exp]
    # an exponent beyond the support has coefficient zero
    far = tuple(2 * k + 1 for _ in range(f.ring.nvars))
    assert monomial_coefficient(f, k, far) == 0


@given(nonzero_polynomials(F5, max_terms=3, max_exp=3),
       st.integers(0, 5), st.integers(1, 6))
def test_power_has_reduced_term_matches_expansion(f, k, bound):
    expanded = f.pow(k)
    expected = any(
        all(x < bound for x in exp) for exp in expanded.terms
    )
    assert power_has_reduced_term(f, k, bound) == expected


@st.composite
def _walks(draw):
    """(f, k, ceiling): f with 1-5 terms in 1-3 variables over F_2..F_7 or Q,
    k <= 8, and a ceiling anywhere from 0 to past the degree of f^k."""
    p = draw(st.sampled_from([2, 3, 5, 7, None]))
    n = draw(st.integers(1, 3))
    ring = Ring.rationals(n) if p is None else Ring.prime_field(n, p)
    f = draw(nonzero_polynomials(ring, max_terms=5, max_exp=3))
    k = draw(st.integers(0, 8))
    ceiling = draw(st.tuples(*[st.integers(0, 3 * k + 1)] * n))
    return f, k, ceiling


def _walk(text, p, ceiling, k=2):
    return parse_polynomial(text, Ring.prime_field(2, p)), k, ceiling


# the last two terms x^2*y, y agree in y, and 2*1 copies pass the y ceiling 1
@example(_walk("x^2*y + y", 5, (4, 1)))
@example(_walk("x^2*y + y", 5, (4, 2)))
# x^2 then y^2 need j <= 0 from x and j >= 2 from y: an empty count range
@example(_walk("x^2 + y^2", 7, (1, 1)))
@example(_walk("x^2 + x*y + y^2", 3, (2, 2)))
@settings(max_examples=200)
@given(_walks())
def test_power_coefficients_match_the_truncated_power(walk):
    f, k, ceiling = walk
    expected = {u: c for u, c in f.pow(k).terms.items()
                if all(x <= y for x, y in zip(u, ceiling))}
    assert power_coefficients(f, k, ceiling) == expected


def test_walk_charges_only_the_counts_that_fit(monkeypatch):
    # the Hesse cubic at p = 31 visits 143 nodes; trying every count of the
    # next-to-last term would visit 1,408
    f = parse_polynomial("x^3+y^3+z^3+4*x*y*z", F31)
    monkeypatch.setattr(rings, "WALK_BUDGET", 500)
    assert monomial_coefficient(f, 30, (30, 30, 30)) == 5


def test_walk_visits_exactly_the_counts_that_fit(monkeypatch):
    # (x^2 + x*y + y^2)^4 at x^4*y^4: x^2 is taken 0, 1 or 2 times (3
    # visits), and each time x*y has one count left that fits (3 more)
    f = parse_polynomial("x^2 + x*y + y^2", Ring.rationals(2))
    monkeypatch.setattr(rings, "WALK_BUDGET", 6)
    assert monomial_coefficient(f, 4, (4, 4)) == 19
    monkeypatch.setattr(rings, "WALK_BUDGET", 5)
    with pytest.raises(BudgetExceededError):
        monomial_coefficient(f, 4, (4, 4))


def test_walk_budget_covers_both_coefficient_reads(monkeypatch):
    f = parse_polynomial("x^2 + x*y + y^3", F5)
    assert monomial_coefficient(f, 12, (12, 12)) == f.pow(12).coefficient((12, 12))
    monkeypatch.setattr(rings, "WALK_BUDGET", 5)
    with pytest.raises(BudgetExceededError):
        monomial_coefficient(f, 12, (12, 12))
    with pytest.raises(BudgetExceededError):
        power_has_reduced_term(f, 12, 13)


@st.composite
def _sweeps(draw):
    """(gens, q, budget, start, steps): 1-3 generators of 1-4 terms in 1-4
    variables over F_2..F_7 with entries up to q + 1, q in [2, 64], None or
    a monic start lifted from the level below (exponents times p, as
    ``frobenius._levels`` builds it), and steps None or 1-4."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    ring = Ring.prime_field(n, p)
    q = draw(st.integers(2, 64))

    def terms(top):
        return st.lists(st.tuples(st.tuples(*[st.integers(0, top)] * n),
                                  st.integers(1, p - 1)), min_size=1, max_size=4)

    gens = [Polynomial(ring, dict(ts))
            for ts in draw(st.lists(terms(q + 1), min_size=1, max_size=3))]
    start = None
    if draw(st.booleans()):
        lifted = {tuple(x * p for x in u): c for u, c in draw(terms((q - 1) // p))}
        inv = ring.coeff_inv(lifted[max(lifted)])
        start = Polynomial(ring, {u: c * inv for u, c in lifted.items()})
    steps = draw(st.none() | st.integers(1, 4))
    return gens, q, draw(st.integers(0, 3000)), start, steps


def _sweep(text, p, q, budget=10**6, start=None, steps=None):
    return parse_generators(text, p), q, budget, start, steps


def _sweep_outcome(sweep, case):
    try:
        return sweep(*case)
    except BudgetExceededError:
        return "budget"


def _packed_sweep(gens, q, budget, start, steps):
    """``product_sweep`` with ``budget`` as its ``DEFAULT_PRODUCT_BUDGET``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("THRESHOLDS_BUDGET", raising=False)
        mp.setattr(rings, "DEFAULT_PRODUCT_BUDGET", budget)
        return product_sweep(gens, q, start, steps)


@example(_sweep("x^3*y + y^5, x*y^2 + 3*x", 5, 32))  # q a power of two
# y^15 * y^15 leaves 2q - 2 = 30 in the y slot, which must not reach x's
@example(_sweep("x^15 + y^15 + x*y, y^15 + x^3", 3, 16, steps=2))
@example(_sweep("x^8 + y, x*y + y^2", 2, 8))  # x^8 is dropped, but charged
@example(_sweep("x^8 + y, x*y + y^2", 2, 8, budget=9))
@example(_sweep("x^2 + 3*x^3, x^5", 7, 20))  # one variable
@example(_sweep("x^2 + y^3, x*y", 3, 9,  # x + y lifted from q = 3
                start=parse_polynomial("x^3 + y^3", Ring.prime_field(2, 3))))
@settings(max_examples=200)
@given(_sweeps())
def test_packed_sweep_matches_the_tuple_sweep(case):
    # the same degrees and the same monic products in the same order, or the
    # budget exceeded on both; the reference's exact charge passes, one pair
    # less raises
    expected = _sweep_outcome(product_sweep_reference, case)
    if expected == "budget":
        assert _sweep_outcome(_packed_sweep, case) == "budget"
        return
    gens, q, budget, start, steps = case
    charge = budget - expected[2]
    assert _packed_sweep(gens, q, charge, start, steps) == expected[:2]
    with pytest.raises(BudgetExceededError):
        _packed_sweep(gens, q, charge - 1, start, steps)


def test_sweep_start_lies_below_q():
    gens = parse_generators("x + y", 2)
    with pytest.raises(ValueError):
        product_sweep(gens, 4, start=parse_polynomial("x^4 + y", gens[0].ring))


@st.composite
def _row_lists(draw):
    """(rows, p): up to 8 sparse rows in x, y, z of degree <= 2 per variable
    with integers in [0, 2p) over F_2..F_13, repeated and zero rows among
    them."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    rows = draw(st.lists(st.dictionaries(exps, st.integers(0, 2 * p - 1), max_size=6),
                         max_size=8))
    return rows + rows[:draw(st.integers(0, 3))] + [{}], p


@given(_row_lists())
def test_echelon_matches_dense_elimination(case):
    rows, p = case
    cols = sorted({exp for row in rows for exp in row}, key=grevlex_key_reference,
                  reverse=True)
    rank, reduced = rank_mod_p([[row.get(exp, 0) for exp in cols] for row in rows], p)
    basis = echelon(rows, p)
    assert len(basis) == rank
    assert basis == [{exp: c for exp, c in zip(cols, row) if c} for row in reduced]


def test_echelon_example():
    x, y = (1, 0), (0, 1)
    rows = [{x: 1, y: 1}, {x: 1, y: 1}, {}, {x: 0}, {x: 2, y: 1}]
    assert echelon(rows, 3) == [{x: 1}, {y: 1}]  # x + y and 2x + y span both
    assert echelon(rows[:2], 3) == [{x: 1, y: 1}]


def test_pow_matches_repeated_multiplication():
    f = parse_polynomial("x^2+y^3", F5)
    acc = Polynomial.one(F5)
    for k in range(6):
        assert f.pow(k) == acc
        acc = acc * f


def test_pow_multiplies_from_the_first_set_bit(monkeypatch):
    f = parse_polynomial("x^2+y^3", F5)
    calls = []
    mul = Polynomial.mul

    def counted(self, *args):
        calls.append(1)
        return mul(self, *args)

    monkeypatch.setattr(Polynomial, "mul", counted)
    assert f.pow(1) == f and not calls
    for k in range(1, 6):
        calls.clear()
        f.pow(2**k)
        assert len(calls) == k  # k squarings, no product with 1
    calls.clear()
    f.pow(0b10110)
    assert len(calls) == 4 + 2  # 4 squarings, 2 set bits after the first


def test_mul_budget_counts_term_pairs(monkeypatch):
    # (1 + x)(1 - x) = 1 - x^2 multiplies 4 term pairs into 2 terms
    f, g = parse_polynomial("1 + x", F5), parse_polynomial("1 - x", F5)
    product = parse_polynomial("1 - x^2", F5)
    monkeypatch.setenv("THRESHOLDS_BUDGET", "4")
    assert f * g == product
    monkeypatch.setenv("THRESHOLDS_BUDGET", "3")
    with pytest.raises(BudgetExceededError):
        f * g


@given(polynomials(F5), polynomials(F5), st.integers(0, 1))
def test_derivative_obeys_leibniz(f, g, i):
    assert (f * g).derivative(i) == f.derivative(i) * g + f * g.derivative(i)


def test_derivative_examples():
    f = parse_polynomial("x^3 + 2*x*y^2 + y", Ring.rationals(2))
    assert f.derivative(0) == parse_polynomial("3*x^2 + 2*y^2", Ring.rationals(2))
    assert f.derivative(1) == parse_polynomial("4*x*y + 1", Ring.rationals(2))
    cube = parse_polynomial("x^3 + y^3 + z^3", Ring.prime_field(3, 3))
    assert all(cube.derivative(i).is_zero() for i in range(3))  # 3 = 0 in F_3


def test_ring_mismatch_rejected():
    f = parse_polynomial("x", QQ2)
    g = parse_polynomial("x", F5)
    with pytest.raises(ValueError):
        f + g
