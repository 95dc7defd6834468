"""Acceptance suite: twelve end-to-end criteria, one verdict line each.

Each criterion records PASS or FAIL into ``conftest.CRITERION_RESULTS``; the
terminal-summary hook prints the verdict lines after the run.
"""

import functools
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import conftest
from oracles import frobenius_bracket_power, frobenius_expand
from thresholds.asymptotic import (
    GOLDEN_LO,
    HyperbolaQ,
    golden_ratio_demo,
    sqrt_enclosure,
    val_asym,
)
from thresholds.frobenius import (
    fpt_cubic_cone,
    fpt_enclosure,
    is_ordinary_cubic,
    nu,
)
from thresholds.grobner import PolyIdeal
from thresholds.newton import MonomialIdeal, check_amgm, lct_monomial, multiplicity_monomial
from thresholds.redmodp import EQUAL, INCONCLUSIVE, compare, reduce_mod_p
from thresholds.rings import (
    Polynomial,
    Ring,
    frobenius_decompose,
    is_prime,
    parse_polynomial,
)
from thresholds.testideal import (
    ascending_chain,
    check_p_scaling,
    check_skoda,
    fjump_scan,
    frobenius_root,
    tau,
)

PRIMES_100 = [p for p in range(2, 101) if is_prime(p)]


def criterion(k):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                conftest.CRITERION_RESULTS[k] = "FAIL"
                raise
            conftest.CRITERION_RESULTS[k] = "PASS"
        return wrapper
    return deco


def _diagonal_ideal(exps):
    n = len(exps)
    gens = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(exps)]
    return MonomialIdeal(n, gens)


@criterion(1)
def test_criterion_1_diagonal_lct():
    # lct of (x1^a1, ..., xn^an) is sum(1/ai); exponent order is irrelevant,
    # so multisets cover every tuple
    for n in range(1, 6):
        for exps in combinations_with_replacement(range(1, 11), n):
            assert lct_monomial(_diagonal_ideal(exps)) == sum(
                Fraction(1, a) for a in exps
            )


@criterion(2)
def test_criterion_2_cusp_nu_closed_form():
    for p in PRIMES_100:
        if p < 5:
            continue
        f = parse_polynomial("x^2 + y^3", Ring.prime_field(2, p))
        assert nu(f, 1) == (p - 1) // 2 + (p - 1) // 3


@criterion(3)
def test_criterion_3_cusp_enclosures():
    for p in (5, 7, 11, 13, 31, 37):
        f = parse_polynomial("x^2 + y^3", Ring.prime_field(2, p))
        enc = fpt_enclosure(f, 3)
        target = Fraction(5, 6) if p % 3 == 1 else Fraction(5, 6) - Fraction(1, 6 * p)
        assert enc.contains(target)
        assert enc.width() <= Fraction(1, p**3)


@criterion(4)
def test_criterion_4_maximal_ideal_nu():
    for n in (1, 2, 3):
        for p in (2, 3, 5):
            ring = Ring.prime_field(n, p)
            gens = [Polynomial.variable(ring, i) for i in range(n)]
            for e in (1, 2, 3):
                assert nu(gens, e) == (p**e - 1) * n


@criterion(5)
def test_criterion_5_cubic_ordinarity():
    for p in PRIMES_100:
        if p < 5 or p > 61:
            continue
        ring = Ring.prime_field(3, p)
        f = parse_polynomial("x^3 + y^3 + z^3", ring)
        ordinary = is_ordinary_cubic(f)
        assert ordinary == (p % 3 == 1)
        # independent oracle: full expansion of f^{p-1}
        oracle = f.pow(p - 1).coefficient((p - 1, p - 1, p - 1)) != 0
        assert ordinary == oracle
        assert fpt_cubic_cone(f) == (1 if ordinary else Fraction(p - 1, p))


def _staircase_ideals(max_exp):
    """Every monomial ideal in 2 variables with exponents <= max_exp,
    enumerated as antichains (strictly increasing x, strictly decreasing y)."""
    out = []

    def extend(prefix, min_a, max_b):
        for a in range(min_a, max_exp + 1):
            for b in range(0, max_b + 1):
                gens = prefix + [(a, b)]
                out.append(gens)
                if b > 0:
                    extend(gens, a + 1, b - 1)

    extend([], 0, max_exp)
    return out


def _oracle_root_gens(gens, q, max_exp):
    """Exhaustive scan: maximal u in the box with q*u dividing the generator."""
    oracle = []
    box = [(u1, u2) for u1 in range(max_exp + 1) for u2 in range(max_exp + 1)]
    for a in gens:
        feasible = [u for u in box if q * u[0] <= a[0] and q * u[1] <= a[1]]
        maximal = [
            u for u in feasible
            if not any(v != u and v[0] >= u[0] and v[1] >= u[1] for v in feasible)
        ]
        oracle.extend(maximal)
    return MonomialIdeal(2, oracle).gens


@criterion(6)
def test_criterion_6_frobenius_root():
    ideals = _staircase_ideals(6)
    assert len(ideals) == 3431  # all nonempty antichains in the 7x7 grid
    rings = {p: Ring.prime_field(2, p) for p in (2, 3)}
    for p in (2, 3):
        ring = rings[p]
        for e in (1, 2):
            q = p**e
            for gens in ideals:
                polys = [Polynomial(ring, {g: 1}) for g in gens]
                root = frobenius_root(polys, e)
                expect = _oracle_root_gens(gens, q, 6)
                got = MonomialIdeal(2, [max(g.terms) for g in root.gens])
                assert got.gens == expect, (p, e, gens)

    # random polynomial ideals: containment b <= root^[p^e]
    rng = random.Random(6)
    for trial in range(100):
        p = rng.choice((2, 3))
        e = rng.choice((1, 2))
        ring = Ring.prime_field(2, p)
        gens = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exp = (rng.randint(0, 6), rng.randint(0, 6))
                terms[exp] = ring.coeff(rng.randint(1, p - 1))
            gens.append(Polynomial(ring, terms))
        gens = [g for g in gens if g]
        if not gens:
            continue
        root = frobenius_root(gens, e)
        bracket = frobenius_bracket_power(root, e)
        assert all(bracket.member(g) for g in gens), (p, e, trial)


TAU_CATALOG_PRINCIPAL = [
    "x^2 + y^3",
    "x^3 + y^2",
    "x*y",
    "x^2 + y^2",
    "x^4 + y^3",
    "x^3 + y^3",
    "x^2*y",
]
TAU_CATALOG_PAIRS = [
    ("x^2", "y^3"),
    ("x^3", "y^2"),
    ("x", "y"),
    ("x^2", "x*y"),
]


@criterion(7)
def test_criterion_7_test_ideal_identities():
    for p in (5, 7):
        ring = Ring.prime_field(2, p)
        principal = [parse_polynomial(s, ring) for s in TAU_CATALOG_PRINCIPAL]
        pairs = [
            [parse_polynomial(s, ring) for s in pair] for pair in TAU_CATALOG_PAIRS
        ]
        assert len(principal) + len(pairs) >= 10
        for f in principal:
            chain = list(ascending_chain([f], Fraction(1, 2), 3))
            assert all(b.contains(a) for a, b in zip(chain, chain[1:]))
            assert check_p_scaling([f], Fraction(3, 2))
            # Skoda recursion for principal f at lambda >= 1
            for lam in (Fraction(3, 2), Fraction(2)):
                left = tau([f], lam).ideal
                right = PolyIdeal([f]).product(tau([f], lam - 1).ideal)
                assert left.equal(right)  # Groebner-backed equality
        for gens in pairs:
            assert check_skoda(gens, 2)
            assert check_p_scaling(gens, 1)


@criterion(8)
def test_criterion_8_fjump_scans():
    f7 = parse_polynomial("x^2 + y^3", Ring.prime_field(2, 7))
    rep = fjump_scan([f7], 42, 1)
    assert rep.certified
    assert rep.jumps == (Fraction(5, 6), Fraction(1))

    f5 = parse_polynomial("x^2 + y^3", Ring.prime_field(2, 5))
    rep = fjump_scan([f5], 150, 1)
    assert rep.certified
    assert rep.jumps[0] == Fraction(4, 5)


@criterion(9)
def test_criterion_9_amgm():
    rng = random.Random(9)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 4)
        max_exp = 4 if n == 4 else 6
        pures = [rng.randint(1, max_exp) for _ in range(n)]
        gens = [
            tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(pures)
        ]
        for _ in range(rng.randint(0, 2)):
            gens.append(tuple(rng.randint(0, max_exp) for _ in range(n)))
        ideal = MonomialIdeal(n, gens)
        if not ideal.is_m_primary():
            continue
        e, lct = multiplicity_monomial(ideal), lct_monomial(ideal)
        assert check_amgm(e, lct, n), gens
        checked += 1
    # equality exactly on equal-exponent diagonals
    for n, a in [(1, 4), (2, 3), (3, 2), (4, 2)]:
        ideal = _diagonal_ideal([a] * n)
        assert multiplicity_monomial(ideal) * lct_monomial(ideal) ** n == n**n


@criterion(10)
def test_criterion_10_golden_ratio():
    est = golden_ratio_demo(2048)
    assert abs(est.last() - GOLDEN_LO) < Fraction(5, 1000)
    v = val_asym(HyperbolaQ(), (1, 1), 2048)
    assert abs(v - 1) < Fraction(5, 1000)


@criterion(11)
def test_criterion_11_comparison_table():
    cusp = parse_polynomial("x^2 + y^3", Ring.rationals(2))
    rows = compare(cusp, PRIMES_100)
    assert {r.p for r in rows} == set(PRIMES_100) - {2, 3}
    for r in rows:
        assert r.relation != INCONCLUSIVE
        assert r.fpt.hi <= Fraction(5, 6)
        assert (r.relation == EQUAL) == (r.p % 3 == 1)
        if r.relation == EQUAL:
            assert r.fpt.value == Fraction(5, 6)


@criterion(12)
def test_criterion_12_property_spot_checks():
    """Seeded spot checks of each module's invariants; the full randomized
    suites run alongside in the per-module test files of this session."""
    rng = random.Random(12)
    F5 = Ring.prime_field(2, 5)

    def rand_poly(ring, terms=4, max_exp=5):
        return Polynomial(ring, {
            tuple(rng.randint(0, max_exp) for _ in range(ring.nvars)):
                ring.coeff(rng.randint(1, ring.p - 1))
            for _ in range(rng.randint(1, terms))
        })

    for _ in range(20):
        # rings: decompose/expand round trip
        h = rand_poly(F5)
        assert frobenius_expand(frobenius_decompose(h, 1), F5, 1) == h

        # newton: scaling law lct(I^r) = lct(I)/r
        exps = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        ideal = _diagonal_ideal(exps)
        r = rng.randint(2, 4)
        assert lct_monomial(ideal.scaled(r)) == lct_monomial(ideal) / r

        # lct0 via redmodp: reduction mod p respects products
        Q2 = Ring.rationals(2)
        a = Polynomial(Q2, {(1, 0): Fraction(rng.randint(1, 9), rng.randint(1, 4))})
        b = Polynomial(Q2, {(0, 1): Fraction(rng.randint(1, 9), 3)})
        assert reduce_mod_p(a * b, 7) == reduce_mod_p(a, 7) * reduce_mod_p(b, 7)

        # asymptotic: sqrt enclosures really enclose
        x = Fraction(rng.randint(0, 10**6), rng.randint(1, 100))
        lo, hi = sqrt_enclosure(x, 12)
        assert lo * lo <= x <= hi * hi

    # frobenius: growth bound p*nu(e) <= nu(e+1)
    for _ in range(5):
        f = rand_poly(F5, terms=3, max_exp=3)
        if not f or (0, 0) in f.terms:
            continue
        assert 5 * nu(f, 1) <= nu(f, 2) <= 5 * nu(f, 1) + 4

    # grobner: ideals recognize random combinations of their generators
    for _ in range(5):
        g1, g2 = rand_poly(F5, 2, 2), rand_poly(F5, 2, 2)
        if not (g1 and g2):
            continue
        I = PolyIdeal([g1, g2])
        assert I.member(g1 * rand_poly(F5, 2, 2) + g2 * rand_poly(F5, 2, 2))

    # testideal: monotonicity of tau in lambda
    f = parse_polynomial("x^2 + y^3", F5)
    lams = sorted(Fraction(rng.randint(0, 12), 6) for _ in range(4))
    taus = [tau([f], lam).ideal for lam in lams]
    for small, big in zip(taus, taus[1:]):
        assert small.contains(big)
