"""The paper's identities as seeded relations between invariants.

Each relation shares no code with the engine it checks: it compares the
engine's answers on related inputs.  A draw that runs out of budget is
allowed and counted, and too many of them fail the test, so a budget
regression shows too.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from helpers import frobenius_level, origin_polynomials
from thresholds.cli import run
from thresholds.frobenius import fpt_enclosure, nu
from thresholds.rings import (
    BudgetExceededError,
    Polynomial,
    Ring,
    parse_generators,
    render_polynomial,
)

FINISHED_SHARE = 0.8


@st.composite
def _triangular_substitutions(draw):
    """(gens, i, image): 1-2 generators of 1-3 terms in 2-3 variables over
    F_2 ... F_7, none with a constant term, and x_i's image x_i + c*x^u under
    a triangular automorphism, u in later variables with |u| >= 1."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(2, 3))
    ring = Ring.prime_field(n, p)
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * n).filter(any),
                     st.integers(1, p - 1))
    gen = st.lists(term, min_size=1, max_size=3, unique_by=lambda t: t[0]).map(
        lambda ts: Polynomial(ring, dict(ts)))
    gens = draw(st.lists(gen, min_size=1, max_size=2))
    i = draw(st.integers(0, n - 2))
    u = draw(st.tuples(*[st.integers(0, 2)] * (n - 1 - i)).filter(any))
    c = draw(st.integers(1, p - 1))
    shift = Polynomial.monomial(ring, (0,) * (i + 1) + u, c)
    return gens, i, Polynomial.variable(ring, i) + shift


def _substitute(f: Polynomial, i: int, image: Polynomial) -> Polynomial:
    """f with x_i replaced by image."""
    out = Polynomial.zero(f.ring)
    for exp, c in f.terms.items():
        rest = exp[:i] + (0,) + exp[i + 1:]
        out = out + Polynomial.monomial(f.ring, rest, c) * image.pow(exp[i])
    return out


def test_nu_is_invariant_under_a_triangular_substitution():
    # phi fixes the origin and phi(m^[q]) = m^[q], so nu(phi(a), e) = nu(a, e)
    finished = []

    @settings(max_examples=200)
    @given(_triangular_substitutions())
    def check(case):
        gens, i, image = case
        moved = [_substitute(g, i, image) for g in gens]
        p, e = gens[0].ring.p, 1
        try:
            while p**e <= 25:
                assert nu(moved, e) == nu(gens, e), (e, moved)
                e += 1
        except BudgetExceededError:
            finished.append(False)
        else:
            finished.append(True)

    check()
    assert sum(finished) >= FINISHED_SHARE * len(finished), (
        f"{finished.count(False)} of {len(finished)} draws ran out of budget")


@st.composite
def _respellings(draw):
    """(gens, combination): 1-2 generators of 1-3 terms in 2-3 variables over
    F_2 ... F_7, none with a constant term, and a nonzero F_p-combination of
    them."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ring = Ring.prime_field(draw(st.integers(2, 3)), p)
    gens = draw(st.lists(origin_polynomials(ring), min_size=1, max_size=2))
    combination = Polynomial.zero(ring)
    for g in gens:
        combination = combination + g.scale(draw(st.integers(0, p - 1)))
    assume(not combination.is_zero())
    return gens, combination


def test_nu_and_fpt_read_the_ideal_not_its_spelling():
    # appending a combination of the generators leaves the ideal as it is, so
    # every nu(e) and the fpt enclosure stay as they are
    finished = []

    @settings(max_examples=200)
    @given(_respellings())
    def check(case):
        gens, combination = case
        respelled = gens + [combination]
        p, e = gens[0].ring.p, 1
        try:
            while p**e <= 25:
                assert nu(respelled, e) == nu(gens, e), (e, respelled)
                e += 1
            assert fpt_enclosure(respelled, 2) == fpt_enclosure(gens, 2), respelled
        except BudgetExceededError:
            finished.append(False)
        else:
            finished.append(True)

    check()
    assert sum(finished) >= FINISHED_SHARE * len(finished), (
        f"{finished.count(False)} of {len(finished)} draws ran out of budget")


def _cli(argv):
    """(exit code, JSON report or None) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv + ["--format", "json"])
    return code, json.loads(out.getvalue()) if code == 0 else None


@st.composite
def _principal_polynomials(draw):
    """f of 2-3 terms in 2-3 variables over F_2 ... F_7, no constant term."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    return draw(origin_polynomials(Ring.prime_field(draw(st.integers(2, 3)), p),
                                   min_terms=2))


def _small_level_grid(p: int) -> list:
    """The rationals in (0, 1] of denominator at most 12 whose part prime to
    p has a level p^b <= 27 (p^b = 1 mod it), and whose p-part is at most p^2."""
    def fits(d):
        m = 0
        while d % p == 0:
            d, m = d // p, m + 1
        return m <= 2 and frobenius_level(p, d) <= 27

    return sorted({Fraction(a, d) for d in range(1, 13) if fits(d)
                   for a in range(1, d + 1)})


def _outside_m(generators: list, p: int) -> bool:
    """Whether the ideal of the rendered generators is not inside the maximal
    ideal m of the origin: some generator has a nonzero constant term."""
    return any(not any(exp) for g in parse_generators(", ".join(generators), p)
               for exp in g.terms)


def test_tau_leaves_m_exactly_below_the_fpt_enclosure():
    # tau(f^t) is not inside m iff t < fpt(f) at the origin, and lo < fpt <= hi
    # for the [lo, hi] of `fpt`; f may vanish elsewhere, so tau itself need not
    # be (1).  The three grid points on each side of [lo, hi] are checked.
    finished = []

    @settings(max_examples=40)
    @given(_principal_polynomials())
    def check(f):
        p, text = f.ring.p, render_polynomial(f)
        code, rep = _cli(["fpt", "--poly", text, "--p", str(p), "--e", "2"])
        if code == 3:
            finished.append(False)
            return
        lo, hi = (Fraction(rep["fpt"][end]) for end in ("lo", "hi"))
        grid = _small_level_grid(p)
        ok = True
        for t in [t for t in grid if t < lo][-3:] + [t for t in grid if t >= hi][:3]:
            code, tau = _cli(["tau", "--poly", text, "--p", str(p), "--lambda", str(t)])
            if code == 3 or code == 0 and t < lo and not tau["stabilized"]:
                ok = False
                continue
            assert code == 0, (text, p, t, code)
            assert _outside_m(tau["generators"], p) == (t < lo), (text, p, t, lo, hi, tau)
        finished.append(ok)

    check()
    assert sum(finished) >= FINISHED_SHARE * len(finished), (
        f"{finished.count(False)} of {len(finished)} draws ran out of budget")
