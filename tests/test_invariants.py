"""The paper's identities as seeded relations between invariants.

Each relation shares no code with the engine it checks: it compares the
engine's answers on related inputs.  A draw that runs out of budget is
allowed and counted, and too many of them fail the test, so a budget
regression shows too.
"""

from hypothesis import given, settings, strategies as st

from thresholds.frobenius import nu
from thresholds.rings import BudgetExceededError, Polynomial, Ring

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
