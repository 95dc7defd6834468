"""Groebner bases over F_p in graded reverse lexicographic order.

Buchberger's algorithm with the coprimality and chain criteria, followed by
reduction to the unique reduced basis, so ideal equality is a tuple
comparison.  Ideals generated by monomials skip all of this: a ``PolyIdeal``
of single-term generators stores its minimal monomial generators
(:class:`thresholds.newton.MonomialIdeal`), which are its reduced basis, so
containment is plain divisibility and equality compares exponent tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from thresholds.newton import MonomialIdeal, minimal_points
from thresholds.rings import (
    BudgetExceededError,
    Polynomial,
    Ring,
    grevlex_key,
    product_sweep,
)

DEFAULT_PAIR_BUDGET = 10**5


def _leading(f: Polynomial):
    """(exponent, coefficient) of the grevlex-leading term."""
    exp = max(f.terms, key=grevlex_key)
    return exp, f.terms[exp]


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the basis (full reduction)."""
    ring = f.ring
    remainder: dict = {}
    work = dict(f.terms)
    leads = [(_leading(g)[0], _leading(g)[1], g) for g in basis]
    while work:
        exp = max(work, key=grevlex_key)
        coeff = work.pop(exp)
        for lexp, lc, g in leads:
            if _divides(lexp, exp):
                factor = Polynomial.monomial(
                    ring,
                    tuple(a - b for a, b in zip(exp, lexp)),
                    ring.coeff(coeff * ring.coeff_inv(lc)),
                )
                for e2, c2 in (factor * g).terms.items():
                    if e2 == exp:
                        continue
                    c = ring.coeff(work.get(e2, 0) - c2)
                    if c == 0:
                        work.pop(e2, None)
                    else:
                        work[e2] = c
                break
        else:
            remainder[exp] = coeff
    return Polynomial(ring, remainder)


def _s_poly(f: Polynomial, g: Polynomial) -> Polynomial:
    ring = f.ring
    (fe, fc), (ge, gc) = _leading(f), _leading(g)
    lcm = _lcm(fe, ge)
    mf = Polynomial.monomial(
        ring, tuple(a - b for a, b in zip(lcm, fe)), ring.coeff_inv(fc)
    )
    mg = Polynomial.monomial(
        ring, tuple(a - b for a, b in zip(lcm, ge)), ring.coeff_inv(gc)
    )
    return mf * f - mg * g


def groebner_basis(gens) -> tuple:
    """Reduced grevlex Groebner basis, monic, sorted by leading term."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("zero ideal has no generators here")
    ring = gens[0].ring
    if ring.fieldtag != "Fp":
        raise ValueError("groebner_basis expects an F_p ring")
    if any(g.ring != ring for g in gens):
        raise ValueError("generators live in different rings")

    basis = list(gens)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    processed = 0
    while pairs:
        # prefer the pair with the grevlex-smallest lcm (normal selection)
        pairs.sort(
            key=lambda ij: grevlex_key(
                _lcm(_leading(basis[ij[0]])[0], _leading(basis[ij[1]])[0])
            ),
            reverse=True,
        )
        i, j = pairs.pop()
        processed += 1
        if processed > DEFAULT_PAIR_BUDGET:
            raise BudgetExceededError("S-pair budget exceeded")
        fe, ge = _leading(basis[i])[0], _leading(basis[j])[0]
        lcm = _lcm(fe, ge)
        if lcm == tuple(a + b for a, b in zip(fe, ge)):
            continue  # coprime leading terms: S-poly reduces to zero
        if _chain_criterion(basis, pairs, i, j, lcm):
            continue
        r = normal_form(_s_poly(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(r)
            k = len(basis) - 1
            pairs.extend((k, t) for t in range(k))
    return _reduce_basis(basis)


def _chain_criterion(basis, pairs, i, j, lcm) -> bool:
    pairset = {frozenset(p) for p in pairs}
    for k in range(len(basis)):
        if k in (i, j):
            continue
        if not _divides(_leading(basis[k])[0], lcm):
            continue
        if frozenset((i, k)) not in pairset and frozenset((j, k)) not in pairset:
            return True
    return False


def _reduce_basis(basis) -> tuple:
    ring = basis[0].ring
    # keep the first member with each minimal leading term
    first: dict = {}
    for g in basis:
        first.setdefault(_leading(g)[0], g)
    keep = [first[lead] for lead in minimal_points(first)]
    # fully reduce each survivor against the others and make it monic
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(g, others) if others else g
        lc = _leading(r)[1]
        out.append(r.scale(ring.coeff_inv(lc)))
    out.sort(key=lambda g: grevlex_key(_leading(g)[0]))
    return tuple(out)


@dataclass(frozen=True)
class PolyIdeal:
    """Ideal in F_p[x] with a lazily computed reduced Groebner basis.

    An ideal given by single-term generators keeps its minimal monic
    monomials, in grevlex order, as both ``gens`` and its reduced basis.
    """

    ring: Ring
    gens: tuple

    def __init__(self, gens):
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            raise ValueError("need at least one nonzero generator")
        ring = gens[0].ring
        mono = MonomialIdeal.from_polynomials(gens)
        if mono is not None:
            gens = [
                Polynomial.monomial(ring, e)
                for e in sorted(mono.gens, key=grevlex_key)
            ]
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", tuple(gens))
        object.__setattr__(self, "_mono", mono)
        object.__setattr__(self, "_gb", None if mono is None else self.gens)

    def groebner(self) -> tuple:
        if self._gb is None:
            object.__setattr__(self, "_gb", groebner_basis(list(self.gens)))
        return self._gb

    def is_monomial(self) -> bool:
        return self._mono is not None

    def member(self, f: Polynomial) -> bool:
        if self._mono is not None:
            return all(self._mono.contains_monomial(t) for t in f.terms)
        if f.is_zero():
            return True
        return normal_form(f, self.groebner()).is_zero()

    def contains(self, other: "PolyIdeal") -> bool:
        return all(self.member(g) for g in other.gens)

    def equal(self, other: "PolyIdeal") -> bool:
        if self.ring != other.ring:
            return False
        if self._mono is not None and other._mono is not None:
            return self._mono.gens == other._mono.gens
        return self.groebner() == other.groebner()

    def product(self, other: "PolyIdeal") -> "PolyIdeal":
        return PolyIdeal([f * g for f in self.gens for g in other.gens])


def ideal_power(gens, r: int) -> list:
    """Generators of a^r over F_p: the monic degree-r products of the nonzero
    generators, each distinct one once.

    The products come from :func:`rings.product_sweep` with a ceiling q above
    every exponent of a degree-r product, so no term is dropped; the sweep
    is charged to ``frobenius.DEFAULT_PRODUCT_BUDGET``.
    """
    from thresholds import frobenius  # the budget is read at call time

    if r < 1:
        raise ValueError("power must be >= 1")
    ring = gens[0].ring
    terms = [tuple(g.terms.items()) for g in gens]
    q = 1 + r * max(max(exp) for g in gens for exp in g.terms)
    one = {frozenset({((0,) * ring.nvars, 1)}): 0}
    _, products, _ = product_sweep(
        terms, ring.p, q, one, frobenius.DEFAULT_PRODUCT_BUDGET, r
    )
    return [Polynomial(ring, dict(prod)) for prod in products]
