"""Groebner bases over F_p in graded reverse lexicographic order.

Buchberger's algorithm, followed by reduction to the unique reduced basis, so
ideal equality is a tuple comparison.  The untreated pairs sit in one store
in the order they were formed, and normal selection takes the pair with the
grevlex-smallest lcm, the newest one on a tie.  The product criterion
applies where a pair is formed (a pair with coprime leading terms never
enters the store) and the chain criterion where a pair is taken from it.
The first nonzero constant, among the generators or the remainders, ends
the loop: the ideal is (1), whose reduced basis is (1,).

Ideals generated by monomials skip all of this: a ``PolyIdeal`` of
single-term generators stores its minimal monomial generators
(:class:`thresholds.newton.MonomialIdeal`), which are its reduced basis, so
containment is plain divisibility and equality compares exponent tuples.

``PolyIdeal`` is the one characteristic-p ideal type: every entry point of
``frobenius`` and ``testideal`` starts from it, so the generators are
checked and classified (monomial or not) here and nowhere else.
"""

from __future__ import annotations

from operator import add, sub

from thresholds.newton import MonomialIdeal, minimal_points
from thresholds.rings import (
    BudgetExceededError,
    Polynomial,
    budget,
    grevlex_key,
    product_sweep,
)

# pairs taken from the pair store of one basis; coprime pairs never get there
DEFAULT_PAIR_BUDGET = 10**5


def _top(terms):
    """The grevlex-largest exponent of a term dict, in one pass: the largest
    total degree, and within it the lexicographically smallest reversed
    exponent, the order ``grevlex_key`` realises."""
    best, top = None, -1
    for exp in terms:
        d = sum(exp)
        if d > top or d == top and exp[::-1] < best[::-1]:
            best, top = exp, d
    return best


def _leading(f: Polynomial):
    """(exponent, coefficient) of the grevlex-leading term."""
    exp = _top(f.terms)
    return exp, f.terms[exp]


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _shifted(terms: dict, shift, c, p: int) -> dict:
    """The terms of c * x^shift * g, where ``terms`` are those of g over F_p."""
    return {tuple(map(add, exp, shift)): c * v % p for exp, v in terms.items()}


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the basis (full reduction) over F_p.

    Each step subtracts the scaled, shifted basis element from the work
    terms in place; no intermediate polynomial is built.
    """
    ring = f.ring
    p = ring.p
    remainder: dict = {}
    work = dict(f.terms)
    leads = [(*_leading(g), g.terms) for g in basis]
    while work:
        exp = _top(work)
        coeff = work.pop(exp)
        for lexp, lc, gterms in leads:
            if _divides(lexp, exp):
                shift = tuple(map(sub, exp, lexp))
                c = coeff * pow(lc, p - 2, p) % p
                for e2, c2 in gterms.items():
                    if e2 == lexp:
                        continue
                    e2 = tuple(map(add, e2, shift))
                    v = (work.get(e2, 0) - c * c2) % p
                    if v:
                        work[e2] = v
                    else:
                        work.pop(e2, None)
                break
        else:
            remainder[exp] = coeff
    return Polynomial(ring, remainder)


def _s_poly(f: Polynomial, g: Polynomial) -> Polynomial:
    p = f.ring.p
    (fe, fc), (ge, gc) = _leading(f), _leading(g)
    lcm = _lcm(fe, ge)
    out = _shifted(f.terms, tuple(map(sub, lcm, fe)), pow(fc, p - 2, p), p)
    for exp, c in _shifted(g.terms, tuple(map(sub, lcm, ge)),
                           pow(gc, p - 2, p), p).items():
        out[exp] = out.get(exp, 0) - c
    return Polynomial(f.ring, out)


def _fp_generators(gens) -> list:
    """The nonzero generators, which must share one F_p ring."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    ring = gens[0].ring
    if ring.p is None:
        raise ValueError("characteristic-p computations need an F_p ring")
    if any(g.ring != ring for g in gens):
        raise ValueError("generators live in different rings")
    return gens


def groebner_basis(gens) -> tuple:
    """Reduced grevlex Groebner basis, monic, sorted by leading term.

    A nonzero constant generator or remainder returns (1,) at once, with the
    pairs still pending untaken: the ideal is the unit ideal.
    """
    basis = _fp_generators(gens)
    unit = (Polynomial.one(basis[0].ring),)
    if any(g.total_degree() == 0 for g in basis):
        return unit
    # the untreated pairs, each (larger, smaller), in the order they were formed
    pending = dict.fromkeys(
        pair for k in range(len(basis)) for pair in _pairs_with(basis, k))
    left = budget(DEFAULT_PAIR_BUDGET)
    while pending:
        # normal selection: the grevlex-smallest lcm, the newest pair on a tie
        i, j = min(reversed(pending), key=lambda ij: grevlex_key(
            _lcm(_leading(basis[ij[0]])[0], _leading(basis[ij[1]])[0])))
        del pending[i, j]
        left -= 1
        if left < 0:
            raise BudgetExceededError("S-pair budget exceeded")
        lcm = _lcm(_leading(basis[i])[0], _leading(basis[j])[0])
        if _chain_criterion(basis, pending, i, j, lcm):
            continue
        r = normal_form(_s_poly(basis[i], basis[j]), basis)
        if r.total_degree() == 0:
            return unit
        if not r.is_zero():
            basis.append(r)
            pending.update(dict.fromkeys(_pairs_with(basis, len(basis) - 1)))
    return _reduce_basis(basis)


def _pairs_with(basis, k) -> list:
    """The pairs (k, t), t < k, whose leading terms share a variable.

    A pair with coprime leading terms is treated where it is formed: its
    S-polynomial reduces to zero (Buchberger's product criterion), so it
    never enters the pair store.
    """
    lead = _leading(basis[k])[0]
    return [(k, t) for t in range(k) if any(map(min, lead, _leading(basis[t])[0]))]


def _chain_criterion(basis, pending, i, j, lcm) -> bool:
    """Whether some other k has a leading term dividing lcm while neither
    pair (i, k) nor (j, k) is still pending."""
    for k in range(len(basis)):
        if k in (i, j):
            continue
        if not _divides(_leading(basis[k])[0], lcm):
            continue
        if ((max(i, k), min(i, k)) not in pending
                and (max(j, k), min(j, k)) not in pending):
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


class PolyIdeal:
    """Ideal in F_p[x] with a lazily computed reduced Groebner basis.

    Built from a ``Polynomial``, an iterable of them or another
    ``PolyIdeal``.  Zero generators are dropped; no generator left, a ring
    that is not F_p or generators from different rings raise ``ValueError``.
    ``monomial`` is the :class:`MonomialIdeal` of the generators when each is
    a single term (over a field a term generates the same ideal as its
    monomial), else None; such an ideal keeps its minimal monic monomials,
    in grevlex order, as both ``gens`` and its reduced basis.
    """

    def __init__(self, a):
        if isinstance(a, PolyIdeal):
            self.ring, self.gens, self.monomial, self._gb = (
                a.ring, a.gens, a.monomial, a._gb)
            return
        gens = _fp_generators([a] if isinstance(a, Polynomial) else a)
        ring = gens[0].ring
        self.ring, self.gens, self.monomial, self._gb = ring, tuple(gens), None, None
        if all(len(g.terms) == 1 for g in gens):
            self.monomial = MonomialIdeal(ring.nvars, [next(iter(g.terms)) for g in gens])
            self.gens = self._gb = tuple(Polynomial.monomial(ring, e) for e in sorted(
                self.monomial.gens, key=grevlex_key))

    def groebner(self) -> tuple:
        if self._gb is None:
            self._gb = groebner_basis(self.gens)
        return self._gb

    def member(self, f: Polynomial) -> bool:
        """Whether f is in the ideal; another ring raises ValueError."""
        if f.ring != self.ring:
            raise ValueError(f"ring mismatch: {f.ring} vs {self.ring}")
        if self.monomial is not None:
            return all(self.monomial.contains_monomial(t) for t in f.terms)
        if f.is_zero():
            return True
        return normal_form(f, self.groebner()).is_zero()

    def contains(self, other: "PolyIdeal") -> bool:
        return all(self.member(g) for g in other.gens)

    def equal(self, other: "PolyIdeal") -> bool:
        """Whether the ideals are equal; another ring raises ValueError."""
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {other.ring} vs {self.ring}")
        if self.monomial is not None and other.monomial is not None:
            return self.monomial.gens == other.monomial.gens
        return self.groebner() == other.groebner()

    def product(self, other: "PolyIdeal") -> "PolyIdeal":
        return PolyIdeal([f * g for f in self.gens for g in other.gens])


def ideal_power(gens, r: int) -> list:
    """Generators of a^r over F_p: the monic degree-r products of the nonzero
    generators, each distinct one once.

    The products come from :func:`rings.product_sweep` with a ceiling q above
    every exponent of a degree-r product, so no term is dropped; the sweep
    charges its own fresh ``rings.DEFAULT_PRODUCT_BUDGET``.
    """
    if r < 1:
        raise ValueError("power must be >= 1")
    q = 1 + r * max(max(exp) for g in gens for exp in g.terms)
    return product_sweep(gens, q, steps=r)[1]
