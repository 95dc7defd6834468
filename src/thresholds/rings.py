"""Sparse multivariate polynomials over Q and prime fields F_p.

Terms are stored in a dict keyed by exponent tuples (one nonnegative integer
per variable, arbitrary precision).  Coefficients are ``Fraction`` over Q and
residues in ``[0, p)`` over F_p.  The ring context's prime fixes the
coefficient field (``p is None`` is Q); mixing ring contexts raises
``ValueError`` rather than coercing.

Besides the ring arithmetic this module provides the characteristic-p
primitives everything else is built on:

* ``frobenius_decompose(h, e)`` writes ``h = sum_w u_w^{p^e} * x^w`` over the
  monomial basis ``x^w`` with every entry of ``w`` in ``[0, p^e - 1]``.
* ``product_sweep`` forms the products of a generator list degree by degree,
  each multiset of generators once, optionally modulo ``m^[q]``; it gives
  both nu and the ideal powers a^r.  Inside the sweep an exponent is one
  packed int, so a product exponent is one addition and the test against
  ``m^[q]`` one mask.
* ``power_coefficients(f, k, ceiling)`` reads the coefficients of ``f^k`` at
  the exponents below a ceiling without expanding ``f^k`` (pruned
  multinomial walk, reduced mod p by the Lucas rule, whose last two counts
  come from a closed-form interval); coefficient extraction and the
  reduced-term test both read it.
* ``echelon(rows, p)`` is the one row reduction: sparse rows over F_p.

Every named budget is read through ``budget``, afresh in each call that
charges it.  This module owns four: the term budget of a product, the nodes
of the walk, the term pairs of ``product_sweep`` and the box budget, which
``charge_box`` charges for every box or scan whose size comes from the input.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, isqrt
from operator import add, le, neg

Exponent = tuple  # tuple[int, ...], one entry per variable

DEFAULT_TERM_BUDGET = 10**7
WALK_BUDGET = 10**6  # nodes a multinomial walk may visit
DEFAULT_BOX_BUDGET = 10**7  # points of a box or scan sized by the input
DEFAULT_PRODUCT_BUDGET = 10**6  # term pairs multiplied by product_sweep
MAX_NESTING = 100  # parentheses deeper than this are a parse error
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981  # least strong pseudoprime to PRIME_BASES


def budget(default: int) -> int:
    """``default``, or ``THRESHOLDS_BUDGET`` when that is set: every named
    budget is read here where it is charged, by library and CLI alike."""
    raw = os.environ.get("THRESHOLDS_BUDGET")
    if not raw:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # rejected below
    if cap < 1:
        raise ValueError(f"THRESHOLDS_BUDGET must be a positive integer, got {raw!r}")
    return cap


def charge_box(size: int, what: str) -> None:
    """Raise ``BudgetExceededError`` when a box or scan of ``size`` points,
    named ``what`` in the message, exceeds the box budget."""
    limit = budget(DEFAULT_BOX_BUDGET)
    if size > limit:
        raise BudgetExceededError(f"{what} exceeds budget {limit}")


class BudgetExceededError(RuntimeError):
    """A term-count or combinatorial budget was exhausted."""


class ParseError(ValueError):
    """Syntax error in a polynomial expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def is_prime(p: int) -> bool:
    """Miller-Rabin to the 13 prime bases 2..41, exact below PSI_13 (Sorenson
    and Webster, Math. Comp. 2017); at or above it, trial division, charged
    to the box budget first."""
    if p < 2:
        return False
    for a in PRIME_BASES:
        if p % a == 0:
            return p == a
    if p >= PSI_13:
        root = isqrt(p)
        charge_box(root // 2, f"trial division of {p}")
        return all(p % d for d in range(PRIME_BASES[-1] + 2, root + 1, 2))
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s * d, d odd
    for a in PRIME_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def _default_names(n: int) -> tuple:
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i + 1}" for i in range(n))


@dataclass(frozen=True)
class Ring:
    """Ring context: variable count, the prime p of F_p (None for Q), names."""

    nvars: int
    p: int | None = None
    names: tuple = field(default=())

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("ring needs at least one variable")
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"F_p ring requires a prime, got {self.p!r}")
        if not self.names:
            object.__setattr__(self, "names", _default_names(self.nvars))
        if len(self.names) != self.nvars:
            raise ValueError("variable name count does not match nvars")

    @staticmethod
    def rationals(n: int, names: tuple = ()) -> "Ring":
        return Ring(n, None, names)

    @staticmethod
    def prime_field(n: int, p: int, names: tuple = ()) -> "Ring":
        if p is None:
            raise ValueError("F_p ring requires a prime, got None")
        return Ring(n, p, names)

    def coeff(self, value):
        """Normalize a raw value into this ring's coefficient domain."""
        if self.p is None:
            return Fraction(value)
        return int(value) % self.p

    def coeff_inv(self, value):
        if self.p is None:
            return Fraction(1) / Fraction(value)
        return pow(int(value), self.p - 2, self.p)


def grevlex_key(exp: Exponent):
    """Sort key realizing graded reverse lexicographic order (larger = bigger)."""
    return (sum(exp), tuple(map(neg, reversed(exp))))


def echelon(rows, p: int) -> list:
    """The reduced row-echelon basis of the F_p-span of ``rows``, sparse term
    dicts keyed by exponent: each member is monic at its pivot, its grevlex-
    leading monomial, where no other member has a term, and the members come
    largest pivot first, so their number is the rank.  A new row is cleared
    at the kept pivots, made monic, and clears its own pivot from the rest."""
    cols = sorted({exp for row in rows for exp in row}, key=grevlex_key, reverse=True)
    index = {exp: i for i, exp in enumerate(cols)}  # a pivot is a row's least column
    kept: dict = {}  # pivot column -> monic row {column: residue}

    def subtract(r: dict, m: int, top: dict) -> None:  # r -= m * top
        for col, c in top.items():
            if v := (r.get(col, 0) - m * c) % p:
                r[col] = v
            else:
                del r[col]

    for row in rows:
        r = {index[exp]: v for exp, c in row.items() if (v := c % p)}
        for col in [col for col in r if col in kept]:  # kept rows meet no other pivot
            subtract(r, r[col], kept[col])
        if r:
            inv = pow(r[lead := min(r)], p - 2, p)
            kept[lead] = r = {col: c * inv % p for col, c in r.items()}
            for other in kept.values():
                if other is not r and lead in other:
                    subtract(other, other[lead], r)
    return [{cols[col]: c for col, c in kept[lead].items()} for lead in sorted(kept)]


class Polynomial:
    """Immutable sparse polynomial.  Do not mutate ``terms`` after creation."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        clean = {}
        for exp, c in terms.items():
            if len(exp) != ring.nvars:
                raise ValueError(f"exponent {exp} has wrong length for {ring}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = ring.coeff(c)
            if c != 0:
                clean[tuple(exp)] = c
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "Polynomial":
        return Polynomial(ring, {})

    @staticmethod
    def constant(ring: Ring, value) -> "Polynomial":
        return Polynomial(ring, {(0,) * ring.nvars: value})

    @staticmethod
    def one(ring: Ring) -> "Polynomial":
        return Polynomial.constant(ring, 1)

    @staticmethod
    def variable(ring: Ring, index: int) -> "Polynomial":
        exp = [0] * ring.nvars
        exp[index] = 1
        return Polynomial(ring, {tuple(exp): 1})

    @staticmethod
    def monomial(ring: Ring, exp: Exponent, coeff=1) -> "Polynomial":
        return Polynomial(ring, {tuple(exp): coeff})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def order(self) -> int:
        """Order of vanishing at the origin (min total degree of a term)."""
        if not self.terms:
            raise ValueError("zero polynomial has no order")
        return min(sum(e) for e in self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return self.mul(other)

    def mul(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        limit = budget(DEFAULT_TERM_BUDGET)
        out = {}
        a, b = self.terms, other.terms
        if len(a) * len(b) > limit:
            raise BudgetExceededError(f"product exceeds term budget {limit}")
        if len(a) > len(b):
            a, b = b, a
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(i + j for i, j in zip(ea, eb))
                out[exp] = out.get(exp, 0) + ca * cb
        return Polynomial(self.ring, out)

    def scale(self, value) -> "Polynomial":
        c = self.ring.coeff(value)
        return Polynomial(self.ring, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        return self.pow(k)

    def pow(self, k: int) -> "Polynomial":
        """Binary powering; the first set bit of k takes the base as is."""
        if k < 0:
            raise ValueError("negative exponent")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return Polynomial.one(self.ring) if result is None else result

    def derivative(self, index: int) -> "Polynomial":
        """Partial derivative in the variable of position ``index``."""
        return Polynomial(self.ring, {
            (*exp[:index], exp[index] - 1, *exp[index + 1:]): c * exp[index]
            for exp, c in self.terms.items() if exp[index]})

    def coefficient(self, exp: Exponent):
        return self.terms.get(tuple(exp), self.ring.coeff(0))

    def __repr__(self):
        return f"Polynomial({render_polynomial(self)!r})"


# ----------------------------------------------------------------------
# Frobenius basis decomposition
# ----------------------------------------------------------------------

def frobenius_decompose(h: Polynomial, e: int) -> dict:
    """Write ``h = sum_w u_w^{p^e} x^w`` with all entries of ``w`` below p^e.

    Returns a dict mapping basis exponents ``w`` to the polynomials ``u_w``;
    only nonzero components appear.  Over F_p the p^e-th root of a scalar is
    the scalar itself, so coefficients carry over unchanged.
    """
    if e <= 0:
        raise ValueError("e must be a positive integer")
    if h.ring.p is None:
        raise ValueError("frobenius_decompose requires an F_p ring")
    q = h.ring.p**e
    components: dict = {}
    for exp, c in h.terms.items():
        w = tuple(x % q for x in exp)
        v = tuple(x // q for x in exp)
        bucket = components.setdefault(w, {})
        bucket[v] = bucket.get(v, 0) + c
    return {
        w: poly
        for w, bucket in components.items()
        if (poly := Polynomial(h.ring, bucket))
    }


# ----------------------------------------------------------------------
# Multinomials mod p and coefficient extraction
# ----------------------------------------------------------------------

def multinomial_exact(parts) -> int:
    """Exact multinomial coefficient (sum(parts); parts)."""
    total = sum(parts)
    out = factorial(total)
    for k in parts:
        out //= factorial(k)
    return out


def _digits(n: int, p: int):
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


def multinomial_mod_p(parts, p: int) -> int:
    """Multinomial coefficient mod p by the Lucas rule.

    Nonzero exactly when the base-p digits of the parts add without carrying;
    the value is then the product of per-digit multinomials.
    """
    total = sum(parts)
    digit_lists = [_digits(k, p) for k in parts]
    total_digits = _digits(total, p)
    out = 1
    for pos in range(len(total_digits)):
        col = [d[pos] if pos < len(d) else 0 for d in digit_lists]
        if sum(col) != total_digits[pos]:
            return 0  # carry: coefficient vanishes mod p
        out = out * (multinomial_exact(col) % p) % p
    return out


def power_coefficients(f: Polynomial, k: int, ceiling: Exponent) -> dict:
    """Nonzero coefficients of ``f^k`` at the exponents ``<= ceiling``.

    Walks the compositions ``k = j_1 + ... + j_m`` over the terms
    ``c_i x^(a_i)`` of ``f``: one contributes ``multinomial(j) * prod c_i^j_i``
    at ``sum j_i a_i``.  A branch ends as soon as its partial exponent would
    pass the ceiling, and contributions are summed per exponent, so
    cancellation is respected without expanding ``f^k``.  The last two counts
    are solved, not searched: with ``r`` copies left for the terms ``a``
    and ``b``, ``j`` copies of ``a`` fit under the room ``R`` iff
    ``j*(a_i - b_i) <= s_i = R_i - r*b_i`` in every coordinate, an interval
    ``[lo, cap]``, so only the counts that reach the ceiling are visited.
    """
    if k < 0:
        raise ValueError("negative power")
    ring = f.ring
    ceiling = tuple(ceiling)
    if len(ceiling) != ring.nvars:
        raise ValueError("exponent length mismatch")
    p = ring.p
    # a fixed term order makes the walk independent of how f was built; the
    # zero polynomial walks as the single term 0*x^0, so 0^0 = 1
    items = sorted(f.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)
    zero = (0,) * ring.nvars
    items = items or [(zero, 0)]
    last = len(items) - 1
    out: dict = {}
    counts: list = []
    visits, limit = 0, budget(WALK_BUDGET)

    def descend(idx: int, remaining: int, room: Exponent, coeff_prod):
        # room is the ceiling minus the exponent formed so far
        nonlocal visits
        exp, c = items[idx]
        if idx == last:
            scaled = tuple([y * remaining for y in exp])
            if all(map(le, scaled, room)):
                final = tuple([t - r + y for t, r, y in zip(ceiling, room, scaled)])
                parts = counts + [remaining]
                mult = multinomial_mod_p(parts, p) if p else multinomial_exact(parts)
                out[final] = out.get(final, 0) + mult * coeff_prod * c**remaining
            return
        # the counts j with j*x + (remaining - j)*y <= r in every coordinate:
        # y is the last term's exponent when that term takes the other copies,
        # and 0 further up, where the terms between may take them
        lo, cap = 0, remaining
        for x, y, r in zip(exp, items[last][0] if idx == last - 1 else zero, room):
            s = r - remaining * y
            if x > y:
                cap = min(cap, s // (x - y))
            elif x < y:
                lo = max(lo, -(s // (y - x)))
            elif s < 0:
                return
        if cap < lo:
            return
        visits += cap - lo + 1
        if visits > limit:
            raise BudgetExceededError("multinomial walk exceeded its visit budget")
        power = pow(c, lo, p) if p else c**lo
        for j in range(lo, cap + 1):
            counts.append(j)
            descend(idx + 1, remaining - j,
                    tuple([r - j * x for r, x in zip(room, exp)]),
                    coeff_prod * power)
            counts.pop()
            power = power * c % p if p else power * c

    descend(0, k, ceiling, 1)
    return {exp: c for exp, v in out.items() if (c := ring.coeff(v))}


def monomial_coefficient(f: Polynomial, k: int, u: Exponent):
    """Coefficient of ``x^u`` in ``f^k``: the walk with ceiling ``u``."""
    return power_coefficients(f, k, u).get(tuple(u), f.ring.coeff(0))


def power_has_reduced_term(f: Polynomial, k: int, bound: int) -> bool:
    """Whether ``f^k`` has a nonzero term with every exponent below ``bound``,
    that is ``f^k`` not in ``(x_1^bound, ..., x_n^bound)``."""
    return bool(power_coefficients(f, k, (bound - 1,) * f.ring.nvars))


# ----------------------------------------------------------------------
# Products of generators
# ----------------------------------------------------------------------

def _times(prod, g, lift: int, guard: int, p: int):
    """Monic prod*g with every term that has an exponent >= q dropped.

    Products are frozensets of (packed exponent, coefficient) pairs and g is
    a tuple of them; a sum ``s`` of two packed exponents has an entry >= q
    iff ``(s + lift) & guard`` is nonzero (see :func:`product_sweep`).  The
    result is None when no term survives.
    """
    out: dict = {}
    for eb, cb in g:
        for ea, ca in prod:
            s = ea + eb
            if not (s + lift) & guard:
                out[s] = (out.get(s, 0) + ca * cb) % p
    if 0 in out.values():
        out = {exp: c for exp, c in out.items() if c}
    if not out:
        return None
    inv = pow(out[max(out)], p - 2, p)
    if inv != 1:
        out = {exp: c * inv % p for exp, c in out.items()}
    return frozenset(out.items())


def product_sweep(gens, q: int, start: Polynomial | None = None,
                  steps: int | None = None) -> tuple:
    """Multiply generator products up degree by degree modulo m^[q] over F_p.

    ``gens`` and ``start``, a monic product to begin from (1 when None),
    share one F_p ring; every exponent of ``start`` is below q.  Each degree
    keeps every monic product that is nonzero modulo m^[q] with the smallest
    generator index it may still be multiplied by; indices never decrease,
    so each multiset of generators is formed once, and equal monic products
    are kept once.  A product costs the number of term pairs it multiplies,
    charged to the sweep's own ``DEFAULT_PRODUCT_BUDGET``.  The sweep stops
    after ``steps`` degrees, or when none is given, before the first degree
    with no product left.  Returns the number of degrees taken and the
    products of the last one.

    Exponents are packed on entry into one int each, in slots of w + 1 bits,
    w = (2q).bit_length(), with x_1 in the highest slot, so that int order is
    tuple order (the monic product divides by the coefficient of ``max``).
    Two entries below q sum below 2q < 2^w, so a product exponent is one
    int addition; adding ``lift`` (2^w - q in every slot) sets bit w of a slot
    (``guard``) iff its entry is >= q.  A generator term with an entry >= q
    is dropped before packing, but still charged.
    """
    ring = gens[0].ring
    left = budget(DEFAULT_PRODUCT_BUDGET)
    start = Polynomial.one(ring) if start is None else start
    if any(max(exp) >= q for exp in start.terms):
        raise ValueError(f"start has an exponent >= q = {q}")
    w = (2 * q).bit_length()
    shifts = range((w + 1) * (ring.nvars - 1), -1, -w - 1)
    ones = sum(1 << shift for shift in shifts)
    lift, guard = ((1 << w) - q) * ones, (1 << w) * ones

    def pack(terms):
        out = []
        for exp, c in terms.items():
            if max(exp) < q:
                e = 0
                for x in exp:
                    e = e << w + 1 | x
                out.append((e, c))
        return tuple(out)

    sizes = [len(g.terms) for g in gens]
    terms = [pack(g.terms) for g in gens]
    frontier = {frozenset(pack(start.terms)): 0}
    taken = 0
    while steps is None or taken < steps:
        nxt: dict = {}
        for prod, first in frontier.items():
            size = len(prod)
            for j in range(first, len(terms)):
                left -= size * sizes[j]
                if left < 0:
                    raise BudgetExceededError(
                        "generator-product sweep exceeded its term budget"
                    )
                r = _times(prod, terms[j], lift, guard, ring.p)
                if r is not None and j < nxt.get(r, len(terms)):
                    nxt[r] = j
        if not nxt:
            break
        frontier, taken = nxt, taken + 1
    mask = (1 << w + 1) - 1
    return taken, [
        Polynomial(ring, {tuple([e >> shift & mask for shift in shifts]): c
                          for e, c in prod})
        for prod in frontier]


# ----------------------------------------------------------------------
# Parsing and rendering
# ----------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*^()/]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, ring: Ring):
        self.tokens = tokens
        self.i = 0
        self.ring = ring
        self.depth = 0  # open parentheses; each costs three stack frames

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse_expr(self) -> Polynomial:
        """A signed sum of terms, gathered in one term dict."""
        out, sign = {}, 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        while True:
            for exp, c in self.parse_term().items():
                out[exp] = out.get(exp, 0) + sign * c
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return Polynomial(self.ring, out)
            self.next()
            sign = -1 if val == "-" else 1

    def parse_term(self) -> dict:
        """A product of factors, as a term dict.  Integers and variables, each
        with an optional ``^k``, make one coefficient (reduced by ``pow(c, k,
        p)`` over F_p) and one exponent vector; only parenthesised factors
        and rational literals are ``Polynomial``s, multiplied in turn."""
        p = self.ring.p
        coeff, exp, poly = 1, [0] * self.ring.nvars, None
        while True:
            kind, val, pos = self.next()
            if kind == "int" and (p is not None or self.peek()[:2] != ("op", "/")):
                k = self.parse_power()
                coeff = coeff * val**k if p is None else coeff * pow(val, k, p) % p
            elif kind == "name":
                try:
                    idx = self.ring.names.index(val)
                except ValueError:
                    raise ParseError(f"unknown variable {val!r}", pos) from None
                exp[idx] += self.parse_power()
            else:
                factor = self.parse_base(kind, val, pos) ** self.parse_power()
                if coeff:  # a zero coefficient makes the term zero
                    poly = factor if poly is None else poly * factor
            kind, val, _ = self.peek()
            if kind != "op" or val != "*":
                break
            self.next()
        if poly is None:
            return {tuple(exp): coeff}
        return {tuple(map(add, e, exp)): c * coeff for e, c in poly.terms.items()}

    def parse_power(self) -> int:
        """The k of an optional ``^k`` after a factor, else 1."""
        kind, val, _ = self.peek()
        if kind != "op" or val != "^":
            return 1
        self.next()
        kind, k, pos = self.next()
        if kind != "int":
            raise ParseError("expected integer exponent after '^'", pos)
        return k

    def parse_base(self, kind, val, pos) -> Polynomial:
        """A rational literal a/b over Q or a parenthesised expression, from
        its first token; any other token there is an error."""
        if kind == "int":  # a/b over Q: parse_term takes every other integer
            self.next()
            kind, den, pos = self.next()
            if kind != "int" or den == 0:
                raise ParseError("expected nonzero integer denominator", pos)
            return Polynomial.constant(self.ring, Fraction(val, den))
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected coefficient, variable or '('", pos)


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse the ASCII grammar: ints, variables, ``+ - * ^``, parentheses."""
    parser = _Parser(_tokenize(text), ring)
    out = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return out


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


def parse_generators(text: str, p: int | None = None) -> list:
    """Parse a comma-separated generator list in the ring of its variable
    names (:func:`infer_ring`), over F_p for a prime p and over Q when p is
    None."""
    pieces = [s.strip() for s in text.split(",")]
    ring = infer_ring("+".join(pieces), p)
    return [parse_polynomial(s, ring) for s in pieces]


def infer_ring(text: str, p: int | None = None) -> Ring:
    """Build a ring from the variable names appearing in an expression, over
    F_p for a prime p and over Q when p is None."""
    names = sorted(set(_NAME_RE.findall(text)), key=_name_sort_key)
    if not names:
        names = ["x"]
    return Ring(len(names), p, tuple(names))


def _name_sort_key(name: str):
    m = re.fullmatch(r"([A-Za-z]+)(\d+)", name)
    if m:
        return (m.group(1), int(m.group(2)))
    return (name, -1)


def _format_coeff(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def render_polynomial(f: Polynomial) -> str:
    """Deterministic rendering in descending graded-reverse-lex term order."""
    if f.is_zero():
        return "0"
    pieces = []
    for exp in sorted(f.terms, key=grevlex_key, reverse=True):
        c = f.terms[exp]  # F_p residues are never negative
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(f.ring.names, exp)
            if e != 0
        )
        if not mono:
            body = _format_coeff(abs(c))
        else:
            body = mono if abs(c) == 1 else f"{_format_coeff(abs(c))}*{mono}"
        negative = c < 0
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
