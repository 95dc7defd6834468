"""Sparse multivariate polynomials over Q, Z and prime fields F_p.

Terms are stored in a dict keyed by exponent tuples (one nonnegative integer
per variable, arbitrary precision).  Coefficients are ``Fraction`` over Q,
``int`` over Z, and residues in ``[0, p)`` over F_p.  The coefficient field is
part of the ring context; mixing ring contexts raises ``RingMismatchError``
rather than coercing.

Besides the ring arithmetic this module provides the two characteristic-p
primitives everything else is built on:

* ``frobenius_decompose(h, e)`` writes ``h = sum_w u_w^{p^e} * x^w`` over the
  monomial basis ``x^w`` with every entry of ``w`` in ``[0, p^e - 1]``.
* ``monomial_coefficient(f, k, u)`` extracts the coefficient of ``x^u`` in
  ``f^k`` without expanding ``f^k`` when ``f`` has few terms (multinomial sum,
  reduced mod p by the Lucas rule).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

Exponent = tuple  # tuple[int, ...], one entry per variable

DEFAULT_TERM_BUDGET = 10**7


class RingMismatchError(ValueError):
    """Operands belong to different ring contexts."""


class BudgetExceededError(RuntimeError):
    """A term-count or combinatorial budget was exhausted."""


class ParseError(ValueError):
    """Syntax error in a polynomial expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _default_names(n: int) -> tuple:
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i + 1}" for i in range(n))


@dataclass(frozen=True)
class Ring:
    """Ring context: variable count, coefficient field tag, optional prime."""

    nvars: int
    fieldtag: str  # 'Q' | 'Z' | 'Fp'
    p: int | None = None
    names: tuple = field(default=())

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("ring needs at least one variable")
        if self.fieldtag not in ("Q", "Z", "Fp"):
            raise ValueError(f"unknown coefficient field {self.fieldtag!r}")
        if self.fieldtag == "Fp":
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"F_p ring requires a prime, got {self.p!r}")
        elif self.p is not None:
            raise ValueError("characteristic-zero ring must not carry a prime")
        if not self.names:
            object.__setattr__(self, "names", _default_names(self.nvars))
        if len(self.names) != self.nvars:
            raise ValueError("variable name count does not match nvars")

    @staticmethod
    def rationals(n: int, names: tuple = ()) -> "Ring":
        return Ring(n, "Q", None, names)

    @staticmethod
    def integers(n: int, names: tuple = ()) -> "Ring":
        return Ring(n, "Z", None, names)

    @staticmethod
    def prime_field(n: int, p: int, names: tuple = ()) -> "Ring":
        return Ring(n, "Fp", p, names)

    def coeff(self, value):
        """Normalize a raw value into this ring's coefficient domain."""
        if self.fieldtag == "Q":
            return Fraction(value)
        if self.fieldtag == "Z":
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise ValueError(f"{value} is not an integer coefficient")
                return value.numerator
            return int(value)
        return int(value) % self.p

    def coeff_inv(self, value):
        if self.fieldtag == "Q":
            return Fraction(1) / Fraction(value)
        if self.fieldtag == "Fp":
            return pow(int(value), self.p - 2, self.p)
        raise ValueError("no inverses over Z")


def grevlex_key(exp: Exponent):
    """Sort key realizing graded reverse lexicographic order (larger = bigger)."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


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

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

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
            raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")

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

    def mul(self, other: "Polynomial", term_budget: int = DEFAULT_TERM_BUDGET) -> "Polynomial":
        self._check(other)
        out = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(i + j for i, j in zip(ea, eb))
                out[exp] = out.get(exp, 0) + ca * cb
            if len(out) > term_budget:
                raise BudgetExceededError(
                    f"product exceeds term budget {term_budget}"
                )
        return Polynomial(self.ring, out)

    def scale(self, value) -> "Polynomial":
        c = self.ring.coeff(value)
        return Polynomial(self.ring, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        return self.pow(k)

    def pow(self, k: int, term_budget: int = DEFAULT_TERM_BUDGET) -> "Polynomial":
        """Binary powering with a term-count budget to fail fast."""
        if k < 0:
            raise ValueError("negative exponent")
        result = Polynomial.one(self.ring)
        base = self
        while k:
            if k & 1:
                result = result.mul(base, term_budget)
            k >>= 1
            if k:
                base = base.mul(base, term_budget)
        return result

    def shift(self, exp: Exponent) -> "Polynomial":
        """Multiply by the monomial x^exp."""
        return Polynomial(
            self.ring,
            {tuple(i + j for i, j in zip(e, exp)): c for e, c in self.terms.items()},
        )

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
    if h.ring.fieldtag != "Fp":
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


def frobenius_expand(components: dict, ring: Ring, e: int) -> Polynomial:
    """Inverse of :func:`frobenius_decompose`: sum of ``u_w^{p^e} x^w``."""
    q = ring.p**e
    out = Polynomial.zero(ring)
    for w, u in components.items():
        powered = Polynomial(
            ring, {tuple(x * q for x in exp): c for exp, c in u.terms.items()}
        )
        out = out + powered.shift(w)
    return out


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


def monomial_coefficient(f: Polynomial, k: int, u: Exponent):
    """Coefficient of ``x^u`` in ``f^k`` via a pruned multinomial sum.

    Enumerates compositions of ``k`` over the support of ``f`` whose exponent
    vectors add to exactly ``u``; contributions sharing an exponent vector are
    summed, so coefficient cancellation is handled correctly.  Agrees with the
    expansion path (tested); intended for few-term ``f``.
    """
    if k < 0:
        raise ValueError("negative power")
    u = tuple(u)
    if len(u) != f.ring.nvars:
        raise ValueError("exponent length mismatch")
    ring = f.ring
    if k == 0:
        return ring.coeff(1) if all(x == 0 for x in u) else ring.coeff(0)
    items = sorted(f.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)
    modp = ring.fieldtag == "Fp"
    acc = 0

    def descend(idx: int, remaining: int, target: Exponent, coeff_prod):
        nonlocal acc
        if idx == len(items) - 1:
            exp, c = items[idx]
            scaled = tuple(x * remaining for x in exp)
            if scaled == target:
                parts = counts + [remaining]
                mult = (
                    multinomial_mod_p(parts, ring.p)
                    if modp
                    else multinomial_exact(parts)
                )
                acc += mult * coeff_prod * c**remaining
            return
        exp, c = items[idx]
        cap = remaining
        for x, t in zip(exp, target):
            if x > 0:
                cap = min(cap, t // x)
        power = 1
        for j in range(cap + 1):
            new_target = tuple(t - j * x for t, x in zip(target, exp))
            counts.append(j)
            descend(idx + 1, remaining - j, new_target, coeff_prod * power)
            counts.pop()
            power = power * c
            if modp:
                power %= ring.p

    counts: list = []
    descend(0, k, u, 1)
    return ring.coeff(acc)


def power_has_reduced_term(
    f: Polynomial, k: int, bound: int, budget: int = 10**6
) -> bool:
    """Whether ``f^k`` has a nonzero term with every exponent below ``bound``.

    This decides ``f^k`` not in ``(x_1^bound, ..., x_n^bound)`` without
    expanding ``f^k``.  Contributions are grouped by exponent vector so
    cancellation mod p is respected; the search prunes any branch whose
    partial exponent already reaches ``bound`` in some coordinate.
    """
    if k == 0:
        return True
    ring = f.ring
    modp = ring.fieldtag == "Fp"
    items = list(f.terms.items())
    m = len(items)
    reduced: dict = {}
    visited = 0

    def descend(idx: int, remaining: int, partial: Exponent, coeff_prod):
        nonlocal visited
        visited += 1
        if visited > budget:
            raise BudgetExceededError("reduced-term enumeration budget exceeded")
        if idx == m - 1:
            exp, c = items[idx]
            final = tuple(x + y * remaining for x, y in zip(partial, exp))
            if any(x >= bound for x in final):
                return
            parts = counts + [remaining]
            mult = (
                multinomial_mod_p(parts, ring.p) if modp else multinomial_exact(parts)
            )
            contrib = mult * coeff_prod * c**remaining
            if modp:
                contrib %= ring.p
            if contrib:
                reduced[final] = (reduced.get(final, 0) + contrib) % ring.p if modp else reduced.get(final, 0) + contrib
            return
        exp, c = items[idx]
        cap = remaining
        for x, pa in zip(exp, partial):
            if x > 0:
                cap = min(cap, (bound - 1 - pa) // x)
        power = 1
        for j in range(cap + 1):
            new_partial = tuple(pa + j * x for pa, x in zip(partial, exp))
            counts.append(j)
            descend(idx + 1, remaining - j, new_partial, coeff_prod * power)
            counts.pop()
            power = power * c
            if modp:
                power %= ring.p

    counts: list = []
    descend(0, k, (0,) * ring.nvars, 1)
    return any(v != 0 for v in reduced.values())


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
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        out = self.parse_term()
        if sign < 0:
            out = -out
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_term()
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    def parse_term(self) -> Polynomial:
        out = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                out = out * self.parse_factor()
            else:
                return out

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, k, pos = self.next()
            if kind != "int":
                raise ParseError("expected integer exponent after '^'", pos)
            return base**k
        return base

    def parse_base(self) -> Polynomial:
        kind, val, pos = self.next()
        if kind == "int":
            # allow rational literals a/b over Q
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/" and self.ring.fieldtag == "Q":
                self.next()
                kind3, den, pos3 = self.next()
                if kind3 != "int" or den == 0:
                    raise ParseError("expected nonzero integer denominator", pos3)
                return Polynomial.constant(self.ring, Fraction(val, den))
            return Polynomial.constant(self.ring, val)
        if kind == "name":
            try:
                idx = self.ring.names.index(val)
            except ValueError:
                raise ParseError(f"unknown variable {val!r}", pos) from None
            return Polynomial.variable(self.ring, idx)
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
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


def infer_ring(text: str, fieldtag: str = "Q", p: int | None = None) -> Ring:
    """Build a ring from the variable names appearing in an expression."""
    names = sorted(set(_NAME_RE.findall(text)), key=_name_sort_key)
    if not names:
        names = ["x"]
    return Ring(len(names), fieldtag, p, tuple(names))


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
        c = f.terms[exp]
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(f.ring.names, exp)
            if e != 0
        )
        if not mono:
            body = _format_coeff(c if c > 0 or f.ring.fieldtag == "Fp" else -c)
        elif c == 1:
            body = mono
        else:
            mag = c if c > 0 or f.ring.fieldtag == "Fp" else -c
            body = mono if mag == 1 else f"{_format_coeff(mag)}*{mono}"
        negative = f.ring.fieldtag != "Fp" and c < 0
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
