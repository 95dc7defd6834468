"""Answer checking by meaning, with closed-form references where they exist.

``check(argv, out, ref)`` compares one job's JSON report ``out`` with its
references and raises ``WrongAnswer`` on any disagreement:

* exact values (lct, nu, multiplicity, ordinarity, jumps) must be equal;
* an fpt enclosure must have exact ``num/den`` endpoints and contain the
  closed-form value, or, against a recorded enclosure, overlap it (two proved
  enclosures of one number always meet, and a narrower one is fine);
* a test ideal is compared as a set of reduced Groebner-basis generators,
  each generator as a set of (monomial, coefficient mod p) pairs.

A job's reference is its closed form (``closed_form``) where one exists,
and otherwise ``ref``, the answer recorded in ``reference.json`` at the
recording commit.  A certified answer against a recorded one that was only a
lower bound cannot be decided here; ``check`` returns ``UNCHECKED`` for it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, isqrt, prod

from jobs import cusp_fpt

CHECKED = "checked"
UNCHECKED = "unchecked"


class WrongAnswer(Exception):
    pass


def _expect(cond: bool, msg: str):
    if not cond:
        raise WrongAnswer(msg)


_Q = re.compile(r"(-?\d+)/(\d+)")


def q(text) -> Fraction:
    """An exact rational rendered as ``num/den``; anything else is wrong."""
    m = _Q.fullmatch(str(text))
    _expect(m is not None and int(m.group(2)) > 0, f"not an exact rational: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2)))


_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+)\*?)?((?:[a-z]\w*(?:\^\d+)?\*?)*)")


def poly(text: str) -> dict:
    """``3*x^2*y + z`` -> {(("x", 2), ("y", 1)): 3, (("z", 1),): 1}."""
    out, pos, text = {}, 0, text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        _expect(m is not None and m.end() > pos, f"cannot read polynomial {text!r}")
        sign, coeff, mono = m.groups()
        exp = {}
        for factor in filter(None, mono.split("*")):
            name, _, power = factor.partition("^")
            exp[name] = exp.get(name, 0) + int(power or 1)
        key = tuple(sorted(exp.items()))
        value = int(coeff or 1) * (-1 if sign == "-" else 1)
        out[key] = out.get(key, 0) + value
        pos = m.end()
    return out


def _args(argv) -> dict:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _monomial_gens(text: str) -> list:
    """Generator list -> one {variable: exponent} dict per generator."""
    gens = []
    for piece in text.split(","):
        (key, coeff), = poly(piece).items()
        _expect(coeff == 1, "monomial generators are monic")
        gens.append(dict(key))
    return gens


def _diagonal_exponents(gens) -> list | None:
    """[a_1, ..., a_n] when the generators are x_i^{a_i} in distinct variables."""
    if any(len(g) != 1 for g in gens):
        return None
    names = [next(iter(g)) for g in gens]
    if len(set(names)) != len(names):
        return None
    return [next(iter(g.values())) for g in gens]


def _hesse_t(f: dict) -> int | None:
    """t when f is x^3 + y^3 + z^3 + t*xyz."""
    cubes = {(("x", 3),), (("y", 3),), (("z", 3),)}
    mixed = (("x", 1), ("y", 1), ("z", 1))
    if not cubes <= set(f) or set(f) - cubes - {mixed}:
        return None
    if any(f[c] != 1 for c in cubes):
        return None
    return f.get(mixed, 0)


def hesse_ordinary(t: int, p: int) -> bool:
    """Hasse invariant of x^3+y^3+z^3+t*xyz: coefficient of (xyz)^(p-1) in
    f^(p-1), which is the sum over a of (p-1)!/(a!^3 d!) t^d with 3a+d=p-1."""
    total = sum(
        factorial(p - 1) // (factorial(a) ** 3 * factorial(p - 1 - 3 * a))
        * t ** (p - 1 - 3 * a)
        for a in range((p - 1) // 3 + 1)
    )
    return total % p != 0


def principal_fpt(text: str, p: int) -> Fraction | None:
    """Closed-form F-pure threshold of one polynomial over F_p, if known."""
    f = {k: c % p for k, c in poly(text).items() if c % p}
    if f == {(("x", 2),): 1, (("y", 3),): 1}:
        return cusp_fpt(p)
    if all(len(k) == 1 for k in f) and all(c == 1 for c in f.values()):
        names = [k[0][0] for k in f]
        exps = [k[0][1] for k in f]
        if len(set(names)) == len(names) and p % prod(exps) == 1:
            return min(Fraction(1), sum(Fraction(1, a) for a in exps))
    return None


def fpt_lower_bound(text: str, p: int) -> Fraction | None:
    """A closed-form lower bound for fpt of the ideal the generators span.

    fpt is monotone in the ideal, so the largest closed-form fpt of a single
    generator bounds the ideal's threshold from below.
    """
    values = [v for g in text.split(",") if (v := principal_fpt(g, p)) is not None]
    return max(values) if values else None


def _golden_band():
    """Rational enclosure of the golden-ratio conjugate (sqrt(5) - 1) / 2."""
    scale = 10**30
    s = isqrt(5 * scale * scale)
    return Fraction(s - scale, 2 * scale), Fraction(s + 1 - scale, 2 * scale)


def _monomial_list(text: str) -> bool:
    return all(len(poly(g)) == 1 for g in text.split(","))


def closed_form(argv):
    """The closed-form reference for a job, or None.

    By command: the exponents of a diagonal monomial ideal (lct, newton); the
    nu value of a diagonal monomial ideal, sum of floor((p^e-1)/a_i); the fpt
    of one polynomial; ``"unit"`` when lambda lies below a closed-form lower
    bound for the fpt, so that tau is (1); the ordinarity of a Hesse cubic;
    ``"band"`` for the golden-ratio samples.
    """
    cmd, a = argv[0], _args(argv)
    if cmd in ("lct", "newton"):
        return _diagonal_exponents(_monomial_gens(a["monomial"]))
    if cmd == "asym":
        return "band"
    if cmd not in ("nu", "fpt", "tau", "ordinary"):
        return None
    p, text = int(a["p"]), a["poly"]
    if cmd == "ordinary":
        t = _hesse_t(poly(text))
        return None if t is None else hesse_ordinary(t, p)
    if cmd == "nu":
        exps = _diagonal_exponents(_monomial_gens(text)) if _monomial_list(text) else None
        return None if exps is None else sum((p ** int(a["e"]) - 1) // x for x in exps)
    if cmd == "fpt":
        return None if "," in text else principal_fpt(text, p)
    if _monomial_list(text):
        # fpt = lct for monomial ideals
        exps = _diagonal_exponents(_monomial_gens(text))
        bound = None if exps is None else sum(Fraction(1, x) for x in exps)
    else:
        bound = fpt_lower_bound(text, p)
    return "unit" if bound is not None and Fraction(a["lambda"]) < bound else None


# ----------------------------------------------------------------------

def _ideal(gens, p: int) -> frozenset:
    return frozenset(
        frozenset((k, c % p) for k, c in poly(g).items() if c % p) for g in gens
    )


def _interval(d: dict) -> tuple:
    lo, hi = q(d["lo"]), q(d["hi"])
    _expect(lo <= hi, f"empty enclosure [{lo}, {hi}]")
    return lo, hi


def certified(out: dict) -> bool:
    """The CLI's own notion, the one ``--strict`` enforces."""
    cmd = out["command"]
    if cmd == "fpt":
        return out["fpt"]["certified"]
    if cmd == "tau":
        return out["stabilized"]
    if cmd == "fjump":
        return out["certified"]
    if cmd == "compare":
        return all(r["relation"] != "inconclusive" for r in out["rows"])
    return True


def check(argv, out: dict, ref: dict | None) -> str:
    cmd, a = argv[0], _args(argv)
    closed = closed_form(argv)
    _expect(out.get("schema") == 1 and out.get("command") == cmd, "bad report header")
    _expect(ref is not None or closed is not None, "job has no reference")
    if cmd in ("nu", "fpt", "tau", "fjump", "ordinary"):
        _expect(out["p"] == int(a["p"]), "wrong p")

    if cmd == "lct":
        value = q(out["lct"])
        if closed is not None:
            _expect(value == sum(Fraction(1, x) for x in closed), f"lct {value}")
        if ref is not None:
            _expect(value == q(ref["lct"]), f"lct {value} != {ref['lct']}")
    elif cmd == "newton":
        gens = {tuple(g) for g in out["generators"]}
        if closed is not None:
            _expect(q(out["lct"]) == sum(Fraction(1, x) for x in closed), "lct")
            _expect(out["multiplicity"] == prod(closed), "multiplicity")
            _expect(sorted(sum(g) for g in gens) == sorted(closed), "generators")
        if out.get("m_primary"):
            _expect(out["amgm_holds"] is True, "e(a) lct(a)^n >= n^n fails")
        if ref is not None:
            _expect(gens == {tuple(g) for g in ref["generators"]}, "generators")
            for key in ("lct", "m_primary", "multiplicity", "amgm_holds"):
                _expect(out.get(key) == ref.get(key), f"{key} differs")
    elif cmd == "nu":
        _expect(out["e"] == int(a["e"]), "wrong e")
        if closed is not None:
            _expect(out["nu"] == closed, f"nu {out['nu']} != {closed}")
        if ref is not None:
            _expect(out["nu"] == ref["nu"], f"nu {out['nu']} != {ref['nu']}")
    elif cmd == "fpt":
        lo, hi = _interval(out["fpt"])
        if closed is not None:
            _expect(lo <= closed <= hi, f"[{lo}, {hi}] misses fpt {closed}")
        if ref is not None:
            rlo, rhi = _interval(ref["fpt"])
            _expect(lo <= rhi and rlo <= hi, f"[{lo}, {hi}] misses [{rlo}, {rhi}]")
    elif cmd == "tau":
        p = int(a["p"])
        _expect(q(out["lambda"]) == Fraction(a["lambda"]), "wrong lambda")
        got = _ideal(out["generators"], p)
        if closed == "unit":
            # every member of the chain is a lower bound, so only a certified
            # answer has to be the unit ideal
            if out["stabilized"]:
                _expect(got == _ideal(["1"], p), "tau below the fpt is not (1)")
        if ref is not None:
            if ref["stabilized"] or not out["stabilized"]:
                _expect(got == _ideal(ref["generators"], p), "tau ideal differs")
            else:
                return UNCHECKED
    elif cmd == "fjump":
        if ref is not None:
            if ref["certified"] or not out["certified"]:
                _expect(out["jumps"] == ref["jumps"], "jumps differ")
            else:
                return UNCHECKED
    elif cmd == "ordinary":
        if closed is not None:
            _expect(out["ordinary"] == closed, "ordinarity")
            p = int(a["p"])
            want = Fraction(1) if closed else Fraction(p - 1, p)
            _expect(q(out["cone_fpt"]) == want, "cone fpt")
        if ref is not None:
            _expect(out["ordinary"] == ref["ordinary"], "ordinarity")
    elif cmd == "asym":
        lo, hi = _golden_band()
        ms = [16]
        while 2 * ms[-1] <= int(a["mmax"]):
            ms.append(2 * ms[-1])
        _expect([s["m"] for s in out["samples"]] == ms, "sample points")
        for s in out["samples"]:
            v = q(s["value"])
            _expect(lo <= v <= hi + Fraction(1, s["m"]), f"m={s['m']} outside the band")
    elif cmd == "compare":
        _check_compare(a, out, ref)
    else:
        raise WrongAnswer(f"unknown command {cmd}")
    return CHECKED


def _check_compare(a, out, ref):
    f = poly(a["poly"])
    exps = [k[0][1] for k in f]
    lct0 = min(Fraction(1), sum(Fraction(1, x) for x in exps))
    modulus = prod(exps)
    primes = [p for p in range(2, int(a["pmax"]) + 1)
              if all(p % d for d in range(2, isqrt(p) + 1))
              and all(x % p for x in exps)]
    _expect([r["p"] for r in out["rows"]] == primes, "compared primes")
    cusp = sorted(exps) == [2, 3]
    for i, r in enumerate(out["rows"]):
        p = r["p"]
        lo, hi = _interval(r["fpt"])
        _expect(q(r["lct0"]) == lct0, "lct0")
        _expect(r["residue"] == p % modulus, "residue")
        _expect(hi <= lct0, "fpt enclosure above lct0")
        if p % modulus == 1:
            _expect(lo == hi == lct0, f"fpt at p={p} is lct0")
        if cusp:
            _expect(lo <= cusp_fpt(p) <= hi, f"cusp fpt at p={p}")
        relation = r["relation"]
        if relation == "equal":
            _expect(lo == hi == lct0, "equal row")
        elif relation == "fpt-less":
            _expect(hi < lct0, "fpt-less row")
        else:
            _expect(relation == "inconclusive" and lo < lct0 <= hi, "relation")
        if ref is not None:
            rlo, rhi = _interval(ref["rows"][i]["fpt"])
            _expect(lo <= rhi and rlo <= hi, f"fpt at p={p} misses the reference")
