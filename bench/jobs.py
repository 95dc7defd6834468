"""Seeded job lists for the three benchmark workloads.

Every workload is a fixed catalogue of CLI jobs, generated by class (one
class per subcommand) from ``POOL_SEED`` (``catalogue``).  ``record.py`` runs
the catalogue and stores it in ``reference.json`` with the reference
answers, split by job time at the recording commit: the ``ALWAYS`` slowest
jobs, and the others ordered with certified answers first and then by time.
A run takes the slowest jobs and, with its ``--seed``, one job from each
block of ``BLOCK`` consecutive others (``draw``), and shuffles the list.  So
every seed gets the same slow tail, the same cost profile and about the same
number of jobs of each class, and the end-to-end figures of two seeds differ
by measurement noise rather than by the mix: the slow end of the catalogue
is too sparse for a sample of it to keep ``job_p90_ms`` steady.  Every job is
solved well within the cap at the recording commit, and because the
catalogue is finite, every job a seed can draw has a reference answer: a
closed form (``check.closed_form``) or a recorded one.

Each job is an argv list without ``--format``; the runner appends
``--format json``.  The CLI's ``--seed`` flag is never passed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

POOL_SEED = 1107_2676

VARS = ("x", "y", "z", "w")
PRIMES_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _mono(exp) -> str:
    parts = [v if a == 1 else f"{v}^{a}" for v, a in zip(VARS, exp) if a]
    return "*".join(parts)


def _gens_text(exps) -> str:
    return ", ".join(_mono(e) for e in exps)


def _random_monomial_ideal(rng, n: int, k: int, top: int, m_primary: bool):
    """k distinct exponent vectors in n variables, each variable used."""
    exps = set()
    if m_primary:
        for i in range(n):
            exps.add(tuple(rng.randint(1, top) if j == i else 0 for j in range(n)))
    while len(exps) < k:
        v = tuple(rng.randint(0, top // 2 + 1) for _ in range(n))
        if any(v):
            exps.add(v)
    if not m_primary:
        for i in range(n):  # make sure every variable appears
            if all(e[i] == 0 for e in exps):
                exps.add(tuple(rng.randint(1, top) if j == i else 0 for j in range(n)))
    return sorted(exps)


def _diagonal(rng, n: int, lo: int, hi: int):
    return [tuple(rng.randint(lo, hi) if j == i else 0 for j in range(n))
            for i in range(n)]


# ----------------------------------------------------------------------
# monomial: the exact LP layer (newton, tau_monomial, asym) plus the
# numpy nu box
# ----------------------------------------------------------------------

def _mono_lct(rng):
    n = rng.choice((2, 3, 4))
    if rng.random() < 0.3:
        exps = _diagonal(rng, n, 1, 9)
    else:
        exps = _random_monomial_ideal(rng, n, rng.randint(max(3, n), 8), 7, False)
    return ["lct", "--monomial", _gens_text(exps)]


def _mono_newton(rng):
    n = rng.choice((2, 2, 3, 3, 4))
    if rng.random() < 0.3:
        exps = _diagonal(rng, n, 1, 9)
    else:
        k = rng.randint(max(3, n), 5 if n == 4 else 8)
        exps = _random_monomial_ideal(rng, n, k, 6, True)
    return ["newton", "--monomial", _gens_text(exps)]


def _mono_tau(rng):
    n = rng.choice((2, 3))
    exps = _random_monomial_ideal(rng, n, rng.randint(3, 6), 5, True)
    den = rng.randint(1, 6)
    num = rng.randint(1, (4 - n) * den)
    p = rng.choice((2, 3, 5, 7))
    return ["tau", "--poly", _gens_text(exps), "--p", str(p),
            "--lambda", str(Fraction(num, den))]


def _box_levels(n: int, cap: int):
    """(p, e) pairs whose nu exponent box (p^e)^n has at most ``cap`` cells."""
    return [(p, e) for p in (2, 3, 5, 7) for e in range(1, 9)
            if (p**e) ** n <= cap and p**e >= 4]


def _mono_nu(rng):
    n = rng.choice((2, 3))
    p, e = rng.choice(_box_levels(n, 20_000))
    if rng.random() < 0.3:
        exps = _diagonal(rng, n, 1, 7)
    else:
        exps = _random_monomial_ideal(rng, n, rng.randint(3, 6), 6, False)
    return ["nu", "--poly", _gens_text(exps), "--p", str(p), "--e", str(e)]


def _mono_asym(rng):
    return ["asym", "--mmax", str(rng.randint(128, 255))]


# ----------------------------------------------------------------------
# principal: few-term polynomials over F_p -- power_has_reduced_term,
# frobenius_root and membership in monomial ideals
# ----------------------------------------------------------------------

def _cusp_like(rng, p: int, perturb: float = 0.4) -> str:
    """Diagonal x^a + y^b, sometimes perturbed by one mixed term."""
    a, b = rng.randint(2, 4), rng.randint(3, 5)
    text = f"x^{a} + y^{b}"
    if rng.random() < perturb:
        i, j = rng.randint(1, a), rng.randint(1, b)
        if i * b + j * a > a * b:  # above the Newton diagonal
            c = rng.randint(1, p - 1) if p > 2 else 1
            text += f" + {_mono((i, j)) if c == 1 else f'{c}*{_mono((i, j))}'}"
    return text


def _hesse(t: int) -> str:
    mixed = "" if t == 0 else " + x*y*z" if t == 1 else f" + {t}*x*y*z"
    return "x^3 + y^3 + z^3" + mixed


def _smooth_hesse(rng, p: int) -> str:
    """x^3 + y^3 + z^3 + t*xyz with a smooth projective curve (p > 3)."""
    while True:
        t = rng.randint(0, p - 1)
        if (t**3 + 27) % p:
            return _hesse(t)


def _diag3(rng) -> str:
    return " + ".join(f"{v}^{rng.randint(2, 5)}" for v in VARS[:3])


def _prin_nu(rng):
    if rng.random() < 0.25:
        p = rng.choice((5, 7, 11, 13))
        return ["nu", "--poly", _smooth_hesse(rng, p), "--p", str(p), "--e", "1"]
    if rng.random() < 0.3:
        p, e = rng.choice([(p, e) for p in PRIMES_31 for e in (1, 2) if p**e <= 50])
        return ["nu", "--poly", _diag3(rng), "--p", str(p), "--e", str(e)]
    p = rng.choice(PRIMES_31)
    e = rng.choice([e for e in (1, 2, 3) if p**e <= 200])
    return ["nu", "--poly", _cusp_like(rng, p), "--p", str(p), "--e", str(e)]


def _prin_fpt(rng):
    p = rng.choice(PRIMES_31)
    e = rng.choice([e for e in (1, 2, 3) if p**e <= 200])
    return ["fpt", "--poly", _cusp_like(rng, p), "--p", str(p), "--e", str(e)]


def _multiplicative_order(p: int, d: int) -> int:
    b, x = 1, p % d
    while x != 1:
        x, b = x * p % d, b + 1
    return b


def _small_level(p: int, d: int) -> bool:
    """The prime-to-p part of d has a Frobenius level p^b of at most 27."""
    while d % p == 0:
        d //= p
    return d == 1 or p ** _multiplicative_order(p, d) <= 27


def _prin_tau(rng):
    p = rng.choice((2, 3, 5, 7, 11, 13))
    if rng.random() < 0.5:
        den = rng.choice([d for d in range(2, 40) if gcd(d, p) == 1 and _small_level(p, d)])
    else:
        den = rng.choice([d for d in range(p, 50, p) if _small_level(p, d)])
    num = rng.randint(1, den - 1)
    return ["tau", "--poly", _cusp_like(rng, p, 0), "--p", str(p),
            "--lambda", str(Fraction(num, den))]


def _prin_fjump(rng):
    p = rng.choice((2, 3, 5, 7, 11, 13))
    grid = rng.choice([g for g in range(2, 25) if _small_level(p, g)])
    return ["fjump", "--poly", _cusp_like(rng, p, 0), "--p", str(p),
            "--grid", str(grid)]


def _prin_compare(rng):
    a, b = rng.randint(2, 4), rng.randint(3, 4)
    return ["compare", "--poly", f"x^{a} + y^{b}", "--pmax", str(rng.randint(10, 25))]


def _prin_ordinary(rng):
    p = rng.choice((5, 7, 11, 13, 17, 19, 23, 29, 31))
    return ["ordinary", "--poly", _smooth_hesse(rng, p), "--p", str(p)]


def cusp_fpt(p: int) -> Fraction:
    """F-pure threshold of x^2 + y^3 over F_p (Criterion 3 of the tests)."""
    if p == 2:
        return Fraction(1, 2)
    if p == 3:
        return Fraction(2, 3)
    return Fraction(5, 6) if p % 3 == 1 else Fraction(5, 6) - Fraction(1, 6 * p)


# ----------------------------------------------------------------------
# ideal: non-principal, non-monomial ideals -- Buchberger and normal_form
# on ideal_power output along the ascending chain
# ----------------------------------------------------------------------

def _binomial(rng, n: int, p: int, top: int = 4) -> str:
    """A binomial or trinomial of order >= 2 and degree <= top, with no
    monomial factor: a pure power x_i^a plus terms, one of them free of x_i."""
    i = rng.randrange(n)
    terms = {tuple(rng.randint(2, top) if j == i else 0 for j in range(n))}
    while len(terms) < rng.choice((2, 2, 3)):
        exp = tuple(rng.randint(0, 3) for _ in range(n))
        if 2 <= sum(exp) <= top and (len(terms) > 1 or exp[i] == 0):
            terms.add(exp)
    out = []
    for exp in sorted(terms):
        c = rng.randint(1, p - 1) if p > 2 else 1
        out.append(_mono(exp) if c == 1 else f"{c}*{_mono(exp)}")
    return " + ".join(out)


def _ideal_gens(rng, p: int, k: int, n: int, top: int = 4) -> str:
    while True:
        gens = [_binomial(rng, n, p, top) for _ in range(k)]
        text = ", ".join(gens)
        if len(set(gens)) == k and all(v in text for v in VARS[:n]):
            return text


def _ideal_tau(rng):
    p, e = rng.choice(((2, 1), (2, 2), (3, 1)))
    n = rng.choice((2, 3)) if p == 2 else 2
    # lambda * p^e <= 3 keeps ideal_power at a handful of products
    num = rng.randint(2, 3)
    return ["tau", "--poly", _ideal_gens(rng, p, 2, n, 3), "--p", str(p),
            "--lambda", str(Fraction(num, p**e)), "--e", str(e)]


def _ideal_nu_args(rng):
    p, k = rng.choice((2, 3, 5)), rng.choice((2, 2, 3))
    e = rng.choice([e for e in (1, 2, 3) if p**e <= (16 if k == 2 else 9)])
    n = rng.choice((2, 3)) if p**e <= 9 else 2
    return ["--poly", _ideal_gens(rng, p, k, n), "--p", str(p), "--e", str(e)]


def _ideal_nu(rng):
    return ["nu", *_ideal_nu_args(rng)]


def _ideal_fpt(rng):
    return ["fpt", *_ideal_nu_args(rng)]


def _ideal_fjump(rng):
    p = rng.choice((2, 3))
    return ["fjump", "--poly", _ideal_gens(rng, p, 2, 2, 3), "--p", str(p),
            "--grid", str(rng.randint(2, 3)), "--e", "1"]


# ----------------------------------------------------------------------

# (class, generator, draws); a class's catalogue holds BLOCK jobs per draw.
# A run has ALWAYS + (3 * 120 - ALWAYS) / BLOCK = 136 jobs, more than a tenth
# of them from the fixed slow tail, so that job_p90_ms falls inside it.
BLOCK = 3
ALWAYS = 24
WORKLOADS = {
    "monomial": [
        ("lct", _mono_lct, 28),
        ("newton", _mono_newton, 26),
        ("tau", _mono_tau, 26),
        ("nu", _mono_nu, 26),
        ("asym", _mono_asym, 14),
    ],
    "principal": [
        ("nu", _prin_nu, 22),
        ("fpt", _prin_fpt, 22),
        ("tau", _prin_tau, 26),
        ("fjump", _prin_fjump, 14),
        ("compare", _prin_compare, 12),
        ("ordinary", _prin_ordinary, 24),
    ],
    "ideal": [
        ("tau", _ideal_tau, 44),
        ("nu", _ideal_nu, 32),
        ("fpt", _ideal_fpt, 30),
        ("fjump", _ideal_fjump, 14),
    ],
}


def catalogue(workload: str) -> dict:
    """Class name -> BLOCK * draws distinct argv lists, from POOL_SEED."""
    out = {}
    for cls, gen, k in WORKLOADS[workload]:
        rng = random.Random(f"{POOL_SEED}/{workload}/{cls}")
        seen, jobs = set(), []
        while len(jobs) < BLOCK * k:
            argv = gen(rng)
            if tuple(argv) not in seen:
                seen.add(tuple(argv))
                jobs.append(argv)
        out[cls] = jobs
    return out


def draw(ranked: dict, seed: int) -> list:
    """The run's job list of (class, argv): the slowest jobs and one job per
    block of the others, in an order shuffled by the seed."""
    rng = random.Random(seed)
    rest = ranked["blocks"]
    jobs = ranked["always"] + [rest[b + rng.randrange(BLOCK)]
                               for b in range(0, len(rest), BLOCK)]
    rng.shuffle(jobs)
    return [(argv[0], argv) for argv in jobs]
