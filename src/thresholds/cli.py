"""Command-line front end.

One subcommand per capability.  ``_COMMANDS`` declares each one's help, flags
and body; the parser and the dispatch both read it.  Reports are
deterministic; JSON output carries ``"schema": 1`` and renders every rational
as a ``"num/den"`` string.  Floating point appears only in explicitly labeled
``approx`` fields of asymptotic reports.

Exit codes: 0 success, 2 malformed input, 3 budget exhaustion (always) or
uncertified results under ``--strict``, 4 a broken invariant.  Each failure
prints one ``error:`` line and no traceback.  The console script exits 141,
the shell's status for SIGPIPE, with nothing on stderr when the reader of
its output closes the pipe early.

Importing this module loads only the standard library; each subcommand
imports the modules it runs when it is called.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction


def fmt_q(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _interval_dict(r) -> dict:
    return {
        "lo": fmt_q(r.lo),
        "hi": fmt_q(r.hi),
        "certified": r.is_exact,
        "method": r.method,
    }


def _parse_lambda(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--lambda expects a rational NUM/DEN, got {text!r}") from None


# ----------------------------------------------------------------------
# Subcommand bodies: each returns (report dict, certified flag).  ``run``
# parses --poly over F_p into ``args.gens`` and --lambda into a Fraction.
# ----------------------------------------------------------------------

def _cmd_lct(args):
    from thresholds import lct0, newton

    res = lct0.first_exact(lct0.CHAR0_RULES, newton.MonomialIdeal.parse(args.monomial))
    return {"lct": fmt_q(res.value), "method": res.method}, True


def _cmd_fpt(args):
    from thresholds import frobenius

    enc = frobenius.fpt_enclosure(args.gens, args.e)
    return {"fpt": _interval_dict(enc), "p": args.p}, enc.is_exact


def _cmd_nu(args):
    from thresholds import frobenius

    return {"nu": frobenius.nu(args.gens, args.e), "p": args.p, "e": args.e}, True


def _cmd_tau(args):
    from thresholds import testideal
    from thresholds.rings import render_polynomial

    res = testideal.tau(args.gens, args.lam, e_max=args.e)
    return {
        "lambda": fmt_q(args.lam),
        "p": args.p,
        "generators": [render_polynomial(g) for g in res.ideal.groebner()],
        "stabilized": res.stabilized,
        "e_used": res.e_used,
    }, res.stabilized


def _cmd_fjump(args):
    from thresholds import testideal

    rep = testideal.fjump_scan(args.gens, args.grid, args.lam, e_max=args.e)
    return {
        "p": args.p,
        "grid": rep.grid,
        "resolution": fmt_q(rep.resolution),
        "jumps": [fmt_q(j) for j in rep.jumps],
        "certified": rep.certified,
    }, rep.certified


def _cmd_newton(args):
    from thresholds import newton

    ideal = newton.MonomialIdeal.parse(args.monomial)
    lct = newton.lct_monomial(ideal) if ideal.is_proper() else None
    m_primary = ideal.is_m_primary()
    report = {
        "generators": [list(g) for g in ideal.gens],
        "lct": None if lct is None else fmt_q(lct),
        "m_primary": m_primary,
    }
    if m_primary:
        e = report["multiplicity"] = newton.multiplicity_monomial(ideal)
        report["amgm_holds"] = newton.check_amgm(e, lct, ideal.n)
    return report, True


def _cmd_asym(args):
    from thresholds import asymptotic

    est = asymptotic.golden_ratio_demo(args.mmax)
    return {
        "samples": [
            {"m": m, "value": fmt_q(v), "approx": float(v)}
            for m, v in est.samples
        ],
        "limit_lo": fmt_q(est.limit_lo),
        "limit_hi": fmt_q(est.limit_hi),
        "tag": "golden-ratio",
    }, True


def _cmd_compare(args):
    from thresholds import redmodp
    from thresholds.rings import charge_box, infer_ring, is_prime, parse_polynomial

    f = parse_polynomial(args.poly, infer_ring(args.poly))
    charge_box(args.pmax, f"--pmax {args.pmax}")
    primes = [p for p in range(2, args.pmax + 1) if is_prime(p)]
    rows = redmodp.compare(f, primes)
    if not rows:
        raise ValueError(f"--pmax {args.pmax} leaves no prime to compare (primes "
                         "that divide a coefficient or a part's order are skipped)")
    out = [{
        "p": r.p,
        "fpt": _interval_dict(r.fpt),
        "lct0": fmt_q(r.lct0),
        "relation": r.relation,
        "residue": r.residue,
    } for r in rows]
    return {"rows": out}, all(r.relation != redmodp.INCONCLUSIVE for r in rows)


def _cmd_ordinary(args):
    from thresholds import frobenius

    if len(args.gens) != 1:
        raise ValueError("ordinary expects a single cubic")
    cone_fpt = frobenius.fpt_cubic_cone(args.gens[0])
    return {"p": args.p, "ordinary": cone_fpt == 1, "cone_fpt": fmt_q(cone_fpt)}, True


# ----------------------------------------------------------------------
# The subcommand table: name -> (help, flags, body).  Each flag is a pair
# (option string, add_argument keywords); build_parser adds --format and
# --strict to every subcommand.
# ----------------------------------------------------------------------

_MONOMIAL = ("--monomial", {"required": True, "metavar": "GENS"})
_POLY = ("--poly", {"required": True})
_P = ("--p", {"type": int, "required": True})
_LAMBDA = {"dest": "lam", "metavar": "NUM/DEN"}

_COMMANDS = {
    "lct": ("log canonical threshold of a monomial ideal", [_MONOMIAL], _cmd_lct),
    "fpt": ("F-pure threshold enclosure", [
        _POLY, _P,
        ("--e", {"type": int, "default": 3, "help": "largest Frobenius level used"}),
    ], _cmd_fpt),
    "nu": ("largest i with a^i outside m^[p^e]", [
        _POLY, _P, ("--e", {"type": int, "required": True}),
    ], _cmd_nu),
    "tau": ("test ideal tau(a^lambda)", [
        _POLY, _P, ("--lambda", {**_LAMBDA, "required": True}),
        ("--e", {"type": int, "default": 5, "help": "chain length cap"}),
    ], _cmd_tau),
    "fjump": ("F-jumping numbers on a rational grid", [
        _POLY, _P, ("--grid", {"type": int, "required": True}),
        ("--lambda", {**_LAMBDA, "default": "1",
                      "help": "right end of the scanned interval"}),
        ("--e", {"type": int, "default": 5}),
    ], _cmd_fjump),
    "newton": ("Newton polyhedron report for a monomial ideal", [_MONOMIAL],
               _cmd_newton),
    "asym": ("golden-ratio graded-sequence convergence table", [
        ("--mmax", {"type": int, "default": 2048}),
    ], _cmd_asym),
    "compare": ("char-0 vs char-p thresholds of a Thom-Sebastiani sum", [
        ("--poly", {"required": True,
                    "help": "polynomial over Q whose lct0 a rule gives"}),
        ("--pmax", {"type": int, "default": 100}),
    ], _cmd_compare),
    "ordinary": ("ordinarity of a plane cubic over F_p", [_POLY, _P], _cmd_ordinary),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="thresholds",
        description="Exact singularity thresholds: log canonical and F-pure.",
    )
    sp = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _COMMANDS.items():
        sub = sp.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            sub.add_argument(flag, **kwargs)
        sub.add_argument("--format", choices=("json", "text"), default="text")
        sub.add_argument("--strict", action="store_true")
    return ap


def _render_text(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list):
            shown = " ".join(
                json.dumps(v, sort_keys=True) if isinstance(v, dict) else str(v)
                for v in value
            )
            lines.append(f"{pad}{key}: {shown}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from thresholds.rings import BudgetExceededError, budget, parse_generators

    try:
        budget(0)  # a malformed THRESHOLDS_BUDGET fails every subcommand
        if hasattr(args, "p"):
            args.gens = parse_generators(args.poly, args.p)
        if hasattr(args, "lam"):
            args.lam = _parse_lambda(args.lam)
        report, certified = _COMMANDS[args.command][2](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: invariant failed: {exc}", file=sys.stderr)
        return 4
    report = {"schema": 1, "command": args.command, **report}
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(_render_text(report))
    if args.strict and not certified:
        print("error: result not certified under --strict", file=sys.stderr)
        return 3
    return 0


def main():  # console-script entry point
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: the rest of stdout, flushed at exit, goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
