import argparse
import ast
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from helpers import SRC, within_seconds
import thresholds
import thresholds.frobenius as frobenius
import thresholds.grobner as grobner
import thresholds.lct0 as lct0
import thresholds.newton as newton
import thresholds.rings as rings
import thresholds.testideal as testideal
from thresholds.cli import _COMMANDS, build_parser, fmt_q, run
from thresholds.rings import Ring, parse_polynomial, render_polynomial

RATIONAL = re.compile(r"^-?\d+/\d+$")


def _json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0, out
    report = json.loads(out)
    assert report["schema"] == 1
    return report


def _walk_strings(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _walk_strings(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _walk_strings(v)
    elif isinstance(obj, str):
        yield obj


def test_fmt_q_always_fraction_form():
    assert fmt_q(1) == "1/1"
    assert fmt_q("5/6") == "5/6"


def test_lct_command(capsys):
    rep = _json(capsys, ["lct", "--monomial", "x^2, y^3"])
    assert rep["command"] == "lct"
    assert rep["lct"] == "5/6"


def test_nu_command(capsys):
    rep = _json(capsys, ["nu", "--poly", "x^2 + y^3", "--p", "5", "--e", "1"])
    assert rep["nu"] == 3


def test_fpt_command_rationals_are_strings(capsys):
    rep = _json(capsys, ["fpt", "--poly", "x^2 + y^3", "--p", "7", "--e", "2"])
    assert RATIONAL.match(rep["fpt"]["lo"]) and RATIONAL.match(rep["fpt"]["hi"])


def test_tau_command(capsys):
    rep = _json(
        capsys,
        ["tau", "--poly", "x^2 + y^3", "--p", "7", "--lambda", "5/6"],
    )
    assert rep["lambda"] == "5/6"
    assert rep["stabilized"] is True
    assert sorted(rep["generators"]) == ["x", "y"]


def test_fjump_command(capsys):
    rep = _json(
        capsys,
        ["fjump", "--poly", "x^2 + y^3", "--p", "7", "--grid", "42"],
    )
    assert rep["jumps"] == ["5/6", "1/1"]
    assert rep["certified"] is True


def test_newton_command(capsys):
    rep = _json(capsys, ["newton", "--monomial", "x^2, y^3"])
    assert rep["m_primary"] is True
    assert rep["multiplicity"] == 6
    assert rep["amgm_holds"] is True


def test_newton_command_computes_lct_and_multiplicity_once(capsys, monkeypatch):
    calls = {"multiplicity_monomial": 0, "solve_lp": 0}

    def counted(name):
        inner = getattr(newton, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(newton, name, counted(name))
    assert run(["newton", "--monomial", "x^2, y^3, x*y^2"]) == 0
    capsys.readouterr()
    assert calls == {"multiplicity_monomial": 1, "solve_lp": 1}


def test_asym_command_floats_only_in_approx(capsys):
    rep = _json(capsys, ["asym", "--mmax", "64"])
    for sample in rep["samples"]:
        assert RATIONAL.match(sample["value"])
        assert isinstance(sample["approx"], float)


def test_compare_command(capsys):
    rep = _json(capsys, ["compare", "--poly", "x^2 + y^3", "--pmax", "30"])
    for row in rep["rows"]:
        assert (row["relation"] == "equal") == (row["p"] % 6 == 1)


@pytest.mark.parametrize("poly, value", [
    ("x^2 + y*z^2 + w^3", "1/1"),
    ("x^2*y^3 + z^5", "8/15"),
])
def test_compare_takes_a_thom_sebastiani_sum(capsys, poly, value):
    rep = _json(capsys, ["compare", "--poly", poly, "--pmax", "40"])
    assert rep["rows"] and {(r["lct0"], r["residue"]) for r in rep["rows"]} == {(value, None)}


# One case per exact rule: (table, method, argv, exact value).  fpt reads the
# char-p rules of frobenius.CHAR_P_RULES, and F-pure from its level sweep;
# lct and compare read lct0.CHAR0_RULES: compare's lct0 is the char-0 rule's
# result, and its row at p = 7 = 1 mod 6 meets it by the digits rule.
_RULE_CASES = [
    ("p", "LP", ["fpt", "--poly", "x^2, y^3", "--p", "5"], "5/6"),
    ("p", "cubic-cone", ["fpt", "--poly", "x^3 + y^3 + z^3", "--p", "5"], "4/5"),
    # the cusp at p = 5: 1/2 = 0.222... and 1/3 = 0.1313... in base 5 carry in
    # column 2, so fpt = 2/5 + 1/5 + 1/5
    ("p", "digits", ["fpt", "--poly", "x^2 + y^3", "--p", "5"], "4/5"),
    ("p", "F-pure", ["fpt", "--poly", "x*y + x^3", "--p", "3"], "1/1"),
    ("0", "LP", ["lct", "--monomial", "x^2*y, y^4"], "5/8"),
    ("0", "closed-form", ["compare", "--poly", "2*x^2 + y^3", "--pmax", "7"], "5/6"),
]


@pytest.mark.parametrize("table, method, argv, value", _RULE_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in _RULE_CASES])
def test_each_exact_rule_answers_through_the_cli(capsys, table, method, argv, value):
    rules = ({("p", m) for m, _ in frobenius.CHAR_P_RULES}
             | {("0", m) for m, _ in lct0.CHAR0_RULES})
    assert rules <= {c[:2] for c in _RULE_CASES}, "a rule without a case"
    rep = _json(capsys, argv)
    if rep["command"] == "lct":
        assert (rep["method"], rep["lct"]) == (method, value)
        return
    if rep["command"] == "compare":
        assert {row["lct0"] for row in rep["rows"]} == {value}
        method, fpt = "digits", rep["rows"][-1]["fpt"]
    else:
        fpt = rep["fpt"]
    assert fpt == {"lo": value, "hi": value, "certified": True, "method": method}


def test_a_closed_pipe_exits_141_without_a_traceback():
    src = str(Path(thresholds.__file__).resolve().parent.parent)
    for argv in (["newton", "--monomial", "x^2, y^3"],
                 ["asym", "--mmax", "64", "--format", "json"]):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before anything is written
        try:
            done = subprocess.run(
                [sys.executable, "-m", "thresholds.cli", *argv], stdout=write,
                stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
                text=True, timeout=30,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, "")


def test_compare_f_pure_node_is_equal_at_every_prime(capsys):
    # x^2 + y^2 is F-pure at every odd p, so each row is exactly 1 = lct0: the
    # digits of 1/2 in base p are all (p - 1)/2, and no column carries
    rep = _json(capsys, ["compare", "--poly", "x^2 + y^2", "--pmax", "30", "--strict"])
    assert [row["p"] for row in rep["rows"]] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    for row in rep["rows"]:
        assert row["relation"] == "equal"
        assert row["fpt"]["method"] == "digits"


def test_ordinary_command(capsys, monkeypatch):
    calls = []
    coefficient = frobenius.monomial_coefficient
    monkeypatch.setattr(frobenius, "monomial_coefficient",
                        lambda *args: calls.append(args) or coefficient(*args))
    rep = _json(capsys, ["ordinary", "--poly", "x^3 + y^3 + z^3", "--p", "7"])
    assert rep["ordinary"] is True and rep["cone_fpt"] == "1/1"
    assert len(calls) == 1  # one coefficient of f^(p-1) per run
    rep = _json(capsys, ["ordinary", "--poly", "x^3 + y^3 + z^3", "--p", "5"])
    assert rep["ordinary"] is False and rep["cone_fpt"] == "4/5"


def test_ordinary_rejects_a_singular_cubic(capsys):
    # over F_3 the Fermat cubic is (x + y + z)^3: its fpt is 1/3, and the
    # cone formula's 2/3 would be wrong
    assert run(["ordinary", "--poly", "x^3+y^3+z^3", "--p", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "singular" in captured.err


def test_json_output_deterministic(capsys):
    argv = ["compare", "--poly", "x^2 + y^3", "--pmax", "40", "--format", "json"]
    assert run(argv) == 0
    first = capsys.readouterr().out.encode()
    assert run(argv) == 0
    second = capsys.readouterr().out.encode()
    assert first == second


def test_all_rationals_match_num_den(capsys):
    rep = _json(capsys, ["fjump", "--poly", "x^2 + y^3", "--p", "5", "--grid", "30"])
    for s in _walk_strings(rep):
        if "/" in s:
            assert RATIONAL.match(s), s


def test_text_format_renders(capsys):
    assert run(["lct", "--monomial", "x^2, y^3"]) == 0
    out = capsys.readouterr().out
    assert "lct: 5/6" in out


def test_parse_error_exit_2(capsys):
    assert run(["lct", "--monomial", "x +"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["nu", "--poly", "x^2 + y^3", "--p", "6", "--e", "1"]) == 2
    capsys.readouterr()
    assert run(["tau", "--poly", "x", "--p", "5", "--lambda", "1/0"]) == 2


def test_strict_uncertified_exit_3(capsys):
    # the cusp times a unit: not a Thom-Sebastiani sum, so only the sweep reads it
    argv = ["fpt", "--poly", "x^2 + x^2*y + y^3", "--p", "7", "--e", "2"]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + ["--strict"]) == 3
    captured = capsys.readouterr()
    assert "not certified" in captured.err
    # certified results pass under --strict
    assert run(["lct", "--monomial", "x, y", "--strict"]) == 0


def test_strict_accepts_a_point_enclosure(capsys):
    argv = ["fpt", "--poly", "x^2 + y^3", "--p", "2", "--e", "3", "--strict"]
    rep = _json(capsys, argv)
    assert rep["fpt"]["lo"] == rep["fpt"]["hi"] == "1/2"
    assert rep["fpt"]["certified"] is True


def test_budget_env_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("THRESHOLDS_BUDGET", "1")
    assert run(["nu", "--poly", "x^2 + y^3", "--p", "5", "--e", "2"]) == 3
    assert "error:" in capsys.readouterr().err
    # the digit scan of the cusp's two parts is charged to the box budget
    assert run(["fpt", "--poly", "x^2 + y^3", "--p", "5", "--e", "1"]) == 3
    assert capsys.readouterr().err == "error: digit scan of 1 columns exceeds budget 1\n"
    assert run(["lct", "--monomial", "x^2, y^3"]) == 3  # the ray LP's pivots
    assert "pivot budget" in capsys.readouterr().err
    monkeypatch.setenv("THRESHOLDS_BUDGET", "zero")
    assert run(["nu", "--poly", "x^2 + y^3", "--p", "5", "--e", "1"]) == 2


def test_budget_env_is_restored_after_each_run(capsys, monkeypatch):
    argv = ["nu", "--poly", "x^2 + y^3", "--p", "5", "--e", "2"]
    budgets = (frobenius.DEFAULT_BOX_BUDGET, frobenius.DEFAULT_PRODUCT_BUDGET,
               grobner.DEFAULT_PAIR_BUDGET)
    monkeypatch.setenv("THRESHOLDS_BUDGET", "1")
    assert run(argv) == 3
    monkeypatch.delenv("THRESHOLDS_BUDGET")
    assert run(argv) == 0
    assert (frobenius.DEFAULT_BOX_BUDGET, frobenius.DEFAULT_PRODUCT_BUDGET,
            grobner.DEFAULT_PAIR_BUDGET) == budgets


def test_budget_env_caps_the_chain_powers(capsys, monkeypatch):
    argv = ["tau", "--poly", "x^2 + y^3, x*y", "--p", "3", "--lambda", "1", "--e", "1"]
    assert run(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("THRESHOLDS_BUDGET", "20")
    assert run(argv) == 3
    # a^3 runs out of products before Buchberger runs out of S-pairs
    assert "generator-product sweep" in capsys.readouterr().err


def test_budget_env_caps_the_s_pairs(capsys, monkeypatch):
    # this tau is a proper ideal, so Buchberger never stops early at (1)
    argv = ["tau", "--poly", "z^2 + x*y, z^3 + x*y^2",
            "--p", "2", "--lambda", "3/2", "--e", "1"]
    assert run(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("THRESHOLDS_BUDGET", "40")
    assert run(argv) == 3
    # the products of a^3 fit; Buchberger takes more than 40 pairs
    assert capsys.readouterr().err == "error: S-pair budget exceeded\n"


def test_improper_ideal_has_no_threshold(capsys):
    assert run(["lct", "--monomial", "1, x"]) == 2
    assert capsys.readouterr().err == "error: improper ideal: threshold is infinite\n"
    rep = _json(capsys, ["newton", "--monomial", "1, x"])
    assert rep["lct"] is None and rep["m_primary"] is False


@pytest.mark.parametrize("gens, message", [
    ("x^2, 2*y", "monomial generators must be monic: '2*y'"),
    ("x^2, x + y", "'x + y' is not a monomial"),
])
def test_monomial_errors_name_the_stripped_piece(capsys, gens, message):
    assert run(["lct", "--monomial", gens]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_broken_invariant_exits_4_with_one_error_line(capsys, monkeypatch):
    def sweep_p_steps(gens, q, budget, start=None, steps=None):
        return gens[0].ring.p, [start], budget

    # a level that takes p steps breaks nu(e+1) <= p*nu(e) + l(p - 1), l = 1
    monkeypatch.setattr(frobenius, "product_sweep", sweep_p_steps)
    assert run(["nu", "--poly", "x^2 + x^2*y + y^3", "--p", "5", "--e", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: invariant failed: nu(1) = 5 is outside "
                            "[p*nu(0), p*nu(0) + l(p - 1)] = [0, 4], l = 1\n")


def test_ideal_level_above_the_window_exits_4(capsys, monkeypatch):
    # two generators over F_5: nu(1) = 3 puts nu(2) in [15, 15 + 2*4]
    monkeypatch.setattr(frobenius, "product_sweep",
                        lambda gens, q, *rest: ({5: 3, 25: 24}[q], [], None))
    assert run(["nu", "--poly", "x^2 + y^3, x*y + y^4", "--p", "5", "--e", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: invariant failed: nu(2) = 24 is outside "
                            "[p*nu(1), p*nu(1) + l(p - 1)] = [15, 23], l = 2\n")


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


_POLY = ("--poly", "poly", None, None, True)
_P = ("--p", "p", int, None, True)
_MONOMIAL = ("--monomial", "monomial", None, None, True)
# (option, dest, type, default, required) of each subcommand's own flags
_FLAGS = {
    "lct": [_MONOMIAL],
    "fpt": [_POLY, _P, ("--e", "e", int, 3, False)],
    "nu": [_POLY, _P, ("--e", "e", int, None, True)],
    "tau": [_POLY, _P, ("--lambda", "lam", None, None, True),
            ("--e", "e", int, 5, False)],
    "fjump": [_POLY, _P, ("--grid", "grid", int, None, True),
              ("--lambda", "lam", None, "1", False), ("--e", "e", int, 5, False)],
    "newton": [_MONOMIAL],
    "asym": [("--mmax", "mmax", int, 2048, False)],
    "compare": [_POLY, ("--pmax", "pmax", int, 100, False)],
    "ordinary": [_POLY, _P],
}


def test_parser_is_built_from_the_command_table():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(_COMMANDS) == list(_FLAGS)
    e_default = {}
    for name, parser in sub.choices.items():
        actions = {a.dest: a for a in parser._actions if a.dest != "help"}
        fmt, strict = actions.pop("format"), actions.pop("strict")
        assert tuple(fmt.choices) == ("json", "text") and fmt.default == "text"
        assert isinstance(strict, argparse._StoreTrueAction)
        assert [
            (a.option_strings[0], a.dest, a.type, a.default, a.required)
            for a in actions.values()
        ] == _FLAGS[name]
        if "e" in actions:
            e_default[name] = actions["e"].default
    # the parser keeps literals so that building it imports no library module
    loaded = _modules_after("import thresholds.cli as c\nc.build_parser()")
    assert {m for m in loaded if m.startswith("thresholds")} == {
        "thresholds", "thresholds.cli"
    }
    assert e_default["tau"] == e_default["fjump"] == testideal.DEFAULT_E_MAX


def test_readme_cli_example_names_each_subcommand_once():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    names = [line.split()[1] for line in block.splitlines()]
    assert sorted(names) == sorted(_COMMANDS)


def test_fpt_deep_level_encloses_cusp_threshold(capsys):
    rep = _json(capsys, ["fpt", "--poly", "x^2 + y^3", "--p", "97", "--e", "4"])
    lo, hi = Fraction(rep["fpt"]["lo"]), Fraction(rep["fpt"]["hi"])
    assert lo <= Fraction(5, 6) <= hi


def test_fpt_f_pure_stress_row_exits_0(capsys):
    # nu(1) = p - 1, so the surface is F-pure and its threshold is exactly 1;
    # E_8 with the term xyz is no Thom-Sebastiani sum, so the levels are read
    for e in ("1", "2", "3"):
        rep = _json(capsys, ["fpt", "--poly", "x^2 + y^3 + z^5 + x*y*z", "--p", "97",
                             "--e", e])
        assert rep["fpt"] == {"lo": "1/1", "hi": "1/1", "certified": True,
                              "method": "F-pure"}


@pytest.mark.parametrize("argv, key, value", [
    # f has a linear term, so it is smooth at 0 and F-pure
    (["fpt", "--poly", "x - y - 5*y^2*z - z^4", "--p", "97", "--e", "1"], "fpt",
     {"lo": "1/1", "hi": "1/1", "certified": True, "method": "F-pure"}),
    # (xy)^(p-1) is a term of f^(p-1) with coefficient 1
    (["fpt", "--poly", "x^3 + y^3 + z^3 + x*y", "--p", "97", "--e", "1"], "fpt",
     {"lo": "1/1", "hi": "1/1", "certified": True, "method": "F-pure"}),
    (["nu", "--poly", "x^3 + y^3 + z^3 + x*y", "--p", "97", "--e", "2"], "nu", 97**2 - 1),
    # two generators: the walk finds G^96 outside m^[97] for G = (x + y^2)(y + x^3),
    # so nu(1) = 2 * 96 and the threshold is exactly 2
    (["fpt", "--poly", "x + y^2, y + x^3", "--p", "97", "--e", "1"], "fpt",
     {"lo": "2/1", "hi": "2/1", "certified": True, "method": "F-pure"}),
])
def test_f_pure_past_the_sweep_budget_is_answered_by_the_walk(capsys, argv, key, value):
    # level 1 runs out of the product budget; the walk finds f^(p-1) outside m^[p]
    assert _json(capsys, argv)[key] == value


def test_first_level_past_the_sweep_budget_asks_the_walk(capsys, monkeypatch):
    monkeypatch.delenv("THRESHOLDS_BUDGET", raising=False)
    monkeypatch.setattr(rings, "DEFAULT_PRODUCT_BUDGET", 1)
    # the node and the cusp, each times the unit 1 + y on x^2, out of the
    # Thom-Sebastiani shape; (xy)^6 has coefficient 20 in it: F-pure, so
    # nu(e) = 7^e - 1
    node = "x^2 + x^2*y + y^2"
    assert _json(capsys, ["nu", "--poly", node, "--p", "7", "--e", "3"])["nu"] == 342
    rep = _json(capsys, ["fpt", "--poly", node, "--p", "7", "--e", "3"])
    assert rep["fpt"]["hi"] == "1/1" and rep["fpt"]["method"] == "F-pure"
    # (x^2 + x^2*y + y^3)^6 has no term with both exponents below 7: not F-pure
    assert run(["fpt", "--poly", "x^2 + x^2*y + y^3", "--p", "7", "--e", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: generator-product sweep exceeded its term budget\n"
    # two generators: the walk reads their product G, F-pure for (x + y^2)(y + x^3)
    rep = _json(capsys, ["fpt", "--poly", "x + y^2, y + x^3", "--p", "5", "--e", "1"])
    assert rep["fpt"] == {"lo": "2/1", "hi": "2/1", "certified": True, "method": "F-pure"}
    # but not for (x + y^2)(x^2 + y^3), although its first factor is F-pure
    assert run(["fpt", "--poly", "x + y^2, x^2 + y^3", "--p", "5", "--e", "1"]) == 3
    assert capsys.readouterr().err == (
        "error: generator-product sweep exceeded its term budget\n")


def test_an_f_pure_ideal_reads_its_generator_count(capsys):
    # G = (x + y^2)(y + x^3) has the term xy, so G^(p-1) is outside m^[p] and
    # nu(e) = 2(p^e - 1) from level 1 on: fpt = 2 with no sweep past level 1
    rep = _json(capsys, ["fpt", "--poly", "x + y^2, y + x^3", "--p", "5", "--e", "3"])
    assert rep["fpt"] == {"lo": "2/1", "hi": "2/1", "certified": True, "method": "F-pure"}
    # the same for the monomial ideal (x, y), whose box at 7^9 is never swept
    rep = _json(capsys, ["nu", "--poly", "x, y", "--p", "7", "--e", "9"])
    assert rep["nu"] == 80707212 == 2 * (7**9 - 1)


def test_fpt_smooth_cubic_stress_row_is_exact(capsys):
    # the Hesse cubic at p = 101 is smooth and ordinary; each level alone
    # gave [99/101, 100/101] at e = 1 and ran out of budget at e = 2
    for e in ("1", "2"):
        rep = _json(capsys, ["fpt", "--poly", "x^3+y^3+z^3+x*y*z", "--p", "101", "--e", e])
        assert rep["fpt"] == {"lo": "100/101", "hi": "100/101", "certified": True,
                              "method": "cubic-cone"}


def test_ordinary_large_prime_stress_row_exits_0(capsys):
    # the coefficient of (xyz)^(p-1) in (x^3+y^3+z^3+t*x*y*z)^(p-1) is the
    # sum over 3a + d = p - 1 of (p-1)!/(a!^3 d!) t^d, here with t = 1
    p = 401
    hasse = sum(factorial(p - 1) // (factorial(a) ** 3 * factorial(p - 1 - 3 * a))
                for a in range((p - 1) // 3 + 1)) % p
    rep = _json(capsys, ["ordinary", "--poly", "x^3+y^3+z^3+x*y*z", "--p", str(p)])
    assert rep["ordinary"] is (hasse != 0)
    assert rep["cone_fpt"] == ("1/1" if hasse else f"{p - 1}/{p}")


def test_tau_large_integer_lambda_exits_0(capsys):
    rep = _json(capsys, ["tau", "--poly", "x^2 + y^3", "--p", "5", "--lambda", "1500"])
    f = parse_polynomial("x^2 + y^3", Ring.prime_field(2, 5))
    assert rep["stabilized"] is True
    assert rep["generators"] == [render_polynomial(f.pow(1500))]


@pytest.mark.parametrize("poly, p, lam, seconds, gens", [
    ("x^2+y^3", 13, "29/35", 1, ["1"]),  # q = 13^4: f^24 is never expanded
    ("x^2+y^3+z^5", 7, "29/30", 10, ["1"]),
    ("x^2+y^3+z^7", 5, "22/23", 10, ["z", "y", "x"]),
])
def test_a_principal_tau_at_a_deep_level_is_answered(capsys, poly, p, lam, seconds, gens):
    # each root takes one base-p digit, so only f^d with d < p is expanded
    with within_seconds(seconds):
        rep = _json(capsys, ["tau", "--poly", poly, "--p", str(p), "--lambda", lam])
    assert rep["stabilized"] is True
    assert rep["generators"] == gens


@pytest.mark.parametrize("argv", [
    ["tau", "--poly", "x^2 + y^3, x*y", "--p", "5", "--lambda", "1/2", "--e", "0"],
    ["fjump", "--poly", "x^2 + y^3, x*y", "--p", "5", "--grid", "4", "--e", "0"],
    ["asym", "--mmax", "15"],
    ["fjump", "--poly", "x^2 + y^3", "--p", "5", "--grid", "4", "--lambda", "0"],
    ["ordinary", "--poly", "x^3 + y^3 + z^3", "--p", "4"],
    ["nu", "--poly", "x^2,,y^3", "--p", "3", "--e", "1"],  # an empty generator
    ["fpt", "--poly", "x^2,,y^3", "--p", "3"],
    ["tau", "--poly", "x^2,,y^3", "--p", "3", "--lambda", "1/2"],
    ["fjump", "--poly", "x^2,,y^3", "--p", "3", "--grid", "2"],
    ["ordinary", "--poly", "x^3 + y^3 + z^3,", "--p", "7"],
    ["compare", "--poly", "x^2+y^3", "--pmax", "1"],  # no prime left to compare
    ["compare", "--poly", "x^2+y^3", "--pmax", "-1"],
    ["compare", "--poly", "x^2 + y^4", "--pmax", "2"],  # 2 divides an exponent
    ["compare", "--poly", "x^2*y + x^5 + z^2"],  # no rule gives lct0
    ["compare", "--poly", "x^2 + 1"],  # f does not vanish at the origin
])
def test_invalid_parameters_exit_2_with_one_error_line(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_generators_are_parsed_before_lambda(capsys):
    assert run(["tau", "--poly", "x^2 + y^3", "--p", "6", "--lambda", "abc"]) == 2
    assert capsys.readouterr().err == "error: F_p ring requires a prime, got 6\n"
    assert run(["fjump", "--poly", "x^2,,y^3", "--p", "5", "--grid", "2",
                "--lambda", "abc"]) == 2
    assert "--lambda" not in capsys.readouterr().err


def test_compare_takes_no_level_option(capsys):
    # every row is exact by the digits rule, so there is no level to choose
    with pytest.raises(SystemExit) as exc:
        run(["compare", "--poly", "x^2+y^3", "--e", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --e 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tau", "--poly", "x", "--p", "5", "--lambda", "1/0"],
    ["fjump", "--poly", "x^2 + y^3", "--p", "5", "--grid", "4", "--lambda", "abc"],
])
def test_lambda_errors_name_the_flag(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--lambda" in err and argv[-1] in err


def test_compare_zero_polynomial_is_not_a_diagonal(capsys):
    assert run(["compare", "--poly", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: no rule gives the characteristic-zero threshold of f\n")


def test_lambda_takes_what_fraction_takes(capsys):
    rep = _json(capsys, ["tau", "--poly", "x", "--p", "5", "--lambda", "0.5"])
    assert rep["lambda"] == "1/2"


def test_huge_lambda_exits_3_on_the_term_budget():
    # Skoda forms f^(10^6); the product budget refuses it before multiplying
    src = str(Path(thresholds.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "thresholds.cli", "tau", "--poly", "x^2+y^3",
         "--p", "5", "--lambda", "1e6"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=30,
    )
    assert done.returncode == 3
    assert done.stderr.startswith("error: product exceeds term budget")


def test_a_huge_monomial_lambda_exits_3_on_the_box_budget(capsys):
    # the tau scan would visit 2*10^20 + 1 prefixes; the box budget refuses
    code = run(["tau", "--poly", "x^2, y^3", "--p", "2", "--lambda", "1e20"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: tau prefix box of") and err.count("\n") == 1


def test_a_monomial_tau_past_the_generator_budget_exits_3(capsys, monkeypatch):
    # tau((x^2, y^3)^10) has more than five minimal generators
    monkeypatch.setattr(testideal, "DEFAULT_GENERATOR_BUDGET", 5)
    code = run(["tau", "--poly", "x^2, y^3", "--p", "2", "--lambda", "10"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: tau exceeds generator budget 5\n"


def test_a_large_monomial_lambda_is_answered(capsys):
    with within_seconds(5):
        rep = _json(capsys, ["tau", "--poly", "x^2, y^3", "--p", "2",
                             "--lambda", "1000"])
    # x^i y^j is in tau iff 3(i+1) + 2(j+1) > 6000, the facet at lambda = 1000
    low = [(6000 - 3 * (i + 1)) // 2 for i in range(2000)]
    assert len(rep["generators"]) == 1 + sum(
        low[i] < low[i - 1] for i in range(1, 2000))
    assert {"y^2998", "x^1999"} <= set(rep["generators"])


def test_deep_parentheses_exit_2_without_a_traceback():
    src = str(Path(thresholds.__file__).resolve().parent.parent)
    poly = "(" * 400 + "x" + ")" * 400
    done = subprocess.run(
        [sys.executable, "-m", "thresholds.cli", "nu", "--poly", poly,
         "--p", "5", "--e", "1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: parentheses nested deeper than")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


@pytest.mark.parametrize("argv, message", [
    (["fjump", "--poly", "x^2+y^3", "--p", "5", "--grid", "3", "--lambda", "1e9"],
     "fjump scan of 3000000000 grid points"),
    (["compare", "--poly", "x^2+y^3", "--pmax", "1000000000"], "--pmax 1000000000"),
    (["asym", "--mmax", "100000000"], "m_max = 100000000"),
])
def test_a_scan_sized_by_the_input_exits_3_on_the_box_budget(argv, message):
    # each of these scans ran without end before it was charged up front
    src = str(Path(thresholds.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "THRESHOLDS_BUDGET"}
    done = subprocess.run(
        [sys.executable, "-m", "thresholds.cli", *argv],
        env=dict(env, PYTHONPATH=src), capture_output=True, text=True, timeout=5,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", f"error: {message} exceeds budget 10000000\n")


def _modules_after(code: str) -> set:
    """Names of the modules a fresh interpreter has loaded after ``code``."""
    src = str(Path(thresholds.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True,
    )
    return set(done.stdout.split())


def test_cli_import_loads_only_the_cli():
    loaded = _modules_after("import thresholds.cli")
    assert {m for m in loaded if m.startswith("thresholds")} == {
        "thresholds", "thresholds.cli"
    }
    assert "dataclasses" not in loaded


def test_lct_loads_only_the_modules_it_runs():
    loaded = _modules_after(
        "import contextlib, io, thresholds.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['lct', '--monomial', 'x^2, y^3']) == 0"
    )
    assert {"thresholds.newton", "thresholds.lct0"} <= loaded  # lct0's rule table
    for name in ("frobenius", "grobner", "testideal", "redmodp", "asymptotic"):
        assert f"thresholds.{name}" not in loaded


def test_nu_loads_only_the_modules_it_runs():
    loaded = _modules_after(
        "import contextlib, io, thresholds.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['nu', '--poly', 'x^2 + y^3', '--p', '5', '--e', '1']) == 0"
    )
    for name in ("frobenius", "grobner", "newton", "lct0"):
        assert f"thresholds.{name}" in loaded
    for name in ("testideal", "redmodp", "asymptotic"):
        assert f"thresholds.{name}" not in loaded


@pytest.mark.parametrize("poly", ["x^2, y^3", "x^2 + y^3, x*y"])
def test_tau_loads_neither_frobenius_nor_lct0(poly):
    loaded = _modules_after(
        "import contextlib, io, thresholds.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run(['tau', '--poly', {poly!r}, '--p', '3',"
        " '--lambda', '1/2', '--e', '2']) == 0"
    )
    assert "thresholds.testideal" in loaded
    assert not {"thresholds.frobenius", "thresholds.lct0"} & loaded


_MODULES = {path.stem for path in SRC.glob("*.py")}


def _package_imports(node) -> set:
    """The package modules that an import statement names."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module:
        names = [f"{node.module}.{a.name}" for a in node.names]
    else:
        return set()
    return {n.split(".")[1] for n in names if n.startswith("thresholds.")} & _MODULES


def test_library_imports_stand_at_module_level_and_form_no_cycle():
    """Outside the CLI, which imports each subcommand's modules when it is
    called, no function imports a package module; so the module-level
    imports are the whole import graph, and it has no cycle."""
    late, edges = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        edges[path.stem] = set().union(*map(_package_imports, tree.body))
        if path.name != "cli.py":
            late += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if _package_imports(node) and node not in tree.body]
    assert not late, f"package modules imported inside a function: {late}"
    assert edges["frobenius"] >= {"grobner", "rings"}  # the edges are read
    done: set = set()
    while ready := {m for m in edges.keys() - done if edges[m] <= done}:
        done |= ready
    assert done == edges.keys(), f"import cycle among {sorted(edges.keys() - done)}"


def test_lct0_imports_only_newton_and_what_it_imports():
    loaded = _modules_after("import thresholds.lct0")
    assert {m for m in loaded if m.startswith("thresholds")} == {
        "thresholds", "thresholds.lct0", "thresholds.newton", "thresholds.lp",
        "thresholds.rings",
    }


def test_package_names_resolve_on_first_access():
    loaded = _modules_after(
        "from thresholds import Ring, MonomialIdeal, ThresholdResult, lct_monomial\n"
        "assert str(lct_monomial(MonomialIdeal.parse('x^2, y^3'))) == '5/6'\n"
        "assert ThresholdResult.exact(1, 'LP').is_exact and Ring"
    )
    assert "thresholds.lct0" in loaded
    with pytest.raises(AttributeError):
        thresholds.no_such_name


def test_cli_import_pulls_in_no_numpy():
    src = str(Path(thresholds.__file__).resolve().parent.parent)
    code = "import sys, thresholds.cli; sys.exit('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src)
    )
    assert done.returncode == 0
