import argparse
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import thresholds
import thresholds.frobenius as frobenius
import thresholds.grobner as grobner
import thresholds.newton as newton
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
    calls = {"covolume": 0, "solve_lp": 0}

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
    assert calls == {"covolume": 1, "solve_lp": 1}


def test_asym_command_floats_only_in_approx(capsys):
    rep = _json(capsys, ["asym", "--mmax", "64"])
    for sample in rep["samples"]:
        assert RATIONAL.match(sample["value"])
        assert isinstance(sample["approx"], float)


def test_compare_command(capsys):
    rep = _json(capsys, ["compare", "--poly", "x^2 + y^3", "--pmax", "30"])
    for row in rep["rows"]:
        assert (row["relation"] == "equal") == (row["p"] % 6 == 1)


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
    argv = ["fpt", "--poly", "x^2 + y^3", "--p", "7", "--e", "2"]
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
    argv = ["tau", "--poly", "y^3 + 2*x^2*y + 2*x^3, 2*y^2 + 2*x^2 + x^3",
            "--p", "3", "--lambda", "2/3", "--e", "1"]
    assert run(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("THRESHOLDS_BUDGET", "40")
    assert run(argv) == 3
    # the products of a^2 fit; Buchberger takes more than 40 pairs
    assert capsys.readouterr().err == "error: S-pair budget exceeded\n"


def test_improper_ideal_has_no_threshold(capsys):
    assert run(["lct", "--monomial", "1, x"]) == 2
    assert capsys.readouterr().err == "error: improper ideal: threshold is infinite\n"
    rep = _json(capsys, ["newton", "--monomial", "1, x"])
    assert rep["lct"] is None and rep["m_primary"] is False


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
    "compare": [_POLY, ("--pmax", "pmax", int, 100, False),
                ("--e", "e", int, 3, False)],
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
    from thresholds import redmodp, testideal

    assert e_default["tau"] == e_default["fjump"] == testideal.DEFAULT_E_MAX
    signature = inspect.signature(redmodp.compare_diagonal)
    assert e_default["compare"] == signature.parameters["e_max"].default


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
    rep = _json(capsys, ["fpt", "--poly", "x^2 + y^3 + z^5", "--p", "97", "--e", "3"])
    assert rep["fpt"]["lo"] == "912672/912673" and rep["fpt"]["hi"] == "1/1"


def test_tau_large_integer_lambda_exits_0(capsys):
    rep = _json(capsys, ["tau", "--poly", "x^2 + y^3", "--p", "5", "--lambda", "1500"])
    f = parse_polynomial("x^2 + y^3", Ring.prime_field(2, 5))
    assert rep["stabilized"] is True
    assert rep["generators"] == [render_polynomial(f.pow(1500))]


@pytest.mark.parametrize("argv", [
    ["tau", "--poly", "x^2 + y^3, x*y", "--p", "5", "--lambda", "1/2", "--e", "0"],
    ["fjump", "--poly", "x^2 + y^3, x*y", "--p", "5", "--grid", "4", "--e", "0"],
    ["asym", "--mmax", "15"],
    ["fjump", "--poly", "x^2 + y^3", "--p", "5", "--grid", "4", "--lambda", "0"],
    ["compare", "--poly", "x^2+y^3", "--pmax", "7", "--e", "0"],
    ["nu", "--poly", "x^2,,y^3", "--p", "3", "--e", "1"],  # an empty generator
    ["fpt", "--poly", "x^2,,y^3", "--p", "3"],
    ["tau", "--poly", "x^2,,y^3", "--p", "3", "--lambda", "1/2"],
    ["fjump", "--poly", "x^2,,y^3", "--p", "3", "--grid", "2"],
    ["ordinary", "--poly", "x^3 + y^3 + z^3,", "--p", "7"],
    ["compare", "--poly", "x^2+y^3", "--pmax", "1"],  # no prime left to compare
    ["compare", "--poly", "x^2+y^3", "--pmax", "-1"],
    ["compare", "--poly", "x^2 + y^4", "--pmax", "2"],  # 2 divides an exponent
])
def test_invalid_parameters_exit_2_with_one_error_line(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


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
        "error: compare expects a diagonal x1^a1 + ... + xn^an\n")


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
    assert "thresholds.newton" in loaded
    for name in ("frobenius", "grobner", "testideal", "redmodp", "asymptotic", "lct0"):
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


def test_lct0_imports_no_other_thresholds_module():
    loaded = _modules_after("import thresholds.lct0")
    assert {m for m in loaded if m.startswith("thresholds")} == {
        "thresholds", "thresholds.lct0"
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
