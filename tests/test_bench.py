"""The benchmark under ``bench/`` still runs against the package.

The harness is only imported here, never changed: a package change that
renames a traced function, moves a budget global or changes a report breaks
one of these tests before it breaks a benchmark run.
"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from thresholds import cli, frobenius, grobner, rings

BENCH = Path(__file__).resolve().parent.parent / "bench"

SMOKE_JOBS = [
    ("principal", ["tau", "--poly", "x^2 + y^4", "--p", "7", "--lambda", "5/7"]),
    ("monomial",
     ["tau", "--poly", "y, y^3, x^3*y, x^5", "--p", "2", "--lambda", "2/3"]),
    ("monomial", ["newton", "--monomial", "w^3, z^6, y^2, x^4*y^3*z^2*w^4, x^5"]),
    ("ideal", ["tau", "--poly", "z^3 + x^2*y, z^3 + y^3 + x^2*y", "--p", "2",
               "--lambda", "3/4", "--e", "2"]),
    ("ideal", ["fjump", "--poly", "y^3 + x^2*y + x^3, y^3 + x^2", "--p", "3",
               "--grid", "3", "--e", "1"]),
]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        yield {name: importlib.import_module(name)
               for name in ("layers", "run", "check")}
    finally:
        sys.path.remove(str(BENCH))


def test_tracer_wraps_and_restores_every_layer(bench):
    originals = (cli.run, grobner.PolyIdeal.member, grobner.PolyIdeal.equal,
                 rings.power_has_reduced_term, frobenius.monomial_coefficient)
    tracer = bench["layers"].Tracer()
    tracer.install()
    try:
        assert grobner.PolyIdeal.member is not originals[1]
        assert rings.power_has_reduced_term is not originals[3]
        assert frobenius.monomial_coefficient is not originals[4]
    finally:
        tracer.uninstall()
    assert (cli.run, grobner.PolyIdeal.member, grobner.PolyIdeal.equal,
            rings.power_has_reduced_term, frobenius.monomial_coefficient) == originals


def test_budget_globals_are_read(bench):
    assert bench["run"]._budget_globals() == (
        frobenius.DEFAULT_BOX_BUDGET,
        frobenius.DEFAULT_PRODUCT_BUDGET,
        grobner.DEFAULT_PAIR_BUDGET,
    )


@pytest.mark.parametrize("workload,argv", SMOKE_JOBS)
def test_reference_job_passes_its_check(bench, workload, argv):
    check = bench["check"]
    refs = json.loads((BENCH / "reference.json").read_text())["answers"][workload]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(argv + ["--format", "json"])
    assert rc == 0
    verdict = check.check(argv, json.loads(out.getvalue()), refs.get(json.dumps(argv)))
    assert verdict == check.CHECKED


@pytest.mark.parametrize("workload", ["monomial", "principal", "ideal"])
def test_every_catalogue_job_passes_its_check(bench, workload, monkeypatch):
    # the benchmark draws a sample of these per seed; here each job runs once
    monkeypatch.delenv("THRESHOLDS_BUDGET", raising=False)
    check = bench["check"]
    reference = json.loads((BENCH / "reference.json").read_text())
    ranked, refs = reference["catalogue"][workload], reference["answers"][workload]
    failed = []
    for argv in ranked["always"] + ranked["blocks"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(argv + ["--format", "json"])
        try:
            verdict = rc == 0 and check.check(
                argv, json.loads(out.getvalue()), refs.get(json.dumps(argv)))
        except check.WrongAnswer as exc:
            verdict = str(exc)
        if verdict != check.CHECKED:
            failed.append((argv, rc, verdict))
    assert not failed
