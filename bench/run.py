"""Closed-loop job-mix benchmark of the ``thresholds`` CLI.

    python3 bench/run.py --workload {monomial,principal,ideal} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  One client runs the seeded job list of the
workload (see ``jobs.py``) in-process through ``thresholds.cli.run(argv +
["--format", "json"])``, each job starting when the previous one has ended.
Each job is capped at ``CAP_S`` seconds of wall time by ``SIGALRM``.  The
list is run in passes until the next pass would end after ``--seconds``.  A
job that hit the cap is not run again: its charge does not depend on its
time, and repeating it would crowd out the samples of the others.

On a shared host the speed of the processor drifts by tens of percent within
seconds and between runs, and a job's wall time drifts with it.  So every
reported time is in reference seconds: the wall time scaled by
``CAL_REF_S`` over the time of a fixed pure-Python loop (``calibrate``:
Fraction, dict and sort work, as in the package) measured right before and
right after it.  The loop runs at the start of every pass and after every
``SEGMENT_S`` seconds of jobs, and each job of a segment is scaled by the
mean of the segment's two ends.  The loop does not touch the package, so a
change to the package moves reference seconds as it moves wall seconds; a
change in the machine's speed moves neither.  The two virtual processors of
such a host drift apart, so the run is pinned to one of them, where the
loop, the jobs and the set-up children all run.  A job's time is its median
over its passes.  Every answer is checked (``check.py``) and must repeat
exactly from pass to pass; a wrong answer, an unexpected exit code or a
leaked module global aborts the run with exit code 1.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: time of a fresh interpreter that imports the package and
  draws the job list, median of ``SETUP_SAMPLES`` child processes, each
  scaled like a job by the loop run before and after it;
* ``par2_s``: sum of job times, an unsolved job (budget exhaustion, exit 3,
  or the cap) charged ``2 * CAP_S``;
* ``solved_share`` and ``certified_share``: jobs answered and checked, and
  those among them that the CLI certifies, over jobs attempted;
* ``job_p50_ms`` and ``job_p90_ms``: job time percentiles, an unsolved job
  counting as ``2 * CAP_S``;
* ``peak_rss_mb``: the process high-water mark.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.py`` per traced pass, the tracing overhead
(traced minus untraced ``par2_s``) and the traced job time, in wall seconds
like the layers' ``self_s``, that layer shares are taken of.  Capped jobs
are never traced, since where a job is interrupted depends on timing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

CAP_S = 1.0
SETUP_SAMPLES = 9
SEGMENT_S = 0.2
CAL_REPS = 5
CAL_REF_S = 0.0005
SOLVED, BUDGET, CAPPED = "solved", "budget", "cap"


class JobCapped(BaseException):
    """Raised by the cap's SIGALRM handler.

    A BaseException, so that ``cli.run``'s ``except (..., ValueError, ...)``
    cannot turn a timeout into exit code 2.
    """


class BenchError(Exception):
    """A wrong answer or a broken invariant: the run is void."""


def _on_alarm(signum, frame):
    raise JobCapped()


def _calibration_loop():
    acc, table = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        table[i * 31 % 53] = table.get(i * 17 % 53, 0) + i * i
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return acc


def calibrate() -> float:
    """Wall seconds of one calibration loop, the mean of ``CAL_REPS``."""
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        _calibration_loop()
    return (time.perf_counter() - t0) / CAL_REPS


def run_job(cli, argv):
    """(seconds, status, report) of one capped in-process CLI call."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, CAP_S)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                rc = cli.run(argv + ["--format", "json"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobCapped:
        return CAP_S, CAPPED, None
    dt = time.perf_counter() - t0
    if rc == 3:
        return dt, BUDGET, None
    if rc != 0:
        raise BenchError(f"exit {rc} for {argv}: {err.getvalue().strip()}")
    return dt, SOLVED, json.loads(out.getvalue())


def _budget_globals():
    from thresholds import frobenius, grobner

    return (frobenius.DEFAULT_BOX_BUDGET, frobenius.DEFAULT_PRODUCT_BUDGET,
            grobner.DEFAULT_PAIR_BUDGET)


def run_pass(cli, jobs, runs, refs, tracer=None):
    """Run every job that has not hit the cap; append to its list of runs
    (reference seconds, status, report, traced, wall seconds)."""
    import check

    budgets = _budget_globals()
    segment, seg_s, cal0 = [], 0.0, calibrate()

    def close_segment():
        nonlocal segment, seg_s, cal0
        cal1 = calibrate()
        scale = CAL_REF_S / ((cal0 + cal1) / 2)
        for done, dt, status, report in segment:
            done.append((dt * scale, status, report, tracer is not None, dt))
        segment, seg_s, cal0 = [], 0.0, cal1

    for (_, argv), done in zip(jobs, runs):
        if any(r[1] == CAPPED for r in done):
            continue
        snap = tracer.snapshot() if tracer else None
        dt, status, report = run_job(cli, argv)
        if tracer and status == CAPPED:
            tracer.restore(snap)
        if _budget_globals() != budgets:
            raise BenchError(f"{argv} left the module budget globals changed")
        if report is not None:
            try:
                verdict = check.check(argv, report, refs.get(json.dumps(argv)))
            except check.WrongAnswer as exc:
                raise BenchError(f"wrong answer for {argv}: {exc}") from None
            if verdict == check.UNCHECKED and not done:
                print(f"  unchecked (certified, reference a lower bound): {' '.join(argv)}")
            if any(r[2] is not None and r[2] != report for r in done):
                raise BenchError(f"{argv} answered differently in two passes")
        segment.append((done, dt, status, report))
        seg_s += dt
        if seg_s >= SEGMENT_S:
            close_segment()
    if segment:
        close_segment()


def load_jobs(workload: str, seed: int):
    """(job list, recorded answers) of one workload and seed."""
    import jobs

    ref = json.loads((BENCH / "reference.json").read_text())
    return jobs.draw(ref["catalogue"][workload], seed), ref["answers"][workload]


def measure_setup(workload: str, seed: int) -> float:
    """Median time of a fresh interpreter importing and drawing jobs, in
    reference seconds."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import thresholds.cli, run; "
            "run.load_jobs(sys.argv[3], int(sys.argv[4]))")
    env = {k: v for k, v in os.environ.items() if k != "THRESHOLDS_BUDGET"}
    samples, cal0 = [], calibrate()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH),
                        workload, str(seed)], cwd=ROOT, env=env, check=True)
        dt = time.perf_counter() - t0
        cal1 = calibrate()
        samples.append(dt * CAL_REF_S / ((cal0 + cal1) / 2))
        cal0 = cal1
    return statistics.median(samples)


def _percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def summarize(jobs, runs, traced=None):
    """Per job (class, argv, seconds, status, report) over its runs, or over
    its traced or untraced runs only; a job without such runs is left out."""
    rows = []
    for (cls, argv), done in zip(jobs, runs):
        done = [r for r in done if traced is None or r[3] == traced]
        if not done:
            continue
        statuses = {r[1] for r in done}
        status = next((s for s in (CAPPED, BUDGET) if s in statuses), SOLVED)
        t = statistics.median(r[0] for r in done) if status == SOLVED else 2 * CAP_S
        rows.append((cls, argv, t, status, done[0][2]))
    return rows


def par2(rows) -> float:
    return sum(t for _, _, t, _, _ in rows)


def end_to_end(rows, setup_s: float) -> dict:
    import check

    n = len(rows)
    times = [t for _, _, t, _, _ in rows]
    solved = [r for r in rows if r[3] == SOLVED]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "par2_s": (par2(rows), "s"),
        "solved_share": (len(solved) / n, "share"),
        "certified_share": (sum(check.certified(r[4]) for r in solved) / n, "share"),
        "job_p50_ms": (_percentile(times, 0.5) * 1000, "ms"),
        "job_p90_ms": (_percentile(times, 0.9) * 1000, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(jobs, runs, tracer, n_traced: int) -> dict:
    """Layer figures per traced pass; counts repeat exactly from pass to pass."""
    import layers

    out = {}
    for name in layers.metric_names():
        func, stat = name.rsplit(".", 1)
        value = tracer.stats[func][stat]
        out[name] = (value / n_traced, "s") if stat == "self_s" else \
            (value // n_traced, "count")
    traced = summarize(jobs, runs, traced=True)
    keep = {tuple(r[1]) for r in traced}
    plain = [r for r in summarize(jobs, runs, traced=False) if tuple(r[1]) in keep]
    out["bench.trace_overhead_s"] = (par2(traced) - par2(plain), "s")
    out["bench.traced_job_s"] = (sum(
        r[4] for done in runs for r in done if r[3]) / n_traced, "s")
    return out


def _print_report(workload, rows, metrics, pass_s):
    print(f"workload {workload}: n={len(rows)} jobs, cap {CAP_S} s per job, "
          f"{len(pass_s)} passes of {', '.join(f'{t:.2f}' for t in pass_s)} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for cls, argv, _, status, _ in rows:
        if status != SOLVED:
            print(f"  unsolved ({status}): {' '.join(argv)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "thresholds" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from jobs import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.pop("THRESHOLDS_BUDGET", None)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s = measure_setup(args.workload, args.seed)

    from thresholds import cli
    import layers

    jobs, refs = load_jobs(args.workload, args.seed)
    runs = [[] for _ in jobs]
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = layers.Tracer() if args.trace else None
    n_plain = n_traced = 0
    pass_s = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is not None and n_traced < n_plain:
            tracer.install()
            try:
                run_pass(cli, jobs, runs, refs, tracer)
            finally:
                tracer.uninstall()
            n_traced += 1
        else:
            run_pass(cli, jobs, runs, refs)
            n_plain += 1
        pass_s.append(time.perf_counter() - t0)
        if tracer is not None and n_traced == 0:
            continue
        if time.perf_counter() - start + pass_s[-1] > args.seconds:
            break

    rows = summarize(jobs, runs)
    if tracer is None:
        metrics = end_to_end(rows, setup_s)
    else:
        metrics = per_layer(jobs, runs, tracer, n_traced)
    _print_report(args.workload, rows, metrics, pass_s)
    print(json.dumps({
        "correct": True,
        "attempted": len(rows),
        "failed": sum(r[3] != SOLVED for r in rows),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
