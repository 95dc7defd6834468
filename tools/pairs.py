"""Run the benchmark in alternated pairs of a parent and a change checkout.

    python3 tools/pairs.py PARENT WORKLOAD FIRST-LAST --out FILE [--change DIR]

For each seed N of FIRST..LAST, ``python3 bench/run.py --workload WORKLOAD
--seed N --seconds 35`` runs once in the parent checkout PARENT and once in
the change checkout (``--change``, by default the checkout that holds this
script), the parent first on odd seeds and the change first on even ones.
A run that exits nonzero stops the script before FILE is written.

FILE gets the workload's entry in the layout of the ``BENCH_<pr>.json``
files: per end-to-end metric of ``BENCHMARK.json``, each side's runs, median
and inclusive quartiles, its quartile spread over its median (``iqr_over_
median``), the number of pairs in which the change reads strictly better
(``change_better_in``, ties counting for neither) and the relative change of
the median; per side, each run's number of passes, failed jobs and
correctness flag.  An existing FILE keeps its other workloads, so one FILE
collects several invocations, and keeps any other key, such as a
hand-written ``about``.  Nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 35
SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """The final JSON object of one benchmark run, with its pass count."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS)], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {checkout} seed {seed} exited {proc.returncode}: "
                 f"{proc.stderr.strip()}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["passes"] = int(re.search(r"per job, (\d+) passes", proc.stdout).group(1))
    return report


def _side(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0.0, "runs": runs}


def _better(a: float, b: float, lower: bool) -> bool:
    return b < a if lower else b > a


def summarize(metrics: list, reports: dict) -> dict:
    """Per metric, both sides and their comparison."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        runs = {s: [r["metrics"][name]["value"] for r in reports[s]] for s in SIDES}
        parent, change = _side(runs["parent"]), _side(runs["change"])
        out[name] = {
            "unit": m["unit"], "better": m["better"], "parent": parent, "change": change,
            "change_better_in": sum(_better(a, b, lower)
                                    for a, b in zip(runs["parent"], runs["change"])),
            "relative_change_of_median": (change["median"] / parent["median"] - 1
                                          if parent["median"] else 0.0),
        }
    return out


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in (checkout / "src" / "thresholds").glob("*.py"))


def revision(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("workload")
    ap.add_argument("seeds", help="FIRST-LAST, both included")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in why:
        sys.exit(f"error: unknown workload {args.workload!r}")

    reports = {s: [] for s in SIDES}
    for seed in seeds:
        for side in SIDES if seed % 2 else SIDES[::-1]:
            reports[side].append(run_bench(checkouts[side], args.workload, seed))
            r = reports[side][-1]["metrics"]
            print(f"{args.workload} seed {seed} {side}: " + ", ".join(
                f"{m} {r[m]['value']:.4g}" for m in ("par2_s", "job_p90_ms", "peak_rss_mb")),
                flush=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["parent"] = revision(checkouts["parent"])
    doc["src_lines"] = {s: src_lines(checkouts[s]) for s in SIDES}
    doc.setdefault("workloads", {})[args.workload] = {
        "why": why[args.workload],
        "seeds": seeds,
        "metrics": summarize(bench["end_to_end"], reports),
        **{key: {s: [r[key] for r in reports[s]] for s in SIDES}
           for key in ("passes", "failed", "correct")},
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
