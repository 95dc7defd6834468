"""Record the job catalogue and its reference answers.

    python3 bench/record.py

Run from the repository root, at a commit whose answers are trusted.  Every
job of every workload's catalogue (``jobs.catalogue``) runs three times
in-process with the benchmark's cap.  ``bench/reference.json`` receives each workload's
catalogue as ``jobs.draw`` reads it: the ``jobs.ALWAYS`` slowest jobs here,
and the others ordered with certified answers first and then by job time;
and the answers of the jobs that have no closed-form reference
(``check.closed_form``); the others are checked against the closed form.  A job that is not solved within the cap is an
error: the workloads are chosen so that no job fails.
"""

from __future__ import annotations

import json
import signal
import statistics
import subprocess
import sys

import check
import jobs
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from thresholds import cli

    signal.signal(signal.SIGALRM, run._on_alarm)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    ranked, answers, missing = {}, {}, []
    for workload in jobs.WORKLOADS:
        timed, answers[workload] = [], {}
        for cls, pool in jobs.catalogue(workload).items():
            slowest = 0.0
            for argv in pool:
                # the median of three runs ranks the job; one run can catch a
                # slow spell of the machine
                runs = [run.run_job(cli, argv) for _ in range(3)]
                dt = statistics.median(r[0] for r in runs)
                _, status, report = max(runs, key=lambda r: r[1] != run.SOLVED)
                slowest = max(slowest, dt)
                timed.append((report is None or not check.certified(report), dt, argv))
                if report is None:
                    missing.append((workload, status, argv))
                elif check.closed_form(argv) is not None:
                    check.check(argv, report, None)
                else:
                    answers[workload][json.dumps(argv)] = {
                        k: v for k, v in report.items() if k not in ("schema", "command")
                    }
            print(f"{workload} {cls}: {len(pool)} jobs, slowest {slowest:.3f} s")
        by_time = sorted(timed, key=lambda t: t[1])
        ranked[workload] = {
            "always": [argv for *_, argv in by_time[-jobs.ALWAYS:]],
            "blocks": [argv for *_, argv in sorted(by_time[:-jobs.ALWAYS])],
        }
    for workload, status, argv in missing:
        print(f"unsolved ({workload}, {status}): {' '.join(argv)}", file=sys.stderr)
    out = {"source": f"catalogue and answers of the thresholds CLI at commit "
                     f"{commit}, recorded by bench/record.py",
           "catalogue": ranked,
           "answers": answers}
    (run.BENCH / "reference.json").write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
