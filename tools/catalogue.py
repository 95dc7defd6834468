"""Record every benchmark catalogue run, and compare two recordings.

    python3 tools/catalogue.py --write FILE
    python3 tools/catalogue.py --diff A B

``--write`` runs each job of the catalogue in ``bench/reference.json`` (every
workload, its ``always`` jobs and every job of its blocks) in process through
``thresholds.cli.run``, once with ``--format json`` and once with ``--format
text``, and stores each run's exit code, standard output and standard error
in FILE as JSON.  The package is imported from the ``src/`` of the checkout
that holds this script, and ``THRESHOLDS_BUDGET`` is unset first, so two
checkouts' recordings differ only where their programs do.

``--diff`` lists the runs whose records differ between two recordings, or
that only one of them holds, and exits 1 when there is one, else 0.

Nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("json", "text")


def _key(run: dict) -> str:
    return f"{run['workload']}#{run['index']} --format {run['format']}"


def write(path: str) -> int:
    os.environ.pop("THRESHOLDS_BUDGET", None)
    sys.path.insert(0, str(ROOT / "src"))
    from thresholds import cli

    catalogue = json.loads((ROOT / "bench" / "reference.json").read_text())["catalogue"]
    runs = []
    for workload, ranked in catalogue.items():
        for index, argv in enumerate(ranked["always"] + ranked["blocks"]):
            for fmt in FORMATS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(argv + ["--format", fmt])
                runs.append({"workload": workload, "index": index, "argv": argv,
                             "format": fmt, "exit": code,
                             "stdout": out.getvalue(), "stderr": err.getvalue()})
    Path(path).write_text(json.dumps(runs, indent=0) + "\n")
    print(f"{len(runs)} runs written to {path}")
    return 0


def diff(path_a: str, path_b: str) -> int:
    a, b = ({_key(r): r for r in json.loads(Path(p).read_text())}
            for p in (path_a, path_b))
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in differ:
        run = a.get(key) or b[key]
        where = "" if key in a and key in b else f" (only in {path_a if key in a else path_b})"
        print(f"{key}: {' '.join(run['argv'])}{where}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} runs differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE")
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    return write(args.write) if args.write else diff(*args.diff)


if __name__ == "__main__":
    sys.exit(main())
