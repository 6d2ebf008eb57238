"""Work-count smoke check, a few seconds long.

    python3 perfbench/smoke.py [--record]

Runs each workload's command sequence once on shrunken grids with the
tracer on, and compares the exact work counts of every layer with
smoke_counts.json. It never looks at a time. Exit code 0 when every count
matches, 1 otherwise. The measured counts are printed as JSON on standard
output; a change that alters the work on purpose writes them to
smoke_counts.json with ``--record``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from run import SRC, WORK, cap_blas_threads

EXPECTED = Path(__file__).resolve().parent / "smoke_counts.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--record", action="store_true",
                    help="write the measured counts to smoke_counts.json")
    args = ap.parse_args()
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads
    from boussinesq_ist import cli

    work = WORK / f"smoke-{os.getpid()}"
    measured = {}
    try:
        for name, (setup, commands) in workloads.WORKLOADS.items():
            cfg = setup(workloads.DEFAULT_SEED, work / name / "inputs", workloads.SMOKE)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                for cmd in commands(cfg, work / name):
                    with tracer.op(cmd.name):
                        cli.main(cmd.argv)
            finally:
                tracer.uninstall()
            measured[name] = tracing.work_counts(tracing.layer_metrics(tracer.spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    text = json.dumps(measured, indent=2, sort_keys=True) + "\n"
    print(text, end="")
    if args.record:
        EXPECTED.write_text(text)
        return 0
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    diffs = [f"{w} {k}: expected {expected.get(w, {}).get(k)}, measured {v}"
             for w, counts in measured.items() for k, v in counts.items()
             if expected.get(w, {}).get(k) != v]
    for line in diffs:
        print(line, file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
