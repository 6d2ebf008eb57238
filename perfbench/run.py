"""End-to-end benchmark of the boussinesq-ist CLI.

    python3 perfbench/run.py --workload direct-map --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` there, so nothing needs installing. Workloads (see workloads.py):

    direct-map    scatter --poles on soliton initial data
    roundtrip     roundtrip of a soliton, then of a breather
    synth-verify  nsoliton on 6001 x 101 points, then verify on the field

The process pins itself to one CPU and caps BLAS threads at that count.
One run sets the workload up SETUP_REPEATS times in fresh interpreters,
then runs passes of the workload's command sequence back to back for about
--seconds seconds (at least MIN_PASSES), checking every command's output
and that each pass writes the same bytes as the first. Times are medians
over those samples, scaled to a reference CPU speed by a sampler thread
(see speed.py); the raw times are printed next to them.

With --trace 1 every pass is traced and the run reports per-layer metrics
instead of end-to-end ones. trace.pass_s against the untraced run's pass_s
is the tracing overhead as the user sees it; trace.overhead_s is the
tracer's own bookkeeping time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it list every metric with
its unit and sample count. Spans and full results go to .perfbench-out/ in
the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 5
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported. Returns the cap."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def probe_setup(workload: str, seed: int, inputs: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(inputs)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(cli, cmd, tracer):
    """Run one command and check its output. Returns (start, end, problems)."""
    t0 = time.perf_counter()
    try:
        with tracer.op(cmd.name) if tracer else nullcontext():
            rc = cli.main(cmd.argv)
    except Exception:  # a crashing command is a failed op; the run goes on
        return t0, time.perf_counter(), ["raised:\n" + traceback.format_exc()]
    t1 = time.perf_counter()
    try:
        problems = cmd.check(rc, cmd.out)
    except Exception:  # unreadable or malformed output
        problems = ["output check raised:\n" + traceback.format_exc()]
    return t0, t1, problems


def median_metrics(samples):
    """Median of each metric over passes; samples are name -> (value, unit)."""
    return {k: (statistics.median(s[k][0] for s in samples), samples[0][k][1])
            for k in samples[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("direct-map", "roundtrip", "synth-verify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "boussinesq_ist" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    # one CPU for the workload and the speed sampler; threads started later inherit it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, work, blas_threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, blas_threads: int) -> int:
    import speed  # these import numpy: after the BLAS cap
    import tracer as tracing
    import workloads
    from boussinesq_ist import cli

    setup, commands = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    setups, raw_setups, passes, raw_passes = [], [], [], []
    cmd_times, raw_cmd_times, layer_samples = {}, {}, []
    attempted = failed = 0
    first_digests = None
    with speed.SpeedSampler() as sampler:
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            raw = probe_setup(args.workload, args.seed, work / f"setup{i}")
            raw_setups.append(raw)
            setups.append(raw * sampler.scale(t0, time.perf_counter()))
        cfg = setup(args.seed, work / "inputs")

        if tracer:
            tracer.install()
        t_start = time.perf_counter()
        try:
            while True:
                i = len(passes)
                first_span, overhead0 = (len(tracer.spans), tracer.overhead_s) if tracer else (0, 0.0)
                digests, pass_s, raw_pass_s = {}, 0.0, 0.0
                for cmd in commands(cfg, work / f"pass{i}"):
                    t0, t1, problems = run_op(cli, cmd, tracer)
                    seconds = (t1 - t0) * sampler.scale(t0, t1)
                    attempted += 1
                    pass_s += seconds
                    raw_pass_s += t1 - t0
                    cmd_times.setdefault(cmd.name, []).append(seconds)
                    raw_cmd_times.setdefault(cmd.name, []).append(t1 - t0)
                    if cmd.out.is_dir():
                        digests[cmd.name] = digest(cmd.out)
                    if first_digests is not None and digests.get(cmd.name) != first_digests.get(cmd.name):
                        problems.append("output bytes differ from the first pass")
                    if problems:
                        failed += 1
                        print(f"FAILED {cmd.name} (pass {i}): " + "; ".join(problems), file=sys.stderr)
                shutil.rmtree(work / f"pass{i}", ignore_errors=True)
                if first_digests is None:
                    first_digests = digests
                passes.append(pass_s)
                raw_passes.append(raw_pass_s)
                if tracer:
                    m = tracing.layer_metrics(tracer.spans[first_span:])
                    m["trace.pass_s"] = (pass_s, "s")
                    m["trace.overhead_s"] = (tracer.overhead_s - overhead0, "s")
                    m["trace.spans"] = (len(tracer.spans) - first_span, "count")
                    layer_samples.append(m)
                elapsed = time.perf_counter() - t_start
                if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()

    lines = [f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
             f"blas_threads {blas_threads}  trace {args.trace}",
             "  times in seconds at the reference CPU speed; raw wall seconds in brackets"]
    result = {"workload": args.workload, "seed": args.seed, "blas_threads": blas_threads,
              "passes": len(passes), "attempted": attempted, "failed": failed,
              "samples": {"setup_s": setups, "raw_setup_s": raw_setups, "pass_s": passes,
                          "raw_pass_s": raw_passes, "command_s": cmd_times,
                          "raw_command_s": raw_cmd_times,
                          "speed_kernel_s": [d for _, d in sampler.samples]}}
    for name, ts in cmd_times.items():
        lines.append(f"  {name + '_s':<34} {statistics.median(ts):14.6g} s      "
                     f"[{statistics.median(raw_cmd_times[name]):.6g}] (median of {len(ts)})")
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        samples = {"setup_s": len(setups), "pass_s": len(passes), "peak_rss_mb": 1}
        raw = {"setup_s": statistics.median(raw_setups), "pass_s": statistics.median(raw_passes)}
    else:
        metrics = median_metrics(layer_samples)
        counts = [tracing.work_counts(m) for m in layer_samples]
        if any(c != counts[0] for c in counts):
            print("WARNING: work counts differ between traced passes", file=sys.stderr)
        samples = {k: len(layer_samples) for k in metrics}
        raw = {"trace.pass_s": statistics.median(raw_passes)}
        result["work_counts"] = counts[0]
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([s.to_dict() for s in tracer.spans]))
        lines.append(f"  spans written to {spans_path.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        bracket = f"[{raw[name]:.6g}] " if name in raw else ""
        lines.append(f"  {name:<34} {value:14.6g} {unit:<6} {bracket}(median of {samples[name]})")
    lines.append(f"  error_rate {failed}/{attempted} = {failed / attempted:.4g}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")

    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
