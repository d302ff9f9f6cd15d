#!/usr/bin/env python3
"""quintfib benchmark: one workload per run, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-default --seed 0 --seconds 30 --trace 0

Workloads: verify-default, flow-transport, exact-algebra (see workloads.py).
With --trace 0 the run times untraced passes of the workload, after one
untimed warm-up pass, and reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics, including the tracing overhead.  Every pass checks its results.  The last line of standard output
is the result object; the line before it is a report with the environment,
the pass times and every failed check.  The run exits with code 2, printing
no result, when the program's sources are not found.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# numpy reads these when it loads its BLAS, so they are set before quintfib
# is imported; the benchmark runs on one core
BLAS_THREADS = 1
BLAS_ENV = {v: str(BLAS_THREADS) for v in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 5      # fresh interpreters timed for setup_s
IMPORTTIME_PROCESSES = 3  # fresh interpreters read for setup.*
SUBPROCESS_TIMEOUT_S = 60


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def fresh_import(flags=()):
    """Time `import quintfib.cli` in a fresh interpreter; return (s, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, *flags, "-c", "import quintfib.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"fresh import failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stderr


def setup_seconds():
    return statistics.median(fresh_import()[0] for _ in range(SETUP_PROCESSES))


def import_breakdown():
    """Median self time per top-level package, from `python -X importtime`."""
    packages = ("numpy", "scipy", "quintfib")
    samples = {p: [] for p in packages}
    for _ in range(IMPORTTIME_PROCESSES):
        totals = dict.fromkeys(packages, 0.0)
        for line in fresh_import(["-X", "importtime"])[1].splitlines():
            head, _, rest = line.partition(":")
            fields = rest.split("|")
            if head != "import time" or len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            top = fields[2].strip().split(".")[0]
            if top in totals:
                totals[top] += int(fields[0]) / 1e6
        for p in packages:
            samples[p].append(totals[p])
    return {f"setup.{p}_s": statistics.median(v) for p, v in samples.items()}


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
    }


def run_passes(seconds, one_pass):
    """Call `one_pass` until another one would end after `seconds`."""
    t_start = time.perf_counter()
    times = []
    while True:
        times.append(one_pass())
        if time.perf_counter() - t_start + statistics.median(times) > seconds:
            return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quintfib" / "__init__.py").is_file():
        fail(f"no quintfib sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import quintfib
    if not Path(quintfib.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"quintfib was imported from {quintfib.__file__}, not {SRC}")
    import layers
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")

    values = {"setup_s": setup_seconds()} if not args.trace else import_breakdown()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    totals = workloads.Outcome()

    def timed_pass():
        t0 = time.perf_counter()
        outcome = workload.run_pass()
        elapsed = time.perf_counter() - t0
        totals.add(outcome)
        return elapsed

    report = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed)}
    if not args.trace:
        # the first pass of a process pays one-off costs that the slowest
        # pass would otherwise report as the tail
        warmup = timed_pass()
        times = run_passes(args.seconds - warmup, timed_pass)
        report["warmup_s"] = warmup
        # a run holds too few passes for any percentile above the median
        # to have ten passes beyond it, so the tail is the slowest pass
        values.update(wall_s=statistics.median(times), wall_tail_s=max(times),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        report.update(pass_times_s=times,
                      wall_tail=f"slowest of {len(times)} passes")
        declared = spec["end_to_end"]
    else:
        untraced, traced, per_pass = [], [], []

        def pair():
            t0 = time.perf_counter()
            untraced.append(timed_pass())
            tracer = layers.Tracer()
            with layers.traced(tracer):
                traced.append(timed_pass())
            per_pass.append(layers.layer_metrics(tracer.spans))
            return time.perf_counter() - t0

        # keep the first pass out of the overhead too
        warmup = timed_pass()
        run_passes(args.seconds - warmup, pair)
        for name in per_pass[0]:
            values[name] = statistics.median(p[name] for p in per_pass)
        # each pair runs back to back, so its difference is least moved
        # by the machine's speed drifting over the run
        values["trace.overhead_s"] = statistics.median(
            t - u for u, t in zip(untraced, traced))
        report.update(warmup_s=warmup, untraced_times_s=untraced, traced_times_s=traced)
        declared = spec["per_layer"]

    ratio = totals.failed / totals.attempted
    report.update(attempted=totals.attempted, failed=totals.failed,
                  failed_ratio=ratio, failures=Counter(totals.failures),
                  known_f_drift_misses=Counter(totals.known), metrics=values)
    for m in declared:
        print(f"{m['name']:<34} {values[m['name']]:.6g} {m['unit']}")
    print(f"{'failed_ratio':<34} {ratio:.6g} ({totals.failed}/{totals.attempted} operations)")
    print(f"{'known_f_drift_misses':<34} {len(totals.known)} operations "
          f"(f drift in [{workloads.DRIFT_BAR:.0e}, "
          f"{workloads.KNOWN_F_DRIFT_CEILING:.0e}), not counted as failed)")
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))


if __name__ == "__main__":
    main()
