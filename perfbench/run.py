"""Benchmark runner for entbounds: one workload, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload as a closed loop of one caller for S seconds on inputs
built from the seed, checks every item's outputs, and prints as the last
line of standard output one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
listed in BENCHMARK.json; with --trace 1 the per-layer ones, from a run
in which each item executes twice in a row, once untraced and once traced
(alternating which goes first), so that the tracing overhead is measured
on the same inputs.  The spans of a traced run are written to
.perfbench/trace-<workload>-seed<N>.json.

Untraced runs express item costs in units of the reference task of
reference.py, sampled while the items run; their wall-clock throughput
and median latency go to standard error.


The program is imported from src/ next to this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is timed in this many fresh processes and the median reported
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120
MAX_REPORTED_FAILURES = 5

# spans whose self time per item is reported as "<span>_s"
LAYER_SPANS = ("states.build", "linalg.partial_trace", "measures.wootters",
               "measures.pure", "measures.negativity_mixed", "bounds.eval",
               "harness.figure_spec", "harness.sweep_rows",
               "harness.rows_to_csv", "harness.bound_report")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-items", type=int, default=None,
                    help="stop after this many items (smoke runs)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _check(wl, k, out) -> list[str]:
    try:
        return wl.check(k, out)
    except Exception:
        return ["check raised: " + traceback.format_exc(limit=3)]


class Run:
    """Item latencies of one run by traced flag; `costs` holds each
    untraced item's latency, less the sampler's share, in reference units."""

    def __init__(self):
        self.latencies = {False: [], True: []}
        self.costs: list[float] = []
        self.attempted = 0
        self.failed = 0


def run_loop(wl, rec, seconds: float, max_items, traced: bool,
             sampler=None) -> Run:
    """Execute items until the deadline; an item under way finishes."""
    run = Run()
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        modes = (False,) if not traced else ((False, True), (True, False))[k % 2]
        for traced_now in modes:
            rec.enabled = traced_now
            rec.item = run.attempted
            if sampler:
                spent, samples = sampler.spent, sampler.samples
            t0 = time.perf_counter()
            try:
                with rec.span("item"):
                    out = wl.run(k, rec)
                fails = None
            except Exception:
                fails = ["item raised: " + traceback.format_exc(limit=3)]
            latency = time.perf_counter() - t0
            rec.enabled = False
            if sampler:
                spent, samples = sampler.spent - spent, sampler.samples - samples
                latency -= spent
                run.costs.append(latency / sampler.unit_seconds(spent, samples))
            run.latencies[traced_now].append(latency)
            run.attempted += 1
            if fails is None:
                fails = _check(wl, k, out)
                if traced_now and not fails:
                    wl.observe(k, out)
            if fails:
                run.failed += 1
                if run.failed <= MAX_REPORTED_FAILURES:
                    print(f"{wl.name} item {k}: " + "; ".join(fails), file=sys.stderr)
        k += 1
        if (max_items is not None and k >= max_items) or time.perf_counter() >= deadline:
            return run


def setup_seconds(args) -> float:
    """Median time from spawning a fresh interpreter to the point where this
    workload's first item could start: interpreter start, importing
    entbounds and building the seeded inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout != "ready\n":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return statistics.median(samples)


def end_to_end(args, run: Run) -> dict:
    lat = run.latencies[False]
    print(f"wall clock: items_per_s={len(lat) / sum(lat)!r} "
          f"latency_p50_s={statistics.median(lat)!r}", file=sys.stderr)
    return {
        "items_per_ref": len(run.costs) / sum(run.costs),
        "latency_p50_ref": statistics.median(run.costs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_seconds(args),
    }


def per_layer(wl, rec, run: Run, names) -> dict:
    times = rec.self_times()
    n = len(run.latencies[True])
    # layers a workload never reaches read 0
    values = dict.fromkeys(names, 0.0)
    values.update({f"{span}_s": times.get(span, (0.0, 0))[0] / n
                   for span in LAYER_SPANS})
    values["linalg.partial_trace.calls"] = times.get("linalg.partial_trace", (0, 0))[1] / n
    values["bounds.evals"] = times.get("bounds.eval", (0, 0))[1] / n
    values["trace.overhead_share"] = (sum(run.latencies[True])
                                      / sum(run.latencies[False]) - 1.0)
    values.update(wl.layer_metrics(times))
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "entbounds" / "__init__.py").is_file():
        print(f"perfbench: entbounds sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from recorder import Recorder
    from reference import SpeedSampler
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        os._exit(0)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced = args.trace == 1
    listed = spec["per_layer" if traced else "end_to_end"]
    rec = Recorder()
    if traced:
        run = run_loop(wl, rec, args.seconds, args.max_items, traced)
        values = per_layer(wl, rec, run, [m["name"] for m in listed])
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        rec.write(out_dir / f"trace-{wl.name}-seed{args.seed}.json")
    else:
        with SpeedSampler() as sampler:
            run = run_loop(wl, rec, args.seconds, args.max_items, traced, sampler)
        values = end_to_end(args, run)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(f"{wl.name}: {run.attempted} items, {run.failed} failed", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
