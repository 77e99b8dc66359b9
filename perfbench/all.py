"""Run every workload, each in a fresh process, and print every metric.

    python3 perfbench/all.py [--seconds 20] [--seeds N] [--out FILE]

For each workload and each seed 1..N this runs run.py once untraced and
once traced, so that set-up time and peak memory are per workload.  It
prints one line per metric: workload, name, median over the seeds, the
quartile spread (Q3 - Q1) / median when N > 1, and the unit.  --out
writes the same numbers, with the numpy/BLAS build and thread setting,
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 1200


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {"attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "correct": all(r["correct"] for r in results), "metrics": {}}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        entry = {"median": median, "unit": first["unit"], "values": values}
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["quartiles"] = [q1, q3]
            entry["spread"] = (q3 - q1) / median if median else None
        out["metrics"][name] = entry
    return out


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": 1,  # run.py pins BLAS to one thread
            "cpus": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seeds", type=int, default=1)
    ap.add_argument("--out", help="write the summary as JSON to this path")
    args = ap.parse_args(argv)

    summary = {"seconds": args.seconds, "seeds": list(range(1, args.seeds + 1)),
               "environment": environment(), "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        per_trace = {}
        for trace in (0, 1):
            results = [run_once(name, seed, args.seconds, trace)
                       for seed in summary["seeds"]]
            per_trace["per_layer" if trace else "end_to_end"] = summarize(results)
        summary["workloads"][name] = per_trace
        for part in per_trace.values():
            print(f"{name} attempted={part['attempted']} failed={part['failed']}")
            for metric, m in part["metrics"].items():
                spread = f"  spread={m['spread']:.4f}" if m.get("spread") is not None else ""
                print(f"{name:9s} {metric:36s} {m['median']:.6g} {m['unit']}{spread}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
