"""Tests of the benchmark itself, in a smoke mode of two items per run.

    python3 -m pytest perfbench

They check that every metric BENCHMARK.json names is emitted with its
unit, that each correctness gate trips on a corrupted value, and that the
benchmark gives no result where the program's sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import workloads  # noqa: E402
from entbounds import harness as hs  # noqa: E402
from recorder import Recorder  # noqa: E402
from reference import SpeedSampler  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3
# two items reach both item classes of every workload
SMOKE = ["--seed", str(SEED), "--seconds", "600", "--max-items", "2"]

# per-layer metrics that a traced smoke run of each workload must move off 0
REACHED = {
    "roof-min": ["states.build_s", "linalg.partial_trace_s",
                 "measures.roof_min.d4_s", "measures.roof_min.d8_s",
                 "measures.roof_min.restart_share",
                 "measures.roof_min.converged_share",
                 "measures.roof_min.d8_mean_value"],
    "roof-max": ["states.build_s", "linalg.partial_trace_s", "measures.pure_s",
                 "measures.screnoa.haar_s", "measures.screnoa.wclass_s",
                 "harness.bound_report_s"],
    "audit": ["states.build_s", "linalg.partial_trace_s",
              "linalg.partial_trace.calls", "measures.wootters_s",
              "measures.pure_s", "measures.negativity_mixed_s", "bounds.eval_s",
              "bounds.evals", "bounds.admissible_share"],
    "figures": ["harness.figure_spec_s", "harness.sweep_rows_s",
                "harness.rows_to_csv_s", "harness.grid_points_per_s",
                "harness.csv_bytes"],
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(REACHED) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace):
    proc = run_bench("--workload", workload, "--trace", trace, *SMOKE)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == (4 if trace == "1" else 2)
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in listed})
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    reached = REACHED[workload] if trace == "1" else list(values)
    assert [n for n in reached if not values[n] > 0] == []


def test_no_result_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "audit", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    rec = Recorder()
    rec.spans = [[0, "item", -1, 0, 100], [0, "a", 0, 10, 40],
                 [0, "b", 1, 15, 25], [0, "a", 0, 50, 60]]
    times = rec.self_times()
    assert times["item"] == pytest.approx((60e-9, 1))
    assert times["a"] == pytest.approx((30e-9, 2))
    assert times["b"] == pytest.approx((10e-9, 1))


def test_disabled_recorder_keeps_no_spans():
    rec = Recorder()
    with rec.span("item"):
        pass
    assert rec.spans == []


def test_speed_sampler_samples_and_restores_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedSampler(interval=0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert sampler.samples >= 5
    assert sampler.unit_seconds(0.0, 0) > 0
    assert sampler.unit_seconds(0.004, 2) == 0.002


def _messages(fails, needle):
    return [f for f in fails if needle in f]


@pytest.fixture(scope="module")
def roof_min():
    wl = workloads.RoofMin(SEED)
    results = {}
    for k in (0, 1):   # d8, then d4
        x = wl.inputs[k]
        assert x.shape == ("d8", "d4")[k]
        results[x.shape] = (k, wl.run(k, Recorder()))
    return wl, results


def test_min_roof_gates_trip(roof_min):
    wl, results = roof_min
    k, res = results["d4"]
    assert wl.check(k, res) == []
    above = dataclasses.replace(res, value=res.value + 1e-6)
    assert _messages(wl.check(k, above), "min roof vs Wootters")
    below = dataclasses.replace(res, value=res.value - 1e-6)
    assert _messages(wl.check(k, below), "under Wootters (one-sided)")
    k, res = results["d8"]
    assert wl.check(k, res) == []
    floor = wl.exact(wl.inputs[k])
    assert _messages(wl.check(k, dataclasses.replace(res, value=floor - 1e-3)),
                     "under CKW floor")


def test_max_roof_gates_trip():
    wl = workloads.RoofMax(SEED)
    k = 1
    x = wl.inputs[k]
    q_ab, q_ac = wl.exact(x)
    lhs = gates.qubit_concurrence_sq(x.amps)

    def output(q_ab, q_ac):
        reports = [hs.evaluate_bound_report("polygamy", lhs, q_ab, q_ac,
                                            variants=workloads.POLY_VARIANTS,
                                            beta=b, delta=d)
                   for b, d in workloads.POLY_POINTS]
        return q_ab, q_ac, lhs, reports

    assert wl.check(k, output(q_ab, q_ac)) == []
    fails = wl.check(k, output(q_ab + 1e-6, q_ac))
    assert _messages(fails, "SCRENoA AB above (sum mu)^2 (one-sided)")
    fails = wl.check(k, output(q_ab, q_ac - 1e-6))
    assert _messages(fails, "SCRENoA AC vs (sum mu)^2")
    assert not _messages(fails, "one-sided")
    bad_report = output(q_ab, q_ac)
    rep = bad_report[3][0]
    v = "thm4" if rep.preconditions_ok["thm4"] else "ref29"
    flipped = dataclasses.replace(
        rep, preconditions_ok={**rep.preconditions_ok, v: not rep.preconditions_ok[v]})
    bad_report[3][0] = flipped
    assert _messages(wl.check(k, bad_report), "admissible")


def test_audit_gates_trip():
    wl = workloads.Audit(SEED)
    # a W-class item (CKW-tight) with a bound window
    k = next(i for i, x in enumerate(wl.inputs)
             if x.state.wclass and x.window is not None)
    values, evals = wl.run(k, Recorder())
    assert wl.check(k, (values, evals)) == []
    c_ab, c_ac, c_a, n_a, n_ab, n_ac = values
    fails = wl.check(k, ((c_ab + 1e-6, c_ac, c_a, n_a, n_ab, n_ac), evals))
    assert _messages(fails, "Wootters AB")
    assert _messages(fails, "CKW slack")
    fails = wl.check(k, ((c_ab, c_ac, c_a, n_a, n_ab * (1 + 1e-6), n_ac), evals))
    assert _messages(fails, "negativity AB")
    ok, rhs, prior = evals[4]
    bent = list(evals)
    bent[4] = (ok, rhs * (1 + 1e-6), prior)
    assert _messages(wl.check(k, (values, bent)), "thm1 RHS")


def test_figure_digest_gate_trips():
    wl = workloads.Figures(SEED)
    csv = wl.run(1, Recorder())
    assert wl.check(1, csv) == []
    first, _, body = csv.partition("\n")
    wrong_digit = first + "\n" + body.replace("1", "2", 1)
    assert _messages(wl.check(1, wrong_digit), "CSV body SHA-256")
    wrong_seed = csv.replace(f"seed={SEED}", f"seed={SEED + 1}", 1)
    assert _messages(wl.check(1, wrong_seed), "CSV header")
