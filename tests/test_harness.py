import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entbounds import harness as h
from entbounds import measures as msr
from entbounds.linalg import DensityMatrix, SystemSignature, partial_trace
from entbounds.states import (
    SchmidtParams,
    generalized_schmidt_state,
    haar_random_pure,
    reduce_pair,
    save_state,
    to_density,
    w_class_state,
)

from conftest import rand_density

S6 = float(np.sqrt(6.0) / 6.0)
EX1_BUILDER = f"schmidt:0.5,{S6!r},{S6!r},0.5,{S6!r}"
EX2_BUILDER = "wclass:0.5,0.5,0.7071067811865476"
WCLASS_CKW = "wclass:0.8,0.3,0.5196152422706632"


def run_cli(args, capsys):
    code = h.main(args)
    out = capsys.readouterr().out
    return code, out


# -- parsing ------------------------------------------------------------------

def test_parse_split():
    assert h.parse_split("A|BC", 3) == (0,)
    assert h.parse_split("AB|C", 3) == (0, 1)
    assert h.parse_split("0|12", 3) == (0,)
    assert h.parse_split("2|01", 3) == (2,)
    with pytest.raises(h.UsageError):
        h.parse_split("A|B", 3)
    with pytest.raises(h.UsageError):
        h.parse_split("ABC", 3)
    with pytest.raises(h.UsageError):
        h.parse_split("A|BB", 3)


def test_builders():
    psi = h.build_state(EX1_BUILDER)
    ref = generalized_schmidt_state(SchmidtParams((0.5, S6, S6, 0.5, S6)))
    assert np.allclose(psi.amps, ref.amps)

    w = h.build_state(EX2_BUILDER)
    ref = w_class_state(0.5, 0.5, np.sqrt(2) / 2)
    assert np.allclose(w.amps, ref.amps, atol=1e-12)

    with pytest.raises(h.UsageError):
        h.build_state("ghz:1,2")
    with pytest.raises(h.UsageError):
        h.build_state("schmidt:1,2")


# -- measure command ----------------------------------------------------------

def test_measure_example1_concurrence(capsys):
    code, out = run_cli(["measure", "--builder", EX1_BUILDER,
                         "--measure", "concurrence", "--split", "A|BC"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(np.sqrt(21) / 6, abs=1e-10)
    assert rec["measure"] == "concurrence"
    assert rec["split"] == [0]
    assert rec["seed"] == 0
    assert rec["generator"] == "pcg64"


def test_measure_bell_negativity(tmp_path, capsys):
    from conftest import bell_state
    path = tmp_path / "bell.json"
    save_state(bell_state(), str(path))
    code, out = run_cli(["measure", "--state", str(path),
                         "--measure", "negativity"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-10)


CLOSED_FORM_NAMES = ("scren", "screnoa", "cren", "crenoa", "wootters")


def test_measure_wclass_marginal_closed_forms(capsys):
    # the two-qubit measures are exact closed forms, not one-sided roofs
    pair = reduce_pair(to_density(w_class_state(0.5, 0.5, np.sqrt(2) / 2)), 1)
    exact = {"scren": 0.25, "screnoa": 0.25, "cren": 0.5, "crenoa": 0.5,
             "wootters": 0.5}
    for name in CLOSED_FORM_NAMES:
        code, out = run_cli(["measure", "--builder", EX2_BUILDER, "--keep", "0,1",
                             "--measure", name, "--seed", "5"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == h.CLOSED_FORMS[name](pair) == exact[name]
        assert "optimizer" not in rec


def test_measure_runs_no_roof_on_two_qubit_inputs(tmp_path, capsys,
                                                  monkeypatch):
    def no_roof(*args, **kwargs):
        raise AssertionError("convex_roof ran on a two-qubit input")

    monkeypatch.setattr(msr, "convex_roof", no_roof)
    path = tmp_path / "pair.json"
    save_state(haar_random_pure(2, 17), str(path))
    inputs = (["--state", str(path)],
              ["--builder", EX2_BUILDER, "--keep", "0,2"])
    for state in inputs:
        for name in CLOSED_FORM_NAMES + ("concurrence",):
            code, out = run_cli(["measure"] + state + ["--measure", name],
                                capsys)
            assert code == 0
            assert "optimizer" not in json.loads(out)


def test_measure_wootters_marginal(capsys):
    code, out = run_cli(["measure", "--builder", EX1_BUILDER, "--keep", "0,1",
                         "--measure", "wootters"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(S6, abs=1e-10)


def test_measure_usage_errors(capsys):
    code = h.main(["measure", "--measure", "concurrence"])
    assert code == 2
    err = capsys.readouterr().err
    assert "state" in err or "builder" in err


def test_split_names_subsystems_of_the_signature(tmp_path, capsys):
    # "1|0" on a (2, 4) state is the cut 12|0 of the qubits behind it, for
    # the roof as for negativity
    psi = haar_random_pure(3, 9)
    path = tmp_path / "rho.json"
    save_state(DensityMatrix(to_density(psi).mat, SystemSignature((2, 4))),
               str(path))
    want = {"concurrence": msr.concurrence_pure(psi, (1, 2)),
            "negativity": msr.negativity_pure(psi, (1, 2))}
    for name, value in want.items():
        code, out = run_cli(["measure", "--state", str(path), "--measure", name,
                             "--split", "1|0"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(value, abs=1e-12)


def test_a_one_subsystem_state_has_no_split(tmp_path, capsys):
    path = tmp_path / "flat.json"
    save_state(DensityMatrix(np.eye(4) / 4, SystemSignature((4,))), str(path))
    errors = {usage_error(["measure", "--state", str(path), "--measure", name],
                          capsys) for name in ("concurrence", "negativity")}
    assert errors == {"entbounds: error: split must leave a nonempty second block"}


# -- bound command ------------------------------------------------------------

def test_bound_example1_gaps(capsys):
    t = repr(float(np.sqrt(6) / 2))
    code, out = run_cli(["bound", "--builder", EX1_BUILDER,
                         "--kind", "monogamy", "--variants", "thm1,ref29",
                         "--alpha", "1", "--gamma", "2",
                         "--t", t, "--q", "edge"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["lhs"] == pytest.approx(np.sqrt(21) / 6, abs=1e-10)
    assert rec["variant_rhs"]["thm1"] == pytest.approx(0.6462607329003782, abs=1e-9)
    assert rec["variant_rhs"]["ref29"] == pytest.approx(0.6446878605381149, abs=1e-9)
    assert rec["gaps"]["thm1"] == pytest.approx(0.1175018829255950, abs=1e-9)
    assert rec["gaps"]["ref29"] == pytest.approx(0.1190747552878584, abs=1e-9)
    assert rec["variant_rhs"]["thm1"] > rec["variant_rhs"]["ref29"]
    assert rec["preconditions_ok"] == {"thm1": True, "ref29": True}


def test_bound_example2_ordering(capsys):
    code, out = run_cli(["bound", "--builder", EX2_BUILDER,
                         "--kind", "polygamy", "--variants", "thm4,ref29",
                         "--beta", "1", "--delta", "0.8",
                         "--t", repr(float(2.0 ** 0.6)), "--q", "edge",
                         "--seed", "3"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["variant_rhs"]["thm4"] < rec["variant_rhs"]["ref29"]
    assert rec["variant_rhs"]["thm4"] == pytest.approx(0.8811862835051213, abs=2e-3)
    assert rec["lhs"] == pytest.approx(0.75, abs=1e-10)
    assert rec["lhs"] <= rec["variant_rhs"]["thm4"]


def test_bound_inadmissible_q_reported(capsys):
    code, out = run_cli(["bound", "--builder", EX1_BUILDER,
                         "--kind", "monogamy", "--variants", "thm1",
                         "--alpha", "1", "--gamma", "2",
                         "--t", "1.2", "--q", "3.0"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["preconditions_ok"]["thm1"] is False
    assert np.isnan(rec["variant_rhs"]["thm1"])
    assert "thm1" not in rec["gaps"]


def test_bound_requires_exponents(capsys):
    code = h.main(["bound", "--builder", EX1_BUILDER, "--kind", "monogamy"])
    assert code == 2


# -- figures ------------------------------------------------------------------

def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# seed=")
    cols = lines[1].split(",")
    rows = [dict(zip(cols, ln.split(","))) for ln in lines[2:]]
    return cols, rows


def test_figure3_gap_nonnegative(capsys):
    code, out = run_cli(["figure", "--id", "3", "--resolution", "21"], capsys)
    assert code == 0
    cols, rows = parse_csv(out)
    assert cols == ["alpha", "gamma", "lhs", "rhs_thm1", "rhs_ref29",
                    "gap", "admissible"]
    assert len(rows) == 21 * 21
    gaps = [float(r["gap"]) for r in rows if r["admissible"] == "1"]
    assert len(gaps) == len(rows)
    assert min(gaps) >= -1e-12


def test_figure2_slice_ordering(capsys):
    code, out = run_cli(["figure", "--id", "2", "--resolution", "21"], capsys)
    assert code == 0
    cols, rows = parse_csv(out)
    assert len(rows) == 21
    for r in rows:
        assert float(r["gamma"]) == 20.0
        assert float(r["rhs_thm1"]) >= float(r["rhs_ref29"]) - 1e-12


def test_figure6_admissible_gap(capsys):
    code, out = run_cli(["figure", "--id", "6", "--resolution", "21"], capsys)
    assert code == 0
    cols, rows = parse_csv(out)
    assert cols[:2] == ["beta", "delta"]
    adm = [r for r in rows if r["admissible"] == "1"]
    masked = [r for r in rows if r["admissible"] == "0"]
    # the beta < delta corner is masked out
    assert all(float(r["beta"]) < float(r["delta"]) for r in masked)
    assert min(float(r["gap"]) for r in adm) >= -1e-12


def test_all_figures_ordering_property(capsys):
    # every admissible grid point respects tightened-vs-prior ordering
    for fig_id in range(1, 7):
        code, out = run_cli(["figure", "--id", str(fig_id),
                             "--resolution", "13"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        adm = [r for r in rows if r["admissible"] == "1"]
        assert adm
        assert min(float(r["gap"]) for r in adm) >= -1e-12


def test_fig_poly_is_the_wclass_example():
    # FIG_POLY stays a literal, so the figure bytes do not depend on the
    # last bits of the measures; it must still be what the state gives
    lhs_base, q_ab, q_ac = h._measured_inputs(h.build_state(EX2_BUILDER),
                                              "polygamy")
    assert abs(q_ab - h.FIG_POLY["q_ab"]) <= 1e-15
    assert abs(q_ac - h.FIG_POLY["q_ac"]) <= 1e-15
    assert abs(lhs_base - h.FIG_POLY["lhs_base"]) <= 1e-15


def test_figure_job_validation():
    with pytest.raises(h.UsageError):
        h.figure_spec(9)
    with pytest.raises(h.UsageError, match="resolution must be >= 2"):
        h.figure_spec(1, resolution=1)


def test_figure_bad_id(capsys):
    with pytest.raises(SystemExit) as exc:
        h.main(["figure", "--id", "9"])
    assert exc.value.code == 2


# -- sweep --------------------------------------------------------------------

def test_sweep_q_monotonicity(capsys):
    code, out = run_cli(["sweep", "--builder", EX1_BUILDER,
                         "--kind", "monogamy",
                         "--axis", "q:1.6666666666666667:1.8164965809277559:25",
                         "--fix", "alpha=1", "--fix", "gamma=2",
                         "--fix", f"t={float(np.sqrt(6)/2)!r}",
                         "--variants", "thm1,ref29"], capsys)
    assert code == 0
    cols, rows = parse_csv(out)
    vals = [float(r["rhs_thm1"]) for r in rows if r["admissible"] == "1"]
    assert len(vals) >= 20
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


def test_sweep_matches_figure_csv(capsys):
    code1, fig = run_cli(["figure", "--id", "1", "--resolution", "11"], capsys)
    code2, swp = run_cli(["sweep", "--builder", EX1_BUILDER,
                          "--kind", "monogamy",
                          "--axis", "alpha:0:2:11", "--axis", "gamma:2:20:11",
                          "--fix", f"t={float(np.sqrt(6)/2)!r}", "--fix", "q=edge",
                          "--variants", "thm1,ref29"], capsys)
    assert code1 == 0 and code2 == 0
    assert fig == swp  # byte-identical: same code path


def test_sweep_top_q_identity(capsys):
    code, out = run_cli(["sweep", "--builder", EX1_BUILDER,
                         "--kind", "monogamy",
                         "--axis", "t:1.0:1.4:15",
                         "--fix", "alpha=1", "--fix", "gamma=2",
                         "--fix", "q=top", "--variants", "thm1,ref29"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    for r in rows:
        if r["admissible"] == "1":
            assert float(r["rhs_thm1"]) == pytest.approx(
                float(r["rhs_ref29"]), abs=1e-13)


def scalar_sweep_rows(spec, lhs_base, q_ab, q_ac, seed):
    """sweep_rows point by point: one evaluate_bound_report per grid point,
    its rows turned into full-grid columns only at the end.  The reference
    the grid evaluation must match bit for bit."""
    axis_vals = [(name, np.linspace(start, stop, steps))
                 for name, start, stop, steps in spec.axes]
    grid_desc = "x".join(f"{name}[{float(a[0])!r},{float(a[-1])!r},{len(a)}]"
                         for name, a in axis_vals)
    side = h.bnd.SIDES[spec.kind]
    num_name, den_name = side.exponents
    axis_names = [name for name, _ in axis_vals]
    value_cols = [num_name, den_name] + [n for n in axis_names
                                         if n not in side.exponents]
    columns = value_cols + ["lhs"] + [f"rhs_{v}" for v in spec.variants] + [
        "gap", "admissible"]
    header = [f"# seed={seed} grid={grid_desc}", ",".join(columns)]
    if len(axis_vals) == 1:
        points = [(v,) for v in axis_vals[0][1]]
    else:
        points = [(u, v) for u in axis_vals[0][1] for v in axis_vals[1][1]]
    rows = []
    for pt in points:
        values = dict(spec.fixed)
        for (name, _), v in zip(axis_vals, pt):
            values[name] = float(v)
        num, den = values[num_name], values[den_name]
        if side.blank_num_below_den and num < den:
            rhs_vals = [float("nan")] * len(spec.variants)
            admissible, lhs = False, float("nan")
        else:
            report = h.evaluate_bound_report(
                spec.kind, lhs_base, q_ab, q_ac, variants=spec.variants,
                t=values.get("t", "sqrt"), q=values.get("q", "edge"),
                k=values.get("k"), p=values.get("p"), a=values.get("a"),
                **{num_name: num, den_name: den})
            rhs_vals = [report.variant_rhs[v] for v in spec.variants]
            admissible = all(report.preconditions_ok[v] for v in spec.variants)
            lhs = report.lhs
        gap = float("nan")
        if side.theorem in spec.variants and "ref29" in spec.variants and admissible:
            gap = side.gap(rhs_vals[spec.variants.index(side.theorem)],
                           rhs_vals[spec.variants.index("ref29")])
        lead = [float(values.get(c, float("nan"))) for c in value_cols]
        rows.append(lead + [lhs] + rhs_vals + [gap, admissible])
    shape = tuple(len(a) for _, a in axis_vals)
    return header, [np.array(c).reshape(shape) for c in zip(*rows)]


def cli_outcome(args, capsys):
    """Exit code and output of the CLI, or the type and message of the
    exception that escapes it (the process would exit 1 with a traceback)."""
    try:
        code = h.main(args)
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        capsys.readouterr()
        return ("raised", type(exc), str(exc))
    captured = capsys.readouterr()
    return ("exit", code, captured.out, captured.err)


QAB0_BUILDER = "wclass:0.6,0,0.8"   # Q_AB = 0 on both sides
ZERO_BUILDER = "wclass:1,0,0"       # product state: every value 0
MONO_PRIORS = ["--fix", "k=1.5", "--fix", "p=0.7", "--fix", "a=2"]
EDGE_AXES = ["--axis", "alpha:-0.5:2.5:7", "--axis", "gamma:0:4:9"]
POLY_AXES = ["--axis", "delta:-0.25:1.25:7", "--axis", "beta:0:2:9"]

GRID_CASES = {
    # exponents on and beyond every range edge, gamma = 0 included
    "mono-edges-sqrt-edge": (EX1_BUILDER, "monogamy", EDGE_AXES, [],
                             "thm1,ref16,ref28,ref29"),
    "mono-edges-number-top": (EX1_BUILDER, "monogamy", EDGE_AXES,
                              ["--fix", "t=1.3", "--fix", "q=top"] + MONO_PRIORS,
                              "thm1,ref16,ref28,ref29"),
    "mono-edges-q-number": (EX1_BUILDER, "monogamy", EDGE_AXES,
                            ["--fix", "q=1.7"], "ref29,thm1"),
    "mono-t-axis": (EX1_BUILDER, "monogamy", ["--axis", "t:0.5:2:7"],
                    ["--fix", "alpha=1", "--fix", "gamma=2", "--fix", "q=1.7"],
                    "thm1,ref16,ref29"),
    "mono-t-q-axes": (EX1_BUILDER, "monogamy",
                      ["--axis", "t:0.8:1.6:5", "--axis", "q:0.9:2.2:9"],
                      ["--fix", "alpha=1.5", "--fix", "gamma=3"], "thm1,ref29"),
    "mono-q-axis-sqrt": (EX1_BUILDER, "monogamy", ["--axis", "q:1.5:1.9:9"],
                         ["--fix", "alpha=1", "--fix", "gamma=2",
                          "--fix", "t=sqrt"], "thm1,ref28"),
    "mono-qab-zero": (QAB0_BUILDER, "monogamy", EDGE_AXES, [],
                      "thm1,ref16,ref28,ref29"),
    "mono-qab-zero-top": (QAB0_BUILDER, "monogamy", EDGE_AXES,
                          ["--fix", "q=top"], "thm1,ref29"),
    "mono-zero-top": (ZERO_BUILDER, "monogamy", EDGE_AXES, ["--fix", "q=top"],
                      "thm1,ref16,ref29"),
    "mono-zero-number": (ZERO_BUILDER, "monogamy", EDGE_AXES,
                         ["--fix", "q=1.5", "--fix", "t=1"], "thm1,ref29"),
    # edge q is undefined when Q_AC = 0: exit 2
    "mono-zero-edge": (ZERO_BUILDER, "monogamy", EDGE_AXES, [], "thm1,ref29"),
    "mono-unknown-variant": (EX1_BUILDER, "monogamy", EDGE_AXES, [],
                             "thm1,thm4"),
    # top q = 1 + 1/t at t = 0 is a usage error in both
    "mono-top-t-zero": (EX1_BUILDER, "monogamy", ["--axis", "t:0:2:5"],
                        ["--fix", "alpha=1", "--fix", "gamma=2",
                         "--fix", "q=top"], "thm1,ref29"),
    # a = t = 0 and k = 0 (a, k < 1 are inadmissible, not a division error);
    # None: the kind's default variants
    "mono-t-zero": (EX1_BUILDER, "monogamy", ["--axis", "alpha:0:2:5"],
                    ["--fix", "gamma=2", "--fix", "t=0"], None),
    "mono-a-zero": (EX1_BUILDER, "monogamy", EDGE_AXES, ["--fix", "a=0"],
                    "ref29"),
    "mono-k-zero": (EX1_BUILDER, "monogamy", EDGE_AXES,
                    ["--fix", "k=0", "--fix", "p=0.7"], "thm1,ref16,ref28"),
    # delta = 0 and 1 included; beta < delta rows are blank
    "poly-edges-sqrt-edge": (EX2_BUILDER, "polygamy", POLY_AXES, [],
                             "thm4,ref16,ref28,ref29"),
    "poly-edges-number-top": (EX2_BUILDER, "polygamy", POLY_AXES,
                              ["--fix", "t=1.2", "--fix", "q=top",
                               "--fix", "k=1.1", "--fix", "p=0.5",
                               "--fix", "a=1.05"], "thm4,ref16,ref28,ref29"),
    "poly-beta-axis": (EX2_BUILDER, "polygamy", ["--axis", "beta:0.6:3:9"],
                       ["--fix", "delta=0.8"], "thm4,ref29"),
    "poly-t-axis": (EX2_BUILDER, "polygamy", ["--axis", "t:0.9:2:6"],
                    ["--fix", "beta=1", "--fix", "delta=0.8"], "thm4,ref28"),
    "poly-qab-zero": (QAB0_BUILDER, "polygamy", POLY_AXES, [],
                      "thm4,ref16,ref29"),
    "poly-qab-zero-top": (QAB0_BUILDER, "polygamy", POLY_AXES,
                          ["--fix", "q=top"], "thm4,ref28"),
    "poly-zero-top": (ZERO_BUILDER, "polygamy", POLY_AXES,
                      ["--fix", "q=top"], "thm4,ref28,ref29"),
    # every point blank: nothing is evaluated, not even the bad variant
    "poly-all-blank": (EX2_BUILDER, "polygamy", ["--axis", "beta:0.1:0.5:4"],
                       ["--fix", "delta=0.8"], "thm4,bogus"),
    "poly-unknown-variant": (EX2_BUILDER, "polygamy", POLY_AXES, [],
                             "thm4,thm1"),
    "poly-t-zero": (EX2_BUILDER, "polygamy", POLY_AXES, ["--fix", "t=0"], None),
    # 1 + 1/a < 0 makes the unused ref29 power complex
    "poly-a-negative": (EX2_BUILDER, "polygamy", POLY_AXES,
                        ["--fix", "a=-0.5"], "thm4,ref29"),
    # a non-finite exponent: exit 2
    "mono-gamma-nan": (EX1_BUILDER, "monogamy", ["--axis", "alpha:0:2:5"],
                       ["--fix", "gamma=nan"], "ref29,thm1"),
    "poly-beta-inf": (EX2_BUILDER, "polygamy", ["--axis", "delta:0.5:1:3"],
                      ["--fix", "beta=inf"], None),
    # (1 + t)^(beta/delta) overflows at delta = 0.0005: exit 2
    "poly-overflow": (EX2_BUILDER, "polygamy", ["--axis", "delta:0.0005:1:5"],
                      ["--fix", "beta=1"], "thm4,ref29"),
    # the same powers overflow only where the window fails: no error
    "poly-overflow-inadmissible": (EX2_BUILDER, "polygamy",
                                   ["--axis", "delta:0.0005:0.001:3"],
                                   ["--fix", "beta=1", "--fix", "q=5"], "thm4"),
    # top q = 1 + 1/t is inf at a subnormal t: exit 2, q must be finite
    "mono-top-subnormal-t": (EX1_BUILDER, "monogamy", ["--axis", "t:1e-310:2:3"],
                             ["--fix", "alpha=1", "--fix", "gamma=2",
                              "--fix", "q=top"], "thm1,ref29"),
    # ... but ref29 does not read q, and its a = t < 1 is inadmissible: exit 0
    "mono-top-subnormal-t-prior": (EX1_BUILDER, "monogamy",
                                   ["--axis", "t:5e-324:2:3"],
                                   ["--fix", "alpha=1", "--fix", "gamma=2",
                                    "--fix", "q=top"], "ref29"),
}


def grid_case_args(name):
    builder, kind, axes, fixes, variants = GRID_CASES[name]
    args = ["sweep", "--builder", builder, "--kind", kind] + axes + fixes
    if variants is not None:
        args += ["--variants", variants]
    return args


@pytest.mark.parametrize("name", list(GRID_CASES))
def test_sweep_grid_matches_scalar_engine(capsys, monkeypatch, name):
    args = grid_case_args(name)
    grid = cli_outcome(args, capsys)
    monkeypatch.setattr(h, "sweep_rows", scalar_sweep_rows)
    scalar = cli_outcome(args, capsys)
    assert grid == scalar
    if name == "poly-all-blank":
        _, rows = parse_csv(grid[2])
        assert grid[1] == 0 and all(r["admissible"] == "0" for r in rows)
    if name == "mono-top-subnormal-t":
        assert grid[1:3] == (2, "")
        assert grid[3].endswith("q must be finite, got inf\n")
    if name == "mono-top-subnormal-t-prior":
        assert grid[1] == 0


# the GRID_CASES whose array pass raises, so that sweep_rows evaluates
# their points one at a time; every other case stays on the grid
POINT_CASES = {"mono-zero-edge", "mono-unknown-variant", "mono-top-t-zero",
               "poly-all-blank", "poly-unknown-variant", "poly-a-negative",
               "poly-overflow", "poly-overflow-inadmissible",
               "mono-top-subnormal-t"}
# the GOLDEN digest of each figure at its default resolution; 3 and 6
# print the grids of 1 and 4
FULL_FIGURE_GOLDEN = {1: "figure1-full", 2: "figure2-full", 3: "figure1-full",
                      4: "figure4-full", 5: "figure5-full", 6: "figure4-full"}


def test_figures_and_regular_sweeps_stay_on_the_grid(capsys, monkeypatch):
    # the point-by-point fallback is several times slower than the array
    # pass and prints the same bytes, so a grid that raised by mistake
    # would show only in run time: here the fallback raises instead
    cases = [grid_case_args(n) for n in GRID_CASES if n not in POINT_CASES]
    want = [cli_outcome(args, capsys) for args in cases]

    def point_report(*args):
        raise AssertionError("the grid raised on a regular sweep")

    monkeypatch.setattr(h, "_point_report", point_report)
    assert [cli_outcome(args, capsys) for args in cases] == want
    for fig_id, name in FULL_FIGURE_GOLDEN.items():
        code, out = run_cli(["figure", "--id", str(fig_id)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name][1]


def test_point_cases_leave_the_grid(capsys, monkeypatch):
    # the array pass of each POINT_CASES sweep raises, and the sweep
    # evaluates its points one at a time
    calls, real_point_report = [], h._point_report

    def point_report(*args):
        calls.append(args)
        return real_point_report(*args)

    monkeypatch.setattr(h, "_point_report", point_report)
    for name in sorted(POINT_CASES):
        del calls[:]
        cli_outcome(grid_case_args(name), capsys)
        assert len(calls) == 1, name


def test_sweep_grid_rows_match_scalar_rows():
    # the cells themselves, float or bool, column by column, not only
    # their CSV text
    for fig_id in (1, 4, 5):
        spec, data = h.figure_spec(fig_id, 21)
        inputs = (data["lhs_base"], data["q_ab"], data["q_ac"], 3)
        grid = h.sweep_rows(spec, *inputs)
        scalar = scalar_sweep_rows(spec, *inputs)
        assert grid[0] == scalar[0]
        shape = scalar[1][0].shape
        assert np.broadcast_shapes(*map(np.shape, grid[1])) == shape
        assert len(grid[1]) == len(scalar[1])
        for got, want in zip(grid[1], scalar[1]):
            got = np.broadcast_to(got, shape).ravel().tolist()
            assert ([(type(v), repr(v)) for v in got]
                    == [(type(v), repr(v)) for v in want.ravel().tolist()])


def test_figure_csv_formats_each_distinct_value_once(capsys, monkeypatch):
    # formatting every cell prints the same bytes as formatting each
    # distinct bit pattern of a column once, and costs about twice as much
    # on a figure, so it would show only in run time: here it fails the
    # count of the writer's repr calls
    spec, data = h.figure_spec(1)
    _, columns = h.sweep_rows(spec, data["lhs_base"], data["q_ab"],
                              data["q_ac"], 0)
    # alpha, gamma and lhs keep the shape of their axis
    assert [np.shape(c) for c in columns[:3]] == [(101, 1), (1, 101), (101, 1)]
    distinct = [len(np.unique(np.asarray(c, dtype=float).view(np.int64)))
                for c in columns[:-1]]
    assert distinct[:3] == [101, 101, 101]
    calls = []

    def counting(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(h, "repr", counting, raising=False)
    code, out = run_cli(["figure", "--id", "1"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN["figure1-full"][1]
    # more than the three axis-shaped columns: the writer's reprs are seen
    assert 3 * 101 < len(calls) <= sum(distinct)


def oracle_rows_to_csv(header, rows) -> str:
    """rows_to_csv one row at a time, every cell formatted: the reference
    the column-wise writer must match byte for byte."""
    lines = list(header)
    for row in rows:
        lines.append(",".join(map(repr, row[:-1])) + (",1" if row[-1] else ",0"))
    return "\n".join(lines) + "\n"


def row_columns(rows):
    """The rows of a CSV case as rows_to_csv columns: one float array per
    value column and a bool admissible array, zero-length with no rows."""
    columns = list(zip(*rows)) or [()] * len(CSV_HEADER[1].split(","))
    return ([np.array(c, dtype=float) for c in columns[:-1]]
            + [np.array(columns[-1], dtype=bool)])


def column_rows(columns):
    """The grid columns of a CSV case as rows of Python floats and bools."""
    shape = np.broadcast_shapes(*map(np.shape, columns))
    return [list(row) for row in
            zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in columns))]


NAN, INF = float("nan"), float("inf")
SUBNORMALS = [5e-324, 2.2250738585072014e-308 / 3, -1e-310]
# quiet and signalling payloads, with and without the sign bit
NANS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
                dtype=np.uint64).view(float).tolist()
SIGNED_ZEROS = np.array([0.0, -0.0, 0.0, -0.0, 0.5, -0.0])
CSV_HEADER = ["# seed=1 grid=x[0.0,1.0,2]", "a,b,c,lhs,admissible"]
# cases given as rows, fed to the writer by row_columns
CSV_CASES = {
    # equal and hash-equal, but two reprs: a memo must keep them apart
    "signed-zeros": [[0.0 if i % 3 else -0.0, -0.0, 0.0, float(i % 2),
                      i % 2 == 0] for i in range(60)],
    "signed-zero-runs": [[-0.0 if i < 30 else 0.0, 0.5, -0.0, float(i),
                          True] for i in range(60)],
    "specials": [[[NAN, INF, -INF, *SUBNORMALS][i % 6], NAN,
                  [NAN, INF, -INF, *SUBNORMALS][i // 10],
                  float("nan") if i % 3 == 0 else -INF, i % 4 == 0]
                 for i in range(60)],
    "repeated-and-unique": [[0.1 * (i // 7), 2.0 + 0.3 * (i % 7), i / 49,
                             (i + 0.5) ** 0.5, bool(i % 5)]
                            for i in range(49)],
    "one-row": [[-0.0, NAN, 5e-324, 1.5, False]],
    "empty": [],
    # five bit patterns that all print nan
    "nan-payloads": [[NANS[i % 5], NANS[(i // 5) % 5], -0.0 if i % 2 else NAN,
                      NANS[i % 3], i % 3 == 0] for i in range(40)],
}
# cases given as grid columns, the shapes sweep_rows returns
CSV_GRID_CASES = {
    # both zeros on a (1, n) and on an (n, 1) axis
    "signed-zero-axes": [SIGNED_ZEROS[None, :], SIGNED_ZEROS[::-1, None],
                         np.outer(SIGNED_ZEROS, SIGNED_ZEROS),
                         SIGNED_ZEROS[:, None] - 1.0,
                         np.add.outer(SIGNED_ZEROS, SIGNED_ZEROS) >= 0.5],
    # a 0-d fixed value beside one axis
    "fixed-value": [np.array(20.0), np.linspace(0.0, 2.0, 5),
                    np.linspace(0.0, 2.0, 5) ** 2, np.array(np.nan),
                    np.array([True, False, True, True, False])],
}


@pytest.mark.parametrize("name", [*CSV_CASES, *CSV_GRID_CASES])
def test_rows_to_csv_matches_row_oracle(name):
    if name in CSV_CASES:
        rows = CSV_CASES[name]
        columns = row_columns(rows)
    else:
        columns = CSV_GRID_CASES[name]
        rows = column_rows(columns)
    assert h.rows_to_csv(CSV_HEADER, columns) == oracle_rows_to_csv(
        CSV_HEADER, rows)


def usage_error(args, capsys) -> str:
    """The one stderr line of a CLI run that must exit 2 with no output."""
    code = h.main(args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("entbounds: error:")
    return lines[0]


def test_non_integer_keep_is_a_usage_error(capsys):
    line = usage_error(["measure", "--builder", "wclass:0.6,0,0.8",
                        "--keep", "0,x", "--measure", "concurrence"], capsys)
    assert line == ("entbounds: error: --keep must be comma-separated "
                    "subsystem indices, got '0,x'")


def test_top_q_at_t_zero_is_a_usage_error(capsys):
    poly = ["--builder", EX2_BUILDER, "--kind", "polygamy"]
    bound = ["bound"] + poly + ["--beta", "1", "--delta", "0.8",
                                "--t", "0", "--q", "top"]
    fixed_t = ["sweep"] + poly + ["--axis", "beta:1:2:3", "--fix", "delta=0.8",
                                  "--fix", "t=0", "--fix", "q=top"]
    t_axis = ["sweep"] + poly + ["--axis", "t:0:2:5", "--fix", "beta=1",
                                 "--fix", "delta=0.8", "--fix", "q=top"]
    errors = {usage_error(args, capsys) for args in (bound, fixed_t, t_axis)}
    assert errors == {"entbounds: error: top q = 1 + 1/t is undefined at t = 0"}


@pytest.mark.parametrize("fix", ["t=top", "t=edge", "q=sqrt", "alpha=edge",
                                 "delta=top", "k=sqrt", "t=abc", "q=", "a=1x"])
def test_sweep_fix_words_only_where_they_mean_something(capsys, fix):
    name = fix.partition("=")[0]
    err = usage_error(["sweep", "--builder", EX2_BUILDER, "--kind", "polygamy",
                       "--axis", "beta:1:2:3", "--fix", "delta=0.8",
                       "--fix", fix], capsys)
    assert f"error: {name} must be a number" in err


def test_bound_window_words_only_where_they_mean_something(capsys):
    base = ["bound", "--builder", EX2_BUILDER, "--kind", "polygamy",
            "--beta", "1", "--delta", "0.8"]
    for extra in (["--t", "top"], ["--q", "sqrt"], ["--t", "abc"]):
        assert "must be a number" in usage_error(base + extra, capsys)
    for extra in (["--t", "sqrt", "--q", "top"], ["--t", "1.5", "--q", "2"]):
        assert h.main(base + extra) == 0
        capsys.readouterr()


def test_power_overflow_is_a_usage_error(capsys):
    bound = ["bound", "--builder", EX2_BUILDER, "--kind", "polygamy",
             "--beta", "1", "--delta", "0.0005"]
    sweep = ["sweep", "--builder", EX2_BUILDER, "--kind", "polygamy",
             "--axis", "delta:0.0005:1:5", "--fix", "beta=1"]
    errors = [usage_error(args, capsys) for args in (bound, sweep)]
    assert "overflows" in errors[0]
    assert errors[0] == errors[1]
    spec = h.SweepSpec("polygamy", [("delta", 0.0005, 1.0, 5)], {"beta": 1.0},
                       ["thm4", "ref29"])
    with pytest.raises(h.bnd.BoundsError, match="overflows"):
        h.sweep_rows(spec, 0.75, 0.25, 0.5, 0)


@pytest.mark.parametrize("kind,builder,name,value,other,fixed,span", [
    ("monogamy", EX1_BUILDER, "alpha", "nan", "gamma", "2", "2:3"),
    ("monogamy", EX1_BUILDER, "gamma", "inf", "alpha", "1", "0:2"),
    ("polygamy", EX2_BUILDER, "beta", "nan", "delta", "0.8", "0.5:1"),
    ("polygamy", EX2_BUILDER, "delta", "nan", "beta", "1", "1:2"),
])
def test_non_finite_exponent_is_named(capsys, kind, builder, name, value,
                                      other, fixed, span):
    # the error names the exponent the user gave, in bound and sweep alike
    state = ["--builder", builder, "--kind", kind]
    bound = ["bound"] + state + [f"--{name}", value, f"--{other}", fixed]
    sweep = ["sweep"] + state + ["--axis", f"{other}:{span}:3",
                                 "--fix", f"{name}={value}"]
    errors = {usage_error(args, capsys) for args in (bound, sweep)}
    assert errors == {f"entbounds: error: {name} must be finite, got {value}"}


@pytest.mark.parametrize("kind,builder,name,other,fixed,span,variants", [
    ("monogamy", WCLASS_CKW, "gamma", "alpha", "1", "0:2", "ref29"),
    ("monogamy", EX1_BUILDER, "alpha", "gamma", "2", "2:3", "ref16,ref28"),
    ("polygamy", EX2_BUILDER, "delta", "beta", "1", "1:2", "ref29,ref16"),
])
def test_non_finite_exponent_is_a_usage_error_for_every_variant(
        capsys, kind, builder, name, other, fixed, span, variants):
    # without the theorem among the variants it exited 0 with nan values
    state = ["--builder", builder, "--kind", kind, "--variants", variants]
    bound = ["bound"] + state + [f"--{name}", "nan", f"--{other}", fixed]
    sweep = ["sweep"] + state + ["--axis", f"{other}:{span}:3",
                                 "--fix", f"{name}=nan"]
    errors = {usage_error(args, capsys) for args in (bound, sweep)}
    assert errors == {f"entbounds: error: {name} must be finite, got nan"}


@pytest.mark.parametrize("name,value", [
    ("t", "nan"), ("q", "inf"), ("k", "nan"), ("p", "-inf"), ("a", "nan"),
])
def test_non_finite_window_parameter_is_a_usage_error(capsys, name, value):
    # with only a prior variant it exited 0 and printed bare NaN tokens
    state = ["--builder", WCLASS_CKW, "--kind", "monogamy", "--variants", "ref29"]
    bound = ["bound"] + state + ["--alpha", "1", "--gamma", "2",
                                 f"--{name}={value}"]
    sweep = ["sweep"] + state + ["--axis", "alpha:0:2:3", "--fix", "gamma=2",
                                 "--fix", f"{name}={value}"]
    errors = {usage_error(args, capsys) for args in (bound, sweep)}
    assert errors == {f"entbounds: error: {name} must be finite, got {value}"}
    with pytest.raises(h.UsageError, match=f"{name} must be finite"):
        h.evaluate_bound_report("monogamy", 0.9, 0.3, 0.5, variants=["ref29"],
                                alpha=1.0, gamma=2.0, **{name: float(value)})
    with pytest.raises(h.UsageError, match=f"{name} must be finite"):
        h.SweepSpec("monogamy", [("alpha", 0.0, 2.0, 3)],
                    {"gamma": 2.0, name: float(value)}, ["ref29"])


@pytest.mark.parametrize("span", ["-1e308:1e308", "nan:1", "0:inf"])
def test_non_finite_axis_is_a_usage_error(capsys, span):
    # finite ends whose span overflows gave nan and inf axis values, and a
    # nan row marked admissible
    err = usage_error(["sweep", "--builder", WCLASS_CKW, "--kind", "monogamy",
                       "--axis", f"t:{span}:3", "--fix", "alpha=1",
                       "--fix", "gamma=2", "--variants", "ref29"], capsys)
    assert err == "entbounds: error: axis t: non-finite range"


@pytest.mark.parametrize("measure", ["concurrence", "screnoa", "negativity"])
def test_non_finite_state_file_is_an_input_error(tmp_path, capsys, measure):
    # nan amplitudes read concurrence 0.0 and made screnoa end in a
    # LinAlgError traceback; a nan diagonal read 0.0 and 0.25
    pure = tmp_path / "pure.json"
    pure.write_text('{"n_qubits": 2, "amps": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}')
    rho = np.diag([np.nan, 0.5, 0.5, 0.0])
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"dims": [2, 2], "matrix": [
        [[float(v), 0.0] for v in row] for row in rho]}))
    for path in (pure, mixed):
        err = usage_error(["measure", "--state", str(path),
                           "--measure", measure], capsys)
        assert "finite" in err


def test_state_file_without_amplitudes_is_an_input_error(tmp_path, capsys):
    # no amplitudes took log2(0): a warning, then an OverflowError traceback
    path = tmp_path / "empty.json"
    path.write_text('{"n_qubits": 0, "amps": []}')
    err = usage_error(["measure", "--state", str(path),
                       "--measure", "concurrence"], capsys)
    assert err == "entbounds: error: a state needs at least one amplitude"


@pytest.mark.parametrize("text", ["7", "null"])
def test_state_file_that_is_not_an_object_is_an_input_error(tmp_path, capsys,
                                                            text):
    path = tmp_path / "state.json"
    path.write_text(text)
    err = usage_error(["measure", "--state", str(path),
                       "--measure", "concurrence"], capsys)
    assert "JSON object" in err


def test_sweep_rejects_a_repeated_axis(capsys):
    err = usage_error(["sweep", "--builder", WCLASS_CKW, "--kind", "monogamy",
                       "--axis", "alpha:0:2:3", "--axis", "alpha:0:1:2",
                       "--fix", "gamma=2"], capsys)
    assert "alpha" in err and "axis" in err


def test_sweep_rejects_fixing_an_axis(capsys):
    err = usage_error(["sweep", "--builder", WCLASS_CKW, "--kind", "monogamy",
                       "--axis", "alpha:0:2:3", "--fix", "alpha=1",
                       "--fix", "gamma=2"], capsys)
    assert "alpha" in err


def test_sweep_rejects_a_repeated_fix(capsys):
    err = usage_error(["sweep", "--builder", WCLASS_CKW, "--kind", "monogamy",
                       "--axis", "alpha:0:2:3", "--fix", "gamma=2",
                       "--fix", "gamma=3"], capsys)
    assert "gamma" in err


@pytest.mark.parametrize("kind", list(h.bnd.SIDES))
def test_bound_and_sweep_reject_an_exponent_the_kind_does_not_read(capsys,
                                                                   kind):
    # each exited 0 with the exponent ignored; an axis on it printed
    # identical rows
    value = {"alpha": "1", "gamma": "2", "beta": "1", "delta": "0.8"}
    num, den = h.bnd.SIDES[kind].exponents
    state = ["--builder", WCLASS_CKW, "--kind", kind]
    for name in sorted(set(value) - {num, den}):
        bound = ["bound"] + state + [f"--{num}", value[num], f"--{den}",
                                     value[den], f"--{name}", "1"]
        axis = ["sweep"] + state + ["--axis", f"{name}:0:2:3",
                                    "--fix", f"{num}={value[num]}",
                                    "--fix", f"{den}={value[den]}"]
        fixed = ["sweep"] + state + ["--axis", f"{num}:0.5:2:3",
                                     "--fix", f"{den}={value[den]}",
                                     "--fix", f"{name}=7"]
        for args in (bound, axis, fixed):
            assert usage_error(args, capsys) == (
                f"entbounds: error: {kind} bounds do not read {name}")
        # the library entry behind bound returned the report without it
        given = {n: float(value[n]) for n in (num, den, name)}
        with pytest.raises(h.UsageError, match=f"{kind} bounds do not read {name}"):
            h.evaluate_bound_report(kind, 0.5, 0.2, 0.3,
                                    variants=[h.bnd.SIDES[kind].theorem, "ref29"],
                                    **given)


@pytest.mark.parametrize("variants", [",", "", " , "])
def test_bound_needs_a_variant(capsys, variants):
    err = usage_error(["bound", "--builder", WCLASS_CKW, "--kind", "monogamy",
                       "--alpha", "1", "--gamma", "2", "--variants", variants],
                      capsys)
    assert "variant" in err


@pytest.mark.parametrize("variants", ["thm1,thm1,ref29", "thm1, ref29,thm1"])
def test_bound_and_sweep_reject_a_repeated_variant(capsys, variants):
    bound = ["bound", "--builder", WCLASS_CKW, "--kind", "monogamy",
             "--alpha", "1", "--gamma", "2", "--variants", variants]
    sweep = ["sweep", "--builder", WCLASS_CKW, "--kind", "monogamy",
             "--axis", "alpha:0:2:3", "--fix", "gamma=2", "--variants", variants]
    for args in (bound, sweep):
        assert "a variant twice" in usage_error(args, capsys)


def test_sweep_validation(capsys):
    code = h.main(["sweep", "--builder", EX1_BUILDER, "--kind", "monogamy",
                   "--axis", "alpha:0:2:1", "--fix", "gamma=2",
                   "--variants", "thm1"])
    assert code == 2
    code = h.main(["sweep", "--builder", EX1_BUILDER, "--kind", "monogamy",
                   "--axis", "alpha:0:2:5", "--variants", "thm1"])
    assert code == 2  # gamma missing


POLY_BOUND = ["--kind", "polygamy", "--beta", "1", "--delta", "0.8"]
POLY_SWEEP = ["sweep", "--builder", EX2_BUILDER, "--kind", "polygamy"]


@pytest.mark.parametrize("args,message", [
    (["measure", "--builder", EX2_BUILDER, "--measure", "concurrence",
      "--split", "A|B-C"], "bad split character '-'"),
    (["measure", "--builder", "wclass:a,b,c", "--measure", "concurrence"],
     "bad builder values in 'wclass:a,b,c': could not convert string to "
     "float: 'a'"),
    (["measure", "--builder", "wclass:0.6,0.8", "--measure", "concurrence"],
     "wclass builder needs exactly 3 coefficients"),
    (["measure", "--builder", EX2_BUILDER, "--measure", "scren"],
     "scren needs a two-qubit state, got (2, 2, 2)"),
    (["bound", "--builder", EX2_BUILDER, "--keep", "0,1"] + POLY_BOUND,
     "bound evaluation needs a pure total state"),
    (["bound", "--state", "{four_qubits}"] + POLY_BOUND,
     "bound evaluation handles three-qubit states; use the chain verify "
     "suite for larger registers"),
    (POLY_SWEEP + ["--axis", "beta:1:2:3", "--axis", "delta:0.5:1:3",
                   "--axis", "t:1:2:3"], "sweep needs one or two axes"),
    (POLY_SWEEP + ["--axis", "zeta:0:1:3", "--fix", "beta=1",
                   "--fix", "delta=0.8"], "unknown axis 'zeta'"),
    (POLY_SWEEP + ["--axis", "beta:0:1", "--fix", "delta=0.8"],
     "bad axis 'beta:0:1', want name:start:stop:steps"),
    (POLY_SWEEP + ["--axis", "beta:1:2:3", "--fix", "delta=0.8",
                   "--fix", "zeta=1"], "cannot fix unknown parameter 'zeta'"),
    (["verify", "--suite", "chain", "--trials", "0"], "trials must be >= 1"),
])
def test_cli_usage_errors(tmp_path, capsys, args, message):
    path = tmp_path / "four_qubits.json"
    save_state(haar_random_pure(4, 3), str(path))
    args = [arg.format(four_qubits=path) for arg in args]
    assert usage_error(args, capsys) == f"entbounds: error: {message}"


# -- verify -------------------------------------------------------------------

def test_verify_lemma1_reports_violations(capsys):
    code, out = run_cli(["verify", "--suite", "lemma1", "--trials", "2000",
                         "--seed", "42"], capsys)
    assert code == 1  # the window inequality fails in the interior
    assert out.startswith("# seed=42 generator=pcg64")
    rep = json.loads(out.split("\n", 1)[1])
    assert rep["violations"] > 0
    assert rep["counterexamples"]
    ce = rep["counterexamples"][0]
    assert {"branch", "x", "t", "q", "exponent", "slack"} <= set(ce)


def test_verify_roof_oracle_passes(capsys):
    code, out = run_cli(["verify", "--suite", "roof-oracle", "--trials", "5",
                         "--seed", "7"], capsys)
    assert code == 0
    rep = json.loads(out.split("\n", 1)[1])
    assert rep["ok"] and rep["max_abs_diff"] <= 1e-3


def test_verify_monogamy_small(capsys):
    code, out = run_cli(["verify", "--suite", "monogamy", "--trials", "40",
                         "--seed", "11"], capsys)
    assert code == 0
    rep = json.loads(out.split("\n", 1)[1])
    assert rep["ckw_violations"] == 0
    assert rep["thm1_violations"] == 0


def test_verify_polygamy_small(capsys):
    code, out = run_cli(["verify", "--suite", "polygamy", "--trials", "6",
                         "--seed", "11"], capsys)
    assert code == 0
    rep = json.loads(out.split("\n", 1)[1])
    assert rep["violations"] == 0


def test_verify_chain_small(capsys):
    code, out = run_cli(["verify", "--suite", "chain", "--trials", "8",
                         "--seed", "11"], capsys)
    assert code == 0
    rep = json.loads(out.split("\n", 1)[1])
    assert rep["violations"] == 0
    assert rep["checks"] > 0


def _scaled_lhs(factor):
    real = h._measured_inputs

    def measured_inputs(obj, kind):
        lhs, q_ab, q_ac = real(obj, kind)
        return lhs * factor, q_ab, q_ac
    return measured_inputs


_wootters, _pure = msr.concurrence_wootters, msr.concurrence_pure

# suites forced to fail, with the SHA-256 of json.dumps(report,
# sort_keys=True) and the violation count: the passing GOLDEN runs never
# print a counterexample, so these pin the violation records
FORCED_FAILURES = {
    "monogamy": (h, "_measured_inputs", _scaled_lhs(0.5), 30, 5, 26 + 206,
                 "fb0dae3ca0c72d1618f0bbfd80f3ee93bebc2fd4e93b2a2780896613f2304a98"),
    "polygamy": (h, "_measured_inputs", _scaled_lhs(2.0), 20, 7, 24,
                 "830b1fce5b5bf55c7ebab38fda208967df2af2114ceafa19b5dfb74aa42063c6"),
    "roof-oracle": (msr, "concurrence_wootters",
                    lambda rho: _wootters(rho) + 0.01, 7, 3, 7,
                    "f86c82c9c681d17744e3ba7e9dda5603e3c54746a1545409c49ffa8f19e87a18"),
    "chain": (msr, "concurrence_pure",
              lambda psi, split=(0,): 0.3 * _pure(psi, split), 8, 13, 3,
              "2c88dd30928c4e92f5ea923f3976525fb00c80925c2c4f5cc71d6a755ab01afd"),
}


@pytest.mark.parametrize("suite", list(FORCED_FAILURES))
def test_forced_failure_reports(monkeypatch, suite):
    module, name, fake, trials, seed, violations, digest = FORCED_FAILURES[suite]
    monkeypatch.setattr(module, name, fake)
    rep = h.VERIFY_SUITES[suite][0](trials, seed)
    assert (rep["violations"], rep["ok"]) == (violations, False)
    assert len(rep["counterexamples"]) == min(violations, 5)
    text = json.dumps(rep, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _no_window_where(skip):
    """_sample_window with no window wherever skip(q_small) holds: decided
    by its inputs, so each trial's skip does not depend on the trials
    before it."""
    real = h._sample_window

    def sample_window(rng, q_small, q_big, power):
        return None if skip(q_small) else real(rng, q_small, q_big, power)
    return sample_window


def _no_chain_bound_at(bad_alpha):
    """chain_monogamy_bound failing its hypotheses at one alpha."""
    real = h.bnd.chain_monogamy_bound

    def chain_monogamy_bound(pairs, residuals, cp, alpha, gamma):
        if alpha == bad_alpha:
            raise h.bnd.PreconditionError(f"no chain bound at alpha = {alpha}")
        return real(pairs, residuals, cp, alpha, gamma)
    return chain_monogamy_bound


# the skip paths of the suites that sample a window, which no unpatched
# run takes: the suite, the patch, trials, seed, the report fields it
# must read and the SHA-256 of json.dumps(report, sort_keys=True)
SKIP_PATHS = {
    "chain-some-windows": (
        "chain", (h, "_sample_window", _no_window_where(lambda q: 0.2 < q < 0.35)),
        8, 13, {"checks": 6, "skipped": 2},
        "3e4319e743fc6c844fedbc4e5dd81ae2eb83febd24454ef77a47f353dddd84ad"),
    "chain-no-window": (
        "chain", (h, "_sample_window", _no_window_where(lambda q: True)),
        5, 2, {"checks": 0, "skipped": 5},
        "b507ca26ea0d7e8db314310cda4459811a4885b04f2035719f6eed2afe74a7e8"),
    "chain-no-bound": (
        "chain", (h.bnd, "chain_monogamy_bound", _no_chain_bound_at(2.0)),
        8, 13, {"checks": 7, "skipped": 1},
        "5631cf0cd9e6c2f08f26107112afdb43096e576a6172d834f4abb659cdebb281"),
    "monogamy-some-windows": (
        "monogamy",
        (h, "_sample_window", _no_window_where(lambda q: 0.2 < q < 0.35)),
        40, 5, {"bound_checks": 234},
        "123bd8e09bf37decdb5f7cf2005a62d27cd023041e46a5bb1d54f3cc009d1855"),
}


@pytest.mark.parametrize("name", list(SKIP_PATHS))
def test_skip_path_reports(monkeypatch, name):
    suite, patch, trials, seed, fields, digest = SKIP_PATHS[name]
    monkeypatch.setattr(*patch)
    rep = h.VERIFY_SUITES[suite][0](trials, seed)
    assert {key: rep[key] for key in fields} == fields
    assert (rep["violations"], rep["ok"]) == (0, True)
    if suite == "chain" and not rep["checks"]:
        assert np.isnan(rep["min_slack"])
    text = json.dumps(rep, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_monogamy_without_bound_checks_reports_nan(monkeypatch):
    # no thm1 check ran, so there is no least slack: nan, as chain's
    # min_slack, not the inf the tally starts from
    monkeypatch.setattr(h, "_sample_window", _no_window_where(lambda q: True))
    rep = h.verify_monogamy(5, 2)
    assert (rep["bound_checks"], rep["ok"]) == (0, True)
    assert np.isnan(rep["min_thm1_slack"])
    assert rep["min_ckw_slack"] == pytest.approx(0.0925631717617693, abs=1e-12)


# -- determinism and plumbing -------------------------------------------------

def test_byte_identical_outputs(tmp_path, capsys):
    args = ["figure", "--id", "2", "--resolution", "31", "--seed", "9"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second

    args = ["measure", "--builder", EX2_BUILDER, "--keep", "0,2",
            "--measure", "screnoa", "--seed", "21"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second

    args = ["verify", "--suite", "chain", "--trials", "4", "--seed", "13"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_out_file_writing(tmp_path, capsys):
    path = tmp_path / "fig.csv"
    code = h.main(["--out", str(path), "figure", "--id", "2",
                   "--resolution", "11"])
    assert code == 0
    assert path.read_text().startswith("# seed=0")


def test_roof_restarts_only_on_measure(tmp_path, capsys):
    # only measure runs a roof that the flag can size: the concurrence of a
    # density matrix other than 2 x 2.  A rank-3 three-qubit state has no
    # certified lower end, so the flag caps its restarts; the rank-2 A,B,C
    # marginals of seeds 8 and 21 are certified at restart 0 under any cap
    rank3 = rand_density(np.random.default_rng(0), (2, 2, 2), rank=3)
    marginals = {s: partial_trace(to_density(haar_random_pure(4, s)), (0, 1, 2))
                 for s in (8, 21)}
    for name, rho, flag, used in (("rank3", rank3, "1", 1), ("rank3", rank3, "2", 2),
                                  ("marginal8", marginals[8], "2", 1),
                                  ("marginal21", marginals[21], "2", 1)):
        path = tmp_path / f"{name}.json"
        save_state(rho, str(path))
        code, out = run_cli(["measure", "--state", str(path), "--measure",
                             "concurrence", "--roof-restarts", flag], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["optimizer"]["restarts_used"] == used
        assert rec["optimizer"]["bound_side"] == "upper"
    restarts = ["--roof-restarts", "4"]
    for args in (["bound", "--builder", EX2_BUILDER, "--kind", "polygamy",
                  "--beta", "1", "--delta", "0.8"] + restarts,
                 ["sweep", "--builder", EX2_BUILDER, "--kind", "polygamy",
                  "--axis", "beta:1:2:3", "--fix", "delta=0.8"] + restarts,
                 ["figure", "--id", "1"] + restarts,
                 ["verify", "--suite", "lemma1", "--trials", "10"] + restarts,
                 restarts + ["figure", "--id", "1"]):
        with pytest.raises(SystemExit) as exc:
            h.main(args)
        assert exc.value.code == 2


def test_roof_restarts_below_one_is_a_usage_error(capsys):
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            h.main(["measure", "--builder", EX2_BUILDER, "--keep", "0,1",
                    "--measure", "screnoa", "--roof-restarts", value])
        assert exc.value.code == 2
        assert "--roof-restarts: must be >= 1" in capsys.readouterr().err


# SHA-256 of stdout for fixed command lines, with each line's exit code:
# the figure, bound and verify bytes are part of the interface and must not
# drift when the code does
GOLDEN = {
    "figure1": (["figure", "--id", "1", "--resolution", "11"],
                "b150b8cf90edf939388344f2ffc5c19848a1bd6cc342d94c5e160408a488ef41", 0),
    "figure2": (["figure", "--id", "2", "--resolution", "11"],
                "3384c40e65572caeed9ae528dc021a02c92caa6c5cda77679b7c4f36bc1f1e26", 0),
    "figure3": (["figure", "--id", "3", "--resolution", "11"],
                "b150b8cf90edf939388344f2ffc5c19848a1bd6cc342d94c5e160408a488ef41", 0),
    "figure4": (["figure", "--id", "4", "--resolution", "11"],
                "312ed41543ac3ee0758e0e316dce6bde64ffe0b5ee65952454de8261a1ae6355", 0),
    "figure5": (["figure", "--id", "5", "--resolution", "11"],
                "eff22bb1d0b7f6612a26ef3d3c854b87f2b47078d0cf248d061bbc4511f0047e", 0),
    "figure6": (["figure", "--id", "6", "--resolution", "11"],
                "312ed41543ac3ee0758e0e316dce6bde64ffe0b5ee65952454de8261a1ae6355", 0),
    # the full 101 x 101 grids at the default resolution
    "figure1-full": (["figure", "--id", "1"],
                     "392973b91c5726319bd256f719035f39a0d32a2553693dab2a5aa85661b168f1", 0),
    "figure4-full": (["figure", "--id", "4"],
                     "be0ae765db62d5315a3d29bb263e5aba9e85856138b93e65cbcad47223ab23a4", 0),
    # the 1-D figures at the default resolution: the fixed exponent column
    # repeats on every row
    "figure2-full": (["figure", "--id", "2"],
                     "0d32791dd0e470927545ae0c6ea320935c6e816002498b14b4573acf8890f54f", 0),
    "figure5-full": (["figure", "--id", "5"],
                     "a4d71039960e4394bc604d884ff42dee88cd66ebcbe9a50d7281a6962d66d0af", 0),
    # the CKW-tight W-class state on which thm1 exceeds the LHS
    "bound-wclass-monogamy": (
        ["bound", "--builder", "wclass:0.8,0.3,0.5196152422706632",
         "--kind", "monogamy", "--alpha", "0.85", "--gamma", "2",
         "--t", "1", "--q", "edge"],
        "601fb9e2e72a07baae7f5f400dd2c11b6aac05fb3c6c371dd8f188264ff4d7ce", 0),
    # t = 5 puts the state's dominance out of reach: thm1 and ref29 both
    # report inadmissible and the run still exits 0
    "bound-wclass-inadmissible": (
        ["bound", "--builder", "wclass:0.8,0.3,0.5196152422706632",
         "--kind", "monogamy", "--alpha", "0.85", "--gamma", "2",
         "--t", "5", "--q", "edge"],
        "37f9e2ed697d4668f457c62fa637680ba4ddb3d42623ffad7699b7062074c734", 0),
    "bound-example2-polygamy": (
        ["bound", "--builder", EX2_BUILDER, "--kind", "polygamy",
         "--beta", "1", "--delta", "0.8"],
        "dcc54c152e4687c1bb9b1c06d70470bf8d136150837899bf033149868e98406d", 0),
    # min-roof residuals at the suite's fixed restart count, recorded when
    # rank-2 roofs came to keep the KKT fit's ensemble (min_slack moved by
    # 9.8e-13)
    "verify-chain": (
        ["verify", "--suite", "chain", "--trials", "4", "--seed", "13"],
        "39b95a5fd2bd46f4a23a644064c55db6ac951713c77b2d181b30d2b34d9f01c7", 0),
    # additive SCRENoA polygamy on Haar and W-class states
    "verify-polygamy": (
        ["verify", "--suite", "polygamy", "--trials", "40", "--seed", "7"],
        "797616b31374e8170ca440a278b645e714fe7ce940a714e7e12e96cfc9ff9456", 0),
    # the window inequality fails in the interior, so the suite exits 1
    "verify-lemma1": (
        ["verify", "--suite", "lemma1", "--trials", "5000", "--seed", "9"],
        "5f8f820156711b85b21956bf72c16e611f908faaed7b106f09ce2dd03ea8ea23", 1),
    # admissibility check and thm1 across the alpha grid on Haar states
    "verify-monogamy": (
        ["verify", "--suite", "monogamy", "--trials", "200", "--seed", "5"],
        "758595245cad0a278e6ba7246cac8c1a65675cd9e41c02c2fd3eae3634177157", 0),
    # min roofs on two-qubit marginals checked against Wootters, recorded
    # when two-qubit roofs came to return Wootters' explicit optimal
    # ensemble (max_abs_diff moved from 4.5e-14 to 5.6e-16)
    "verify-roof-oracle": (
        ["verify", "--suite", "roof-oracle", "--trials", "8", "--seed", "3"],
        "f54e708dbb0d22e6542a95db5f11eb1a8fa52061114945700712f5fed93176f5", 0),
    # the exact two-qubit closed forms on one W-class marginal, with no
    # optimizer block
    "measure-wclass-scren": (
        ["measure", "--builder", "wclass:0.5,0.5,0.7071067811865476",
         "--keep", "0,1", "--measure", "scren"],
        "03a76004d9058f14994eda733c1327e58e7cff18b417d250c927f3cb28c928d3", 0),
    "measure-wclass-screnoa": (
        ["measure", "--builder", "wclass:0.5,0.5,0.7071067811865476",
         "--keep", "0,1", "--measure", "screnoa"],
        "056a12e93522125152eb05d49d7d3742a5846b6838c9e65a5b0cb6d05a17f419", 0),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_output_bytes(capsys, name):
    args, digest, want_code = GOLDEN[name]
    code, out = run_cli(args, capsys)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_every_verify_suite_has_a_golden_digest():
    # a new suite lands with its recorded output
    for name in h.VERIFY_SUITES:
        assert GOLDEN[f"verify-{name}"][0][:3] == ["verify", "--suite", name]


def test_every_figure_has_golden_digests():
    # a new figure lands with its recorded output, small and full size
    for fig_id in h.FIGURE_SPECS:
        assert GOLDEN[f"figure{fig_id}"][0][:3] == ["figure", "--id", str(fig_id)]
    assert set(FULL_FIGURE_GOLDEN) == set(h.FIGURE_SPECS)


def test_verify_chain_golden_run_fields(capsys):
    # the golden verify-chain run, field by field: its min-roof residual
    # may move in the last digits when the roof kernel does, nothing else
    code, out = run_cli(["verify", "--suite", "chain", "--trials", "4",
                         "--seed", "13"], capsys)
    assert code == 0
    rec = json.loads(out.split("\n", 1)[1])
    assert (rec["checks"], rec["skipped"], rec["violations"], rec["ok"]) == (
        4, 0, 0, True)
    assert rec["min_slack"] == pytest.approx(0.3436895333828466, abs=1e-8)


def test_python_dash_m_runs_main(capsys):
    args = ["bound", "--builder", EX2_BUILDER, "--kind", "polygamy",
            "--beta", "1", "--delta", "0.8"]
    code, out = run_cli(args, capsys)
    src = str(Path(h.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "entbounds"] + args,
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


def test_no_scipy_behind_the_harness():
    # numpy is the one declared dependency (pyproject.toml); scipy may sit
    # beside it, where an import of it would pass unnoticed.  The roof of
    # a rank-2 three-qubit state runs its certificate too, and a two-qubit
    # roof its Takagi factorization
    code = ("import sys\n"
            "import entbounds.harness\n"
            "from entbounds import measures as m, states as s\n"
            "from entbounds.linalg import partial_trace\n"
            "rho = partial_trace(s.to_density(s.haar_random_pure(4, 9)), (0, 1, 2))\n"
            "m.convex_roof(rho, m.concurrence_functional((0,)), 'min',\n"
            "              m.RoofConfig(restarts=2, seed=1))\n"
            "rho = partial_trace(s.to_density(s.haar_random_pure(3, 9)), (0, 1))\n"
            "m.convex_roof(rho, m.concurrence_functional((0,)), 'min')\n"
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n")
    src = str(Path(h.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "monogamy", "--trials", "2"],
    ["measure", "--builder", EX1_BUILDER, "--keep", "0,1,2",
     "--measure", "concurrence"],
    ["bound", "--builder", EX2_BUILDER, "--kind", "polygamy",
     "--beta", "1", "--delta", "0.8"],
    ["figure", "--id", "2", "--resolution", "3"],
    ["sweep", "--builder", EX2_BUILDER, "--kind", "polygamy",
     "--axis", "beta:1:2:3", "--fix", "delta=0.8"],
], ids=lambda args: args[0])
def test_negative_seed_is_a_usage_error(capsys, args):
    # verify and the roof of measure ended in a numpy traceback (exit 1);
    # the rest echoed the seed into their output
    for argv in (["--seed", "-1"] + args, args + ["--seed", "-1"]):
        with pytest.raises(SystemExit) as exc:
            h.main(argv)
        assert exc.value.code == 2
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err


def test_global_flags_before_subcommand(capsys):
    code, out = run_cli(["--seed", "3", "measure", "--builder", EX1_BUILDER,
                         "--measure", "concurrence"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 3


# -- default variants follow the bound kind -----------------------------------

@pytest.mark.parametrize("kind,builder,exps,theorem", [
    ("monogamy", EX1_BUILDER, ["--alpha", "1", "--gamma", "2"], "thm1"),
    ("polygamy", EX2_BUILDER, ["--beta", "1", "--delta", "0.8"], "thm4"),
])
def test_bound_default_variants(capsys, kind, builder, exps, theorem):
    code, out = run_cli(["bound", "--builder", builder, "--kind", kind]
                        + exps, capsys)
    assert code == 0
    rec = json.loads(out)
    assert set(rec["variant_rhs"]) == {theorem, "ref29"}
    assert all(rec["preconditions_ok"].values())


@pytest.mark.parametrize("kind,builder,fixes,theorem", [
    ("monogamy", EX1_BUILDER, ["--fix", "gamma=2"], "thm1"),
    ("polygamy", EX2_BUILDER, ["--fix", "delta=0.8"], "thm4"),
])
def test_sweep_default_variants(capsys, kind, builder, fixes, theorem):
    axis = "alpha:0:2:5" if kind == "monogamy" else "beta:1:2:5"
    code, out = run_cli(["sweep", "--builder", builder, "--kind", kind,
                         "--axis", axis] + fixes, capsys)
    assert code == 0
    cols, rows = parse_csv(out)
    assert [c for c in cols if c.startswith("rhs_")] == [f"rhs_{theorem}",
                                                         "rhs_ref29"]
    assert len(rows) == 5


# -- README ---------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The arguments of every `entbounds ...` line in README's code blocks,
    with backslash continuations joined."""
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(), re.S | re.M)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("entbounds ")]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # verify --suite lemma1 exits 1: the lemma fails on its window interior
    commands = readme_commands()
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)  # figure --out writes into the cwd
    for args in commands:
        want = 1 if args[:3] == ["verify", "--suite", "lemma1"] else 0
        assert (h.main(args), args) == (want, args)
        capsys.readouterr()
