import hashlib
import json

import numpy as np
import pytest

from entbounds import harness as h
from entbounds.states import (
    SchmidtParams,
    generalized_schmidt_state,
    save_state,
    w_class_state,
)

S6 = float(np.sqrt(6.0) / 6.0)
EX1_BUILDER = f"schmidt:0.5,{S6!r},{S6!r},0.5,{S6!r}"
EX2_BUILDER = "wclass:0.5,0.5,0.7071067811865476"


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


def test_measure_wclass_marginal_screnoa(capsys):
    code, out = run_cli(["measure", "--builder", EX2_BUILDER, "--keep", "0,1",
                         "--measure", "screnoa", "--seed", "5"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(0.25, abs=1e-3)
    assert rec["optimizer"]["bound_side"] == "lower"
    assert rec["optimizer"]["restarts_used"] >= 1


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


def test_figure_job_validation():
    with pytest.raises(h.UsageError):
        h.FigureJob(9)
    with pytest.raises(h.UsageError):
        h.FigureJob(1, resolution=1)


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


def test_sweep_validation(capsys):
    code = h.main(["sweep", "--builder", EX1_BUILDER, "--kind", "monogamy",
                   "--axis", "alpha:0:2:1", "--fix", "gamma=2",
                   "--variants", "thm1"])
    assert code == 2
    code = h.main(["sweep", "--builder", EX1_BUILDER, "--kind", "monogamy",
                   "--axis", "alpha:0:2:5", "--variants", "thm1"])
    assert code == 2  # gamma missing


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


def test_roof_restarts_only_on_measure(capsys):
    # only measure runs a roof that the flag can size
    code, out = run_cli(["measure", "--builder", EX2_BUILDER, "--keep", "0,1",
                         "--measure", "screnoa", "--seed", "5",
                         "--roof-restarts", "2"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["optimizer"]["restarts_used"] == 2
    assert rec["value"] == pytest.approx(0.25, abs=1e-3)
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


# SHA-256 of stdout for fixed command lines: the figure, bound and verify
# bytes are part of the interface and must not drift when the code does
GOLDEN = {
    "figure1": (["figure", "--id", "1", "--resolution", "11"],
                "b150b8cf90edf939388344f2ffc5c19848a1bd6cc342d94c5e160408a488ef41"),
    "figure2": (["figure", "--id", "2", "--resolution", "11"],
                "3384c40e65572caeed9ae528dc021a02c92caa6c5cda77679b7c4f36bc1f1e26"),
    "figure3": (["figure", "--id", "3", "--resolution", "11"],
                "b150b8cf90edf939388344f2ffc5c19848a1bd6cc342d94c5e160408a488ef41"),
    "figure4": (["figure", "--id", "4", "--resolution", "11"],
                "312ed41543ac3ee0758e0e316dce6bde64ffe0b5ee65952454de8261a1ae6355"),
    "figure5": (["figure", "--id", "5", "--resolution", "11"],
                "eff22bb1d0b7f6612a26ef3d3c854b87f2b47078d0cf248d061bbc4511f0047e"),
    "figure6": (["figure", "--id", "6", "--resolution", "11"],
                "312ed41543ac3ee0758e0e316dce6bde64ffe0b5ee65952454de8261a1ae6355"),
    # the CKW-tight W-class state on which thm1 exceeds the LHS
    "bound-wclass-monogamy": (
        ["bound", "--builder", "wclass:0.8,0.3,0.5196152422706632",
         "--kind", "monogamy", "--alpha", "0.85", "--gamma", "2",
         "--t", "1", "--q", "edge"],
        "601fb9e2e72a07baae7f5f400dd2c11b6aac05fb3c6c371dd8f188264ff4d7ce"),
    "bound-example2-polygamy": (
        ["bound", "--builder", EX2_BUILDER, "--kind", "polygamy",
         "--beta", "1", "--delta", "0.8"],
        "dcc54c152e4687c1bb9b1c06d70470bf8d136150837899bf033149868e98406d"),
    # min-roof residuals at the suite's fixed restart count
    "verify-chain": (
        ["verify", "--suite", "chain", "--trials", "4", "--seed", "13"],
        "0f01d37ceac763ce0c51e4663738556c53b70ec82e492958b71a93d941399377"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_output_bytes(capsys, name):
    args, digest = GOLDEN[name]
    code, out = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
