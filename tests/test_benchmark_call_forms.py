"""The library call forms that perfbench/workloads.py uses, exactly as it
writes them.  The benchmark changes only in its own pull requests, so a
library change that breaks one of these forms must fail here first."""

import hashlib
import math

import numpy as np
import pytest

from entbounds import bounds as bnd
from entbounds import harness as hs
from entbounds import measures as msr
from entbounds.linalg import partial_trace
from entbounds.states import haar_random_pure, reduce_pair, to_density, w_class_state


@pytest.mark.parametrize("n_qubits,keep,restarts", [(3, (0, 1), 32),
                                                    (4, (0, 1, 2), 8)])
def test_roof_min_call_form(n_qubits, keep, restarts):
    # roof-min: a positional "min" and a RoofConfig of restarts and seed;
    # its gates read the value, the ensemble's (p, amps) members,
    # restarts_used and converged
    marginal = partial_trace(to_density(haar_random_pure(n_qubits, 5)), keep)
    res = msr.convex_roof(
        marginal, msr.concurrence_functional((0,)), "min",
        msr.RoofConfig(restarts=restarts, seed=7))
    members = [(p, psi.amps) for p, psi in res.ensemble.members]
    recon = sum(p * np.outer(amps, amps.conj()) for p, amps in members)
    assert np.abs(recon - marginal.mat).max() <= 1e-10
    assert 1 <= res.restarts_used <= restarts
    assert type(res.converged) is bool
    assert res.value >= 0.0
    if n_qubits == 3:
        assert res.value == pytest.approx(msr.concurrence_wootters(marginal),
                                          abs=1e-9)


def test_convex_roof_offers_only_min():
    marginal = partial_trace(to_density(haar_random_pure(3, 5)), (0, 1))
    with pytest.raises(ValueError):
        msr.convex_roof(marginal, msr.concurrence_functional((0,)), "max",
                        msr.RoofConfig(restarts=4, seed=7))


def test_screnoa_accepts_a_roof_config():
    # roof-max passes its roof budget, which the closed form ignores
    rho = to_density(w_class_state(0.5, 0.5, np.sqrt(2) / 2))
    cfg = msr.RoofConfig(restarts=16, seed=3)
    for pair, exact in ((reduce_pair(rho, 1), 0.25), (reduce_pair(rho, 2), 0.5)):
        assert msr.screnoa(pair, cfg) == msr.screnoa(pair)
        assert msr.screnoa(pair, cfg) == pytest.approx(exact, abs=1e-12)


def test_evaluate_bound_report_call_form():
    # roof-max: keyword variants, beta and delta on the polygamy side, with t
    # and q left at sqrt and edge; its gates read lhs, variant_rhs,
    # preconditions_ok and gaps
    rep = hs.evaluate_bound_report("polygamy", 0.75, 0.25, 0.5,
                                   variants=["thm4", "ref29"], beta=1.5,
                                   delta=0.6)
    assert rep.lhs == pytest.approx(0.75 ** 1.5, rel=1e-15)
    assert rep.preconditions_ok == {"thm4": True, "ref29": True}
    for v in ("thm4", "ref29"):
        assert rep.gaps[v] == pytest.approx(rep.variant_rhs[v] - rep.lhs,
                                            rel=1e-12)


def test_figure_sweep_and_csv_call_forms():
    # figures: figure_spec(id) at its default resolution, then sweep_rows
    # with positional data and seed, then rows_to_csv; its gate hashes the
    # body after the header line
    spec, data = hs.figure_spec(4)
    header, rows = hs.sweep_rows(spec, data["lhs_base"], data["q_ab"],
                                 data["q_ac"], 3)
    first, _, body = hs.rows_to_csv(header, rows).partition("\n")
    assert first == "# seed=3 grid=delta[0.6,1.0,101]xbeta[0.6,3.0,101]"
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "4029ddb0561feabe7460eccdef396a6bade362c4a74f9e8379006fde7f43da4e")


def test_audit_bounds_call_forms():
    # audit: MonogamyParams positionally, validate_params(...).ok, then
    # thm1_lower_bound and a keyword ref29 prior on admissible points
    small, big, t = 0.2, 0.6, 2.0
    x = (big / small) ** 2.0
    params = bnd.MonogamyParams(1.5, 2.0, t, 1.0 + 1.0 / x)
    assert bnd.validate_params("monogamy", small, big, params).ok is True
    rhs = bnd.thm1_lower_bound(small, big, params)
    prior = bnd.prior_monogamy_bound("ref29", small, big, alpha=1.5,
                                     gamma=2.0, a=t)
    assert math.isfinite(rhs) and math.isfinite(prior)
    assert rhs >= prior - 1e-12  # q at the window bottom is tightest
    params = bnd.MonogamyParams(1.5, 2.0, 20.0, 1.0 + 1.0 / x)
    assert bnd.validate_params("monogamy", small, big, params).ok is False
