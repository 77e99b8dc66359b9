"""The library call forms that perfbench/workloads.py uses, exactly as it
writes them.  The benchmark changes only in its own pull requests, so a
library change that breaks one of these forms must fail here first."""

import numpy as np
import pytest

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
