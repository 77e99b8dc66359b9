"""Acceptance checks.

Each test prints one PASS/FAIL line (run with pytest -s to see them all)
and enforces its stated tolerance and runtime budget.  Check 5 documents a
genuine property of the window inequality behind the tightened bounds: it
holds at the top of its q window, where the bounds coincide with the prior
family, but admits interior counterexamples, so its zero-violation target
is not attainable; the test reports the counterexamples rather than hiding
them.
"""

import time

import numpy as np
import pytest

from entbounds import harness as h
from entbounds.bounds import (
    ChainParams,
    MonogamyParams,
    PolygamyParams,
    chain_monogamy_bound,
    chain_polygamy_bound,
    prior_monogamy_bound,
    prior_polygamy_bound,
    thm1_lower_bound,
    thm4_upper_bound,
)
from entbounds.measures import (
    concurrence_pure,
    concurrence_wootters,
    negativity_pure,
    screnoa,
)
from entbounds.states import (
    SchmidtParams,
    generalized_schmidt_state,
    reduce_pair,
    to_density,
    w_class_state,
)

S6 = np.sqrt(6.0)

# expected values frozen from 30-digit evaluation of the closed forms
EX1_THM1 = 0.6462607329003783
EX1_REF29 = 0.6446878605381149
EX2_THM4 = 0.8811862835051213
EX2_REF29 = 0.8823709483818013


def example1_state():
    lam = S6 / 6.0
    return generalized_schmidt_state(SchmidtParams((0.5, lam, lam, 0.5, lam)))


def example2_state():
    return w_class_state(0.5, 0.5, np.sqrt(2.0) / 2.0)


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {detail} ({elapsed:.2f}s / {budget:.0f}s)")
    return ok and elapsed < budget


def test_criterion_1_example1_measures():
    t0 = time.perf_counter()
    psi = example1_state()
    rho = to_density(psi)
    c_split = concurrence_pure(psi, (0,))
    c_ab = concurrence_wootters(reduce_pair(rho, 1))
    c_ac = concurrence_wootters(reduce_pair(rho, 2))
    elapsed = time.perf_counter() - t0
    ok = (abs(c_split - np.sqrt(21.0) / 6.0) <= 1e-10
          and abs(c_ab - S6 / 6.0) <= 1e-10
          and abs(c_ac - 0.5) <= 1e-10)
    detail = (f"pairwise/split concurrences: {c_split:.10f}, {c_ab:.10f}, "
              f"{c_ac:.10f} vs sqrt(21)/6, sqrt(6)/6, 1/2 @ 1e-10")
    assert report(1, ok, detail, elapsed, 1.0)


def test_criterion_2_example1_bound_ordering():
    t0 = time.perf_counter()
    psi = example1_state()
    lhs = concurrence_pure(psi, (0,))
    rho = to_density(psi)
    q_ab = concurrence_wootters(reduce_pair(rho, 1))
    q_ac = concurrence_wootters(reduce_pair(rho, 2))
    t, q = S6 / 2.0, 5.0 / 3.0
    thm1 = thm1_lower_bound(q_ab, q_ac, MonogamyParams(1.0, 2.0, t, q))
    ref29 = prior_monogamy_bound("ref29", q_ab, q_ac, alpha=1.0, gamma=2.0, a=t)

    spec, data = h.figure_spec(3, 101)
    _, rows = h.sweep_rows(spec, data["lhs_base"], data["q_ab"],
                           data["q_ac"], 0)
    min_gap = min(row[-2] for row in rows)
    elapsed = time.perf_counter() - t0
    ok = (abs(thm1 - EX1_THM1) <= 1e-6
          and abs(ref29 - EX1_REF29) <= 1e-6
          and thm1 > ref29
          and thm1 <= lhs and ref29 <= lhs
          and min_gap >= -1e-12)
    detail = (f"tightened {thm1:.6f} > prior {ref29:.6f}, both <= {lhs:.6f}; "
              f"101x101 grid min gap {min_gap:.2e}")
    assert report(2, ok, detail, elapsed, 10.0)


def test_criterion_3_example2_screnoa():
    t0 = time.perf_counter()
    psi = example2_state()
    rho = to_density(psi)
    lhs = negativity_pure(psi, (0,)) ** 2
    n_ab = screnoa(reduce_pair(rho, 1))
    n_ac = screnoa(reduce_pair(rho, 2))
    elapsed = time.perf_counter() - t0
    ok = (abs(lhs - 0.75) <= 1e-12
          and abs(n_ab - 0.25) <= 2e-3
          and abs(n_ac - 0.50) <= 2e-3)
    detail = (f"assisted-negativity squares: split {lhs:.12f} (exact), "
              f"pairs {n_ab:.6f}, {n_ac:.6f} vs 1/4, 1/2 @ 2e-3")
    assert report(3, ok, detail, elapsed, 30.0)


def test_criterion_4_example2_bound_ordering():
    t0 = time.perf_counter()
    t, q = 2.0 ** 0.6, 1.0 + 2.0 ** -0.8
    w2 = thm4_upper_bound(0.25, 0.5, PolygamyParams(1.0, 0.8, t, q))
    w1 = prior_polygamy_bound("ref29", 0.25, 0.5, beta=1.0, delta=0.8, a=t)

    spec, data = h.figure_spec(6, 101)
    _, rows = h.sweep_rows(spec, data["lhs_base"], data["q_ab"],
                           data["q_ac"], 0)
    gaps = [row[-2] for row in rows if row[-1]]
    elapsed = time.perf_counter() - t0
    ok = (abs(w2 - 0.8813) <= 1e-3
          and abs(w1 - 0.8825) <= 1e-3
          and w2 < w1
          and 0.75 <= w2
          and min(gaps) >= -1e-12)
    detail = (f"tightened {w2:.6f} < prior {w1:.6f}, LHS 0.75 <= {w2:.4f}; "
              f"admissible grid min gap {min(gaps):.2e}")
    assert report(4, ok, detail, elapsed, 10.0)


def test_criterion_5_lemma_fuzz():
    t0 = time.perf_counter()
    rep = h.verify_lemma1(100000, seed=20240817)
    elapsed = time.perf_counter() - t0
    ok = rep["violations"] == 0
    detail = (f"{rep['violations']} violations in 2x100000 admissible tuples "
              f"(m-branch {rep['violations_m']}, n-branch {rep['violations_n']}; "
              f"worst slack {min(rep['min_slack_m'], rep['min_slack_n']):.3e})")
    passed = report(5, ok, detail, elapsed, 5.0)
    assert passed, (
        "the window inequality fails in the interior of its q window, e.g. "
        f"{rep['counterexamples'][0]}; it holds only at q = 1 + 1/t, where "
        "the tightened bounds reduce to the prior family")


def test_criterion_6_soundness_audit():
    t0 = time.perf_counter()
    rep = h.verify_monogamy(500, seed=20240817)
    elapsed = time.perf_counter() - t0
    ok = rep["violations"] == 0 and rep["bound_checks"] > 0
    detail = (f"500 Haar 3-qubit states: squared-concurrence base relation "
              f"slack >= {rep['min_ckw_slack']:.2e}, lower bound slack >= "
              f"{rep['min_thm1_slack']:.2e} over {rep['bound_checks']} "
              f"admissible checks")
    assert report(6, ok, detail, elapsed, 60.0)


def test_criterion_7_roof_oracle():
    t0 = time.perf_counter()
    rep = h.verify_roof_oracle(50, seed=20240817)
    elapsed = time.perf_counter() - t0
    ok = rep["violations"] == 0
    detail = (f"50 rank-2 min-roofs vs closed two-qubit formula: max "
              f"|diff| {rep['max_abs_diff']:.2e} @ 1e-3")
    assert report(7, ok, detail, elapsed, 120.0)


def test_criterion_8_special_case_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst_mono = worst_poly = 0.0
    n_mono = n_poly = 0
    while n_mono < 1000:
        gamma = rng.uniform(2.0, 20.0)
        alpha = rng.uniform(0.0, gamma)
        t = rng.uniform(1.0, 3.0)
        q_ab = rng.uniform(0.0, 1.0)
        q_ac = rng.uniform(0.0, 1.0)
        if q_ac ** gamma < t * q_ab ** gamma:
            continue
        n_mono += 1
        a = thm1_lower_bound(q_ab, q_ac,
                             MonogamyParams(alpha, gamma, t, 1.0 + 1.0 / t))
        b = prior_monogamy_bound("ref29", q_ab, q_ac,
                                 alpha=alpha, gamma=gamma, a=t)
        worst_mono = max(worst_mono, abs(a - b))
    while n_poly < 1000:
        delta = rng.uniform(0.4, 1.0)
        beta = delta + rng.uniform(0.0, 1.2)
        t = rng.uniform(1.0, 3.0)
        q_ab = rng.uniform(0.0, 1.0)
        q_ac = rng.uniform(0.0, 1.0)
        if q_ac ** delta < t * q_ab ** delta:
            continue
        n_poly += 1
        a = thm4_upper_bound(q_ab, q_ac,
                             PolygamyParams(beta, delta, t, 1.0 + 1.0 / t))
        b = prior_polygamy_bound("ref29", q_ab, q_ac,
                                 beta=beta, delta=delta, a=t)
        worst_poly = max(worst_poly, abs(a - b))

    # single-step chains reproduce the two-term bounds exactly
    cp = ChainParams((S6 / 2.0,), (5.0 / 3.0,))
    mono_chain = chain_monogamy_bound([S6 / 6.0, 0.5], [0.5], cp, 1.0, 2.0)
    mono_single = thm1_lower_bound(
        S6 / 6.0, 0.5, MonogamyParams(1.0, 2.0, S6 / 2.0, 5.0 / 3.0))
    t2, q2 = 2.0 ** 0.6, 1.0 + 2.0 ** -0.8
    cp2 = ChainParams((t2,), (q2,))
    poly_chain = chain_polygamy_bound([0.25, 0.5], [0.5], cp2, 1.0, 0.8)
    poly_single = thm4_upper_bound(0.25, 0.5, PolygamyParams(1.0, 0.8, t2, q2))
    chain_diff = max(abs(mono_chain - mono_single),
                     abs(poly_chain - poly_single))

    elapsed = time.perf_counter() - t0
    ok = worst_mono <= 1e-13 and worst_poly <= 1e-13 and chain_diff <= 1e-14
    detail = (f"q = 1+1/t identities on 1000-point grids: lower {worst_mono:.2e}, "
              f"upper {worst_poly:.2e} @ 1e-13; single-step chain diff "
              f"{chain_diff:.2e} @ 1e-14")
    assert report(8, ok, detail, elapsed, 30.0)
