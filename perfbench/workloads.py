"""The benchmark workloads.

A workload builds its inputs from the seed alone, with numpy and without
entbounds, so that input generation does not depend on the code under
test.  One item is one unit of work: `run` makes the entbounds calls in
the order the CLI commands make them, each call wrapped in a span named
after its layer; `check` compares the item's outputs with the independent
references in gates.py; `observe` collects the per-layer statistics of
traced items.  Items cycle through a pool of POOL inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import gates
from entbounds import bounds as bnd
from entbounds import harness as hs
from entbounds import measures as msr
from entbounds import states as st
from entbounds.linalg import partial_trace


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed % 2 ** 64))


def _haar_amps(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    d = 2 ** n_qubits
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return vec / np.linalg.norm(vec)


def _w_class(rng: np.random.Generator) -> tuple[tuple[float, ...], np.ndarray]:
    """Coefficients of c1|100> + c2|010> + c3|001> and their amplitudes."""
    c = np.abs(rng.standard_normal(3))
    c /= np.linalg.norm(c)
    amps = np.zeros(8, dtype=complex)
    amps[0b100], amps[0b010], amps[0b001] = c
    return tuple(float(x) for x in c), amps


def _roof_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 32))


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    POOL = 1

    def run(self, k: int, rec):
        raise NotImplementedError

    def check(self, k: int, out) -> list[str]:
        raise NotImplementedError

    def observe(self, k: int, out) -> None:
        pass

    def layer_metrics(self, times: dict) -> dict:
        return {}


def _self_per(times: dict, span: str, n: int) -> float:
    return times.get(span, (0.0, 0))[0] / n if n else 0.0


# ---------------------------------------------------------------------------
# roof-min
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoofMinInput:
    shape: str                 # "d4": AB of 3 qubits; "d8": ABC of 4 qubits
    n_qubits: int
    keep: tuple[int, ...]
    restarts: int
    amps: np.ndarray
    roof_seed: int


class RoofMin(Workload):
    """Min-roof concurrence; one item in four is the chain-residual shape.

    d4 items use the CLI default of 32 restarts (the roof-oracle and
    acceptance-7 shape), d8 items the chain suite's 8.
    """

    name = "roof-min"
    POOL = 16

    def __init__(self, seed: int):
        rng = _generator(seed)
        self.inputs = []
        for k in range(self.POOL):
            if k % 4 == 0:
                shape, n, keep, restarts = "d8", 4, (0, 1, 2), 8
            else:
                shape, n, keep, restarts = "d4", 3, (0, 1), 32
            self.inputs.append(RoofMinInput(shape, n, keep, restarts,
                                            _haar_amps(rng, n), _roof_seed(rng)))
        self.stats = {shape: {"items": 0, "restart_share": 0.0, "converged": 0,
                              "max_abs_err": 0.0, "value_sum": 0.0}
                      for shape in ("d4", "d8")}

    def run(self, k, rec):
        x = self.inputs[k % self.POOL]
        with rec.span("states.build"):
            rho = st.to_density(st.PureState(x.amps, x.n_qubits))
        with rec.span("linalg.partial_trace"):
            marginal = partial_trace(rho, x.keep)
        with rec.span("measures.roof_min." + x.shape):
            return msr.convex_roof(
                marginal, msr.concurrence_functional((0,)), "min",
                msr.RoofConfig(restarts=x.restarts, seed=x.roof_seed))

    def exact(self, x: RoofMinInput) -> float:
        """Wootters concurrence (d4) or the CKW floor (d8) of the marginal."""
        if x.shape == "d4":
            return gates.concurrence_ref(gates.factor(x.amps, 3, (0, 1)))
        c_ab = gates.concurrence_ref(gates.factor(x.amps, 4, (0, 1)))
        c_ac = gates.concurrence_ref(gates.factor(x.amps, 4, (0, 2)))
        return math.hypot(c_ab, c_ac)

    def check(self, k, res):
        x = self.inputs[k % self.POOL]
        members = [(p, psi.amps) for p, psi in res.ensemble.members]
        recon, avg = gates.ensemble_errors(
            members, gates.factor(x.amps, x.n_qubits, x.keep))
        fails = gates.at_most("ensemble reconstruction error", recon, 0.0,
                              gates.TOL_ENSEMBLE)
        fails += gates.close("roof value vs its ensemble average", res.value,
                             avg, gates.TOL_CLOSED)
        ref = self.exact(x)
        if x.shape == "d4":
            fails += gates.at_least("min roof under Wootters (one-sided)",
                                    res.value, ref, gates.TOL_ONE_SIDED)
            fails += gates.close("min roof vs Wootters", res.value, ref,
                                 gates.TOL_MIN_ROOF)
        else:
            fails += gates.at_least("min roof under CKW floor", res.value, ref,
                                    gates.TOL_CKW)
        return fails

    def observe(self, k, res):
        x = self.inputs[k % self.POOL]
        s = self.stats[x.shape]
        s["items"] += 1
        s["restart_share"] += res.restarts_used / x.restarts
        s["converged"] += int(res.converged)
        s["value_sum"] += res.value
        if x.shape == "d4":
            s["max_abs_err"] = max(s["max_abs_err"], abs(res.value - self.exact(x)))

    def layer_metrics(self, times):
        d4, d8 = self.stats["d4"], self.stats["d8"]
        n = d4["items"] + d8["items"]
        return {
            "measures.roof_min.d4_s": _self_per(times, "measures.roof_min.d4", d4["items"]),
            "measures.roof_min.d8_s": _self_per(times, "measures.roof_min.d8", d8["items"]),
            "measures.roof_min.restart_share":
                (d4["restart_share"] + d8["restart_share"]) / n if n else 0.0,
            "measures.roof_min.converged_share":
                (d4["converged"] + d8["converged"]) / n if n else 0.0,
            "measures.roof_min.max_abs_err": d4["max_abs_err"],
            "measures.roof_min.d8_mean_value":
                d8["value_sum"] / d8["items"] if d8["items"] else 0.0,
        }


# ---------------------------------------------------------------------------
# roof-max
# ---------------------------------------------------------------------------

POLY_POINTS = ((1.0, 1.0), (2.0, 0.8), (1.5, 0.6))   # (beta, delta)
POLY_VARIANTS = ["thm4", "ref29"]
POLY_RESTARTS = 16                                     # verify polygamy default


@dataclass(frozen=True)
class StateInput:
    wclass: bool
    coeffs: tuple[float, ...]   # W-class coefficients, empty for Haar
    amps: np.ndarray
    roof_seed: int = 0


def _three_qubit_pool(rng, size: int, w_every: int, roof_seeds: bool):
    pool = []
    for k in range(size):
        if k % w_every == 0:
            coeffs, amps = _w_class(rng)
            wclass = True
        else:
            coeffs, amps, wclass = (), _haar_amps(rng, 3), False
        pool.append(StateInput(wclass, coeffs, amps,
                               _roof_seed(rng) if roof_seeds else 0))
    return pool


def _build(x: StateInput):
    if x.wclass:
        return st.w_class_state(*x.coeffs)
    return st.PureState(x.amps, 3)


class RoofMax(Workload):
    """The polygamy `bound` path: SCRENoA on both pair marginals, then the
    bound report at a few (beta, delta).  One state in five is W-class."""

    name = "roof-max"
    POOL = 20

    def __init__(self, seed: int):
        self.inputs = _three_qubit_pool(_generator(seed), self.POOL, 5, True)
        self.items = {"haar": 0, "wclass": 0}
        self.max_abs_err = 0.0

    def run(self, k, rec):
        x = self.inputs[k % self.POOL]
        with rec.span("states.build"):
            psi = _build(x)
            rho = st.to_density(psi)
        with rec.span("linalg.partial_trace"):
            pair_b = st.reduce_pair(rho, 1)
        with rec.span("linalg.partial_trace"):
            pair_c = st.reduce_pair(rho, 2)
        cfg = msr.RoofConfig(restarts=POLY_RESTARTS, seed=x.roof_seed)
        roof = "measures.screnoa." + ("wclass" if x.wclass else "haar")
        with rec.span(roof):
            q_ab = msr.screnoa(pair_b, cfg)
        with rec.span(roof):
            q_ac = msr.screnoa(pair_c, cfg)
        with rec.span("measures.pure"):
            lhs_base = msr.negativity_pure(psi, (0,)) ** 2
        reports = []
        for beta, delta in POLY_POINTS:
            with rec.span("harness.bound_report"):
                reports.append(hs.evaluate_bound_report(
                    "polygamy", lhs_base, q_ab, q_ac, variants=POLY_VARIANTS,
                    beta=beta, delta=delta))
        return q_ab, q_ac, lhs_base, reports

    def exact(self, x: StateInput) -> tuple[float, float]:
        return (gates.assisted_sq_ref(gates.factor(x.amps, 3, (0, 1))),
                gates.assisted_sq_ref(gates.factor(x.amps, 3, (0, 2))))

    def check(self, k, out):
        x = self.inputs[k % self.POOL]
        q_ab, q_ac, lhs_base, reports = out
        fails = []
        for label, value, ref in zip(("AB", "AC"), (q_ab, q_ac), self.exact(x)):
            fails += gates.at_most(f"SCRENoA {label} above (sum mu)^2 (one-sided)",
                                   value, ref, gates.TOL_ONE_SIDED)
            fails += gates.close(f"SCRENoA {label} vs (sum mu)^2", value, ref,
                                 gates.TOL_MAX_ROOF)
        fails += gates.close("N(A|BC)^2", lhs_base,
                             gates.qubit_concurrence_sq(x.amps), gates.TOL_CLOSED)
        # with t = sqrt and q = edge both variants are admissible exactly
        # when Q_AC > Q_AB
        decided = abs(q_ac - q_ab) > 1e-9
        for (beta, delta), rep in zip(POLY_POINTS, reports):
            at = f"beta={beta} delta={delta}"
            fails += gates.rel_close(f"LHS {at}", rep.lhs, lhs_base ** beta,
                                     gates.TOL_CLOSED)
            if decided:
                for v in POLY_VARIANTS:
                    fails += gates.equal(f"{v} admissible {at}",
                                         rep.preconditions_ok[v], q_ac > q_ab)
            if not (decided and q_ac > q_ab):
                continue
            x_dom = (q_ac / q_ab) ** delta
            t, q = math.sqrt(x_dom), 1.0 + 1.0 / x_dom
            refs = {"thm4": gates.two_term_ref(q_ab, q_ac, beta, delta, t, q),
                    "ref29": gates.ref29_ref(q_ab, q_ac, beta, delta, t)}
            for v, ref in refs.items():
                fails += gates.rel_close(f"{v} RHS {at}", rep.variant_rhs[v], ref,
                                         gates.TOL_CLOSED)
                fails += gates.rel_close(f"{v} gap {at}", rep.gaps[v],
                                         rep.variant_rhs[v] - rep.lhs,
                                         gates.TOL_CLOSED)
        return fails

    def observe(self, k, out):
        x = self.inputs[k % self.POOL]
        self.items["wclass" if x.wclass else "haar"] += 1
        for value, ref in zip(out[:2], self.exact(x)):
            self.max_abs_err = max(self.max_abs_err, abs(value - ref))

    def layer_metrics(self, times):
        return {
            "measures.screnoa.haar_s":
                _self_per(times, "measures.screnoa.haar", self.items["haar"]),
            "measures.screnoa.wclass_s":
                _self_per(times, "measures.screnoa.wclass", self.items["wclass"]),
            "measures.screnoa.max_abs_err": self.max_abs_err,
        }


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

ALPHA_GRID = tuple(float(a) for a in np.arange(0.0, 2.0 + 1e-9, 0.25))
GAMMA = 2.0


@dataclass(frozen=True)
class AuditInput:
    state: StateInput
    window: tuple[float, float] | None   # admissible (t, q), None: no bound


def _admissible_window(rng, small: float, big: float):
    """(t, q) inside the gamma = 2 window of (small, big), as the monogamy
    verify suite samples it; None where the window is empty."""
    if big <= 0.0:
        return None
    if small <= 0.0:
        t, lo = rng.uniform(1.0, 3.0), 1.0 + 1e-9
    else:
        x = (big / small) ** GAMMA
        if x < 1.0 + 1e-9:
            return None
        t, lo = rng.uniform(1.0, min(x, 1e6)), 1.0 + 1.0 / x
    return float(t), float(rng.uniform(lo, 1.0 + 1.0 / t))


class Audit(Workload):
    """The `verify monogamy` shape on Haar and CKW-tight W-class states."""

    name = "audit"
    POOL = 1024

    def __init__(self, seed: int):
        rng = _generator(seed)
        self.inputs = []
        for x in _three_qubit_pool(rng, self.POOL, 4, False):
            pair = sorted(gates.concurrence_ref(gates.factor(x.amps, 3, keep))
                          for keep in ((0, 1), (0, 2)))
            self.inputs.append(AuditInput(x, _admissible_window(rng, *pair)))
        self._refs: dict[int, tuple] = {}
        self.validations = 0
        self.admissible = 0
        self.rhs_above_lhs: set[tuple[int, float]] = set()

    def run(self, k, rec):
        x = self.inputs[k % self.POOL]
        with rec.span("states.build"):
            psi = _build(x.state)
            rho = st.to_density(psi)
        with rec.span("linalg.partial_trace"):
            pair_b = st.reduce_pair(rho, 1)
        with rec.span("linalg.partial_trace"):
            pair_c = st.reduce_pair(rho, 2)
        with rec.span("measures.wootters"):
            c_ab = msr.concurrence_wootters(pair_b)
        with rec.span("measures.wootters"):
            c_ac = msr.concurrence_wootters(pair_c)
        with rec.span("measures.pure"):
            c_a = msr.concurrence_pure(psi, (0,))
        with rec.span("measures.pure"):
            n_a = msr.negativity_pure(psi, (0,))
        with rec.span("measures.negativity_mixed"):
            n_ab = msr.negativity_mixed(pair_b)
        with rec.span("measures.negativity_mixed"):
            n_ac = msr.negativity_mixed(pair_c)
        evals = []
        if x.window is not None:
            small, big = sorted((c_ab, c_ac))
            t, q = x.window
            for alpha in ALPHA_GRID:
                rhs = prior = math.nan
                with rec.span("bounds.eval"):
                    params = bnd.MonogamyParams(alpha, GAMMA, t, q)
                    ok = bnd.validate_params("monogamy", small, big, params).ok
                if ok:
                    with rec.span("bounds.eval"):
                        rhs = bnd.thm1_lower_bound(small, big, params)
                    with rec.span("bounds.eval"):
                        prior = bnd.prior_monogamy_bound(
                            "ref29", small, big, alpha=alpha, gamma=GAMMA, a=t)
                evals.append((ok, rhs, prior))
        return (c_ab, c_ac, c_a, n_a, n_ab, n_ac), evals

    def references(self, k: int) -> tuple:
        i = k % self.POOL
        if i not in self._refs:
            amps = self.inputs[i].state.amps
            f_ab = gates.factor(amps, 3, (0, 1))
            f_ac = gates.factor(amps, 3, (0, 2))
            self._refs[i] = (gates.concurrence_ref(f_ab), gates.concurrence_ref(f_ac),
                             gates.qubit_concurrence_sq(amps),
                             gates.negativity_ref(f_ab), gates.negativity_ref(f_ac))
        return self._refs[i]

    def check(self, k, out):
        x = self.inputs[k % self.POOL]
        (c_ab, c_ac, c_a, n_a, n_ab, n_ac), evals = out
        r_ab, r_ac, c_a_sq, rn_ab, rn_ac = self.references(k)
        fails = gates.close("Wootters AB", c_ab, r_ab, gates.TOL_CLOSED)
        fails += gates.close("Wootters AC", c_ac, r_ac, gates.TOL_CLOSED)
        fails += gates.close("C(A|BC)^2", c_a * c_a, c_a_sq, gates.TOL_CLOSED)
        fails += gates.close("N(A|BC)^2", n_a * n_a, c_a_sq, gates.TOL_CLOSED)
        fails += gates.close("negativity AB", n_ab, rn_ab, gates.TOL_CLOSED)
        fails += gates.close("negativity AC", n_ac, rn_ac, gates.TOL_CLOSED)
        fails += gates.at_least("CKW slack", c_a * c_a - c_ab * c_ab - c_ac * c_ac,
                                0.0, gates.TOL_CKW)
        expected = len(ALPHA_GRID) if x.window is not None else 0
        fails += gates.equal("bound evaluations", len(evals), expected)
        if x.window is None or len(evals) != expected:
            return fails
        small, big = sorted((c_ab, c_ac))
        t, q = x.window
        for alpha, (ok, rhs, prior) in zip(ALPHA_GRID, evals):
            # the window does not depend on alpha, and the input sampled it
            # admissible
            fails += gates.equal(f"admissible at alpha={alpha}", ok, True)
            fails += gates.rel_close(
                f"thm1 RHS at alpha={alpha}", rhs,
                gates.two_term_ref(small, big, alpha, GAMMA, t, q), gates.TOL_CLOSED)
            fails += gates.rel_close(
                f"ref29 RHS at alpha={alpha}", prior,
                gates.ref29_ref(small, big, alpha, GAMMA, t), gates.TOL_CLOSED)
        return fails

    def observe(self, k, out):
        (_, _, c_a, *_), evals = out
        for alpha, (ok, rhs, _) in zip(ALPHA_GRID, evals):
            self.validations += 1
            self.admissible += int(ok)
            # informational: the tightened bound above the measured LHS,
            # beyond the theorem tolerance
            if ok and rhs > c_a ** alpha + gates.TOL_CKW:
                self.rhs_above_lhs.add((k % self.POOL, alpha))

    def layer_metrics(self, times):
        return {
            "bounds.admissible_share":
                self.admissible / self.validations if self.validations else 0.0,
            "bounds.rhs_above_lhs": len(self.rhs_above_lhs),
        }


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

# Header grid descriptions and SHA-256 of everything after the header line,
# recorded from `entbounds figure --id 1` and `--id 4` at the commit that
# introduced this benchmark.  Ids 3 and 6 produce the same bytes.
FIGURE_DIGESTS = {
    1: ("alpha[0.0,2.0,101]xgamma[2.0,20.0,101]",
        "d6f1795767a485544d9782473c49d5f4f383f6557983e625c56f45ededcb9032"),
    4: ("delta[0.6,1.0,101]xbeta[0.6,3.0,101]",
        "4029ddb0561feabe7460eccdef396a6bade362c4a74f9e8379006fde7f43da4e"),
}
FIGURE_IDS = (1, 4)


class Figures(Workload):
    """`figure --id 1` and `--id 4` at the default 101 x 101 resolution,
    alternating.  The seed only enters the CSV header, as in the CLI."""

    name = "figures"
    POOL = len(FIGURE_IDS)

    def __init__(self, seed: int):
        self.seed = seed
        self.grid_points = 0
        self.csv_bytes = 0
        self.items = 0

    def run(self, k, rec):
        fig_id = FIGURE_IDS[k % self.POOL]
        with rec.span("harness.figure_spec"):
            spec, data = hs.figure_spec(fig_id)
        with rec.span("harness.sweep_rows"):
            header, rows = hs.sweep_rows(spec, data["lhs_base"], data["q_ab"],
                                         data["q_ac"], self.seed)
        with rec.span("harness.rows_to_csv"):
            return hs.rows_to_csv(header, rows)

    def check(self, k, csv):
        grid, digest = FIGURE_DIGESTS[FIGURE_IDS[k % self.POOL]]
        first, _, body = csv.partition("\n")
        return (gates.equal("CSV header", first, f"# seed={self.seed} grid={grid}")
                + gates.equal("CSV body SHA-256", gates.sha256_text(body), digest))

    def observe(self, k, csv):
        self.items += 1
        self.grid_points += csv.count("\n") - 2
        self.csv_bytes += len(csv)

    def layer_metrics(self, times):
        sweep_s = times.get("harness.sweep_rows", (0.0, 0))[0]
        return {
            "harness.grid_points_per_s": self.grid_points / sweep_s if sweep_s else 0.0,
            "harness.csv_bytes": self.csv_bytes / self.items if self.items else 0.0,
        }


WORKLOADS = {cls.name: cls for cls in (RoofMin, RoofMax, Audit, Figures)}
