import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from entbounds.bounds import (
    PRIOR_VARIANTS,
    SIDES,
    WINDOW_CONDITIONS,
    BoundParams,
    BoundReport,
    BoundsError,
    ChainParams,
    ChainStepError,
    Condition,
    MonogamyParams,
    PolygamyParams,
    PreconditionError,
    _pow,
    _side,
    _two_term_bound,
    _window_conditions,
    bound_grid,
    grid_pow,
    chain_monogamy_bound,
    chain_polygamy_bound,
    lemma1_check,
    lemma1_f,
    prior_bound,
    prior_monogamy_bound,
    prior_polygamy_bound,
    thm1_lower_bound,
    thm4_upper_bound,
    tightened_bound,
    validate_params,
)
from entbounds.harness import verify_lemma1
from entbounds.states import make_rng

S6 = np.sqrt(6.0)

# Example data: five-amplitude state gives (sqrt(6)/6, 1/2) concurrence
# pairs, W-class state gives (1/4, 1/2) assisted-negativity squares
EX1 = dict(q_ab=S6 / 6, q_ac=0.5, t=S6 / 2, q=5.0 / 3.0)
EX2 = dict(q_ab=0.25, q_ac=0.5, t=2.0 ** 0.6, q=1.0 + 0.5 ** 0.8)

# frozen by direct evaluation of the closed forms at 30-digit precision
EX1_THM1 = 0.6462607329003782
EX1_REF29 = 0.6446878605381149
EX2_THM4 = 0.8811862835051213
EX2_REF29 = 0.8823709483818013


# -- lemma scalar function ----------------------------------------------------

def test_lemma1_f_values():
    assert lemma1_f(2.0, 1.0, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert lemma1_f(2.0, 0.5, 2.0) == pytest.approx(np.sqrt(3) - 1.0, abs=1e-14)
    assert lemma1_f(1.0, 0.5, 2.0) == pytest.approx(
        np.sqrt(2) - np.sqrt(0.5), abs=1e-14)
    assert lemma1_f(2.0, 0.5, 2.0) >= lemma1_f(1.0, 0.5, 2.0)


def test_lemma1_f_domain():
    with pytest.raises(BoundsError):
        lemma1_f(-1.0, 0.5, 2.0)
    with pytest.raises(BoundsError):
        lemma1_f(2.0, 0.5, 1.0)
    with pytest.raises(BoundsError):
        lemma1_f(2.0, -0.5, 2.0)


def test_lemma1_check_equality_point():
    # x = t pins the window to the single point q = 1 + 1/t
    q = 1.0 + 1.0 / 1.5
    assert lemma1_check(1.5, 1.5, q, 0.7, "m")
    assert lemma1_check(1.5, 1.5, q, 2.5, "n")


def test_lemma1_check_top_edge_holds():
    # at q = 1 + 1/t both branches reduce to the prior-bound inequality
    q = 1.0 + 1.0 / 1.5
    assert lemma1_check(3.0, 1.5, q, 0.7, "m")
    assert lemma1_check(3.0, 1.5, q, 2.5, "n")


def test_lemma1_check_interior_counterexamples():
    # the claimed inequalities fail for interior q: direct evaluation at
    # (x=3, t=1.5, q=1.4) refutes both branches
    assert not lemma1_check(3.0, 1.5, 1.4, 0.7, "m")
    assert not lemma1_check(3.0, 1.5, 1.4, 2.5, "n")
    f_x = lemma1_f(3.0, 0.7, 1.4)
    f_t = lemma1_f(1.5, 0.7, 1.4)
    assert f_x - f_t == pytest.approx(-0.00994, abs=1e-4)


def test_lemma1_holds_at_the_window_top_on_acceptance_5_draws():
    # acceptance 5 draws q across the paper's window [1 + 1/x, 1 + 1/t]
    # and finds violations; at its top edge q = 1 + 1/t, where f runs the
    # claimed way on [t, x], the same (x, t, exponent) draws give none
    trials, seed = 100000, 20240817
    rng = make_rng(seed)  # verify_lemma1's draws, in its order
    t = rng.uniform(1.0, 50.0, trials)
    x = rng.uniform(t, 50.0)
    q_window = rng.uniform(1.0 + 1.0 / x, 1.0 + 1.0 / t)
    m = rng.uniform(0.0, 1.0, trials)
    n = rng.uniform(1.0, 10.0, trials)
    window_violations = (
        np.sum(lemma1_f(x, m, q_window) - lemma1_f(t, m, q_window) < -1e-12)
        + np.sum(lemma1_f(t, n, q_window) - lemma1_f(x, n, q_window) < -1e-12))
    assert window_violations == verify_lemma1(trials, seed)["violations"] > 0
    q = 1.0 + 1.0 / t
    assert np.min(lemma1_f(x, m, q) - lemma1_f(t, m, q)) >= -1e-12
    assert np.min(lemma1_f(t, n, q) - lemma1_f(x, n, q)) >= -1e-12


def test_lemma1_check_preconditions_distinct():
    with pytest.raises(PreconditionError):
        lemma1_check(1.0, 1.5, 1.4, 0.5, "m")  # x < t
    with pytest.raises(PreconditionError):
        lemma1_check(3.0, 1.5, 3.0, 0.5, "m")  # q above window
    with pytest.raises(PreconditionError):
        lemma1_check(3.0, 1.5, 1.5, 1.5, "m")  # exponent outside branch
    with pytest.raises(BoundsError):
        lemma1_check(3.0, 1.5, 1.5, 0.5, "z")


# -- two-term bounds ----------------------------------------------------------

def test_thm1_alpha_zero_is_one():
    p = MonogamyParams(0.0, 2.0, EX1["t"], EX1["q"])
    assert thm1_lower_bound(EX1["q_ab"], EX1["q_ac"], p) == pytest.approx(
        1.0, abs=1e-14)


def test_thm1_alpha_equals_gamma_collapse():
    p = MonogamyParams(2.0, 2.0, EX1["t"], EX1["q"])
    expect = EX1["q_ab"] ** 2 + EX1["q_ac"] ** 2
    assert thm1_lower_bound(EX1["q_ab"], EX1["q_ac"], p) == pytest.approx(
        expect, abs=1e-14)


def test_thm1_example_value():
    p = MonogamyParams(1.0, 2.0, EX1["t"], EX1["q"])
    assert thm1_lower_bound(EX1["q_ab"], EX1["q_ac"], p) == pytest.approx(
        EX1_THM1, abs=1e-12)


def test_thm1_inadmissible_raises():
    p = MonogamyParams(1.0, 2.0, EX1["t"], 1.0 + 2.0 / EX1["t"])
    with pytest.raises(PreconditionError):
        thm1_lower_bound(EX1["q_ab"], EX1["q_ac"], p)


def test_thm1_zero_conventions():
    p = MonogamyParams(1.0, 2.0, 1.0, 1.5)
    assert thm1_lower_bound(0.0, 0.0, p) == 0.0
    assert thm1_lower_bound(0.0, 0.5, p) == pytest.approx(
        1.5 ** (-0.5) * 0.5, abs=1e-14)
    p0 = MonogamyParams(0.0, 2.0, 1.0, 1.5)
    assert thm1_lower_bound(0.0, 0.5, p0) == pytest.approx(
        1.5 ** (-1.0), abs=1e-14)


def test_prior_monogamy_values():
    z1 = prior_monogamy_bound("ref29", EX1["q_ab"], EX1["q_ac"],
                              alpha=1.0, gamma=2.0, a=EX1["t"])
    assert z1 == pytest.approx(EX1_REF29, abs=1e-12)

    v = prior_monogamy_bound("ref16", 0.3, 0.4, alpha=2.0, gamma=2.0, k=1.0)
    assert v == pytest.approx(0.3 ** 2 + 0.4 ** 2, abs=1e-14)

    with pytest.raises(PreconditionError):
        prior_monogamy_bound("ref28", 0.3, 0.4, alpha=1.5, gamma=2.0,
                             k=1.0, p=0.8)  # alpha > gamma/2
    with pytest.raises(BoundsError):
        prior_monogamy_bound("refXX", 0.3, 0.4, alpha=1.0, gamma=2.0)


def test_prior_unknown_variant_raises_at_zero_values():
    with pytest.raises(BoundsError, match="refXX"):
        prior_monogamy_bound("refXX", 0.0, 0.0, alpha=1.0, gamma=2.0)
    with pytest.raises(BoundsError, match="refXX"):
        prior_polygamy_bound("refXX", 0.0, 0.0, beta=1.0, delta=0.8)
    # a known variant still returns the zero bound without its factors
    assert prior_polygamy_bound("ref28", 0.0, 0.0, beta=1.0, delta=0.8) == 0.0


def test_thm4_collapse_and_example():
    p = PolygamyParams(0.8, 0.8, EX2["t"], EX2["q"])
    expect = EX2["q_ab"] ** 0.8 + EX2["q_ac"] ** 0.8
    assert thm4_upper_bound(EX2["q_ab"], EX2["q_ac"], p) == pytest.approx(
        expect, abs=1e-14)

    p = PolygamyParams(1.0, 0.8, EX2["t"], EX2["q"])
    w2 = thm4_upper_bound(EX2["q_ab"], EX2["q_ac"], p)
    assert w2 == pytest.approx(EX2_THM4, abs=1e-12)
    assert 0.75 <= w2  # the assisted LHS stays below the upper bound


def test_power_overflow_raises_bounds_error():
    # e = beta/delta = 2e9 puts (1+t)^e beyond the float range
    with pytest.raises(BoundsError, match="overflows"):
        thm4_upper_bound(0.25, 0.5, PolygamyParams(2.0, 1e-9, 1.0, 2.0))
    with pytest.raises(BoundsError, match="overflows"):
        prior_polygamy_bound("ref29", 0.25, 0.5, beta=2.0, delta=1e-9, a=1.0)


# -- grid powers ----------------------------------------------------------------

def pointwise_pow(base, exponent):
    """_pow at every point of the broadcast grid, nan where it raises, and
    the set of exception types it raised: the reference grid_pow must
    match bit for bit where that set is empty."""
    b, e = np.broadcast_arrays(np.asarray(base, dtype=float),
                               np.asarray(exponent, dtype=float))
    out, errors = np.empty(b.shape), set()
    for idx in np.ndindex(b.shape):
        try:
            out[idx] = _pow(float(b[idx]), float(e[idx]))
        except (BoundsError, TypeError) as exc:
            out[idx] = np.nan
            errors.add(type(exc))
    return out, errors


def grid_with_two_failures():
    """A figure-sized 101 x 101 grid with one overflowing power and one
    complex one."""
    base = np.random.default_rng(7).uniform(0.0, 3.0, (101, 101))
    exponent = np.random.default_rng(8).uniform(-3.0, 3.0, (101, 101))
    base[17, 42], exponent[17, 42] = 10.0, 400.0
    base[80, 5], exponent[80, 5] = -2.0, 0.5
    return base, exponent


NAN, INF = float("nan"), float("inf")
COL = (-1, 1)  # base varies down, exponent across
GRID_POW_CASES = {
    "zero-bases": (np.reshape([0.0, -0.0], COL),
                   [-2.5, -1.0, -0.0, 0.0, 0.5, 3.0, NAN, INF, -INF]),
    "zero-exponent": (np.reshape([NAN, INF, -INF, -3.0, -0.5, 0.0, -0.0, 2.0],
                                 COL), [0.0, -0.0]),
    "nan-and-inf": (np.reshape([NAN, INF, -INF, 0.5, 1.0, 2.0, -1.0], COL),
                    [NAN, INF, -INF, 2.0, -1.0, 3.0]),
    "negative-integer-powers": (np.reshape([-2.0, -0.5, -7.25], COL),
                                [-3.0, -2.0, 1.0, 2.0, 5.0]),
    "subnormal": (np.reshape([5e-324, 1e-310, 2.0], COL), [0.5, 1.0, -0.001]),
    "complex": (np.reshape([-2.0, 0.5, -0.0], COL), [0.5, 2.0, -1.5]),
    "overflow": (np.reshape([10.0, 0.5, 0.0], COL), [400.0, 2.0, -400.0]),
    "overflow-and-complex": (np.reshape([1e300, -8.0], COL), [2.0, 1.0 / 3.0]),
    "zero-d": (0.75, 2.5),
    "zero-d-numpy": (np.float64(1.5), np.array(-0.25)),
    "zero-d-overflow": (10.0, 400.0),
    "zero-d-complex": (-2.0, 0.5),
    "scalar-by-vector": (0.25, np.linspace(0.0, 4.0, 9)),
    "broadcast": (np.linspace(0.0, 3.0, 4).reshape(4, 1, 1),
                  np.linspace(-2.0, 2.0, 6).reshape(1, 2, 3)),
    "random": (np.random.default_rng(5).uniform(0.0, 3.0, (40, 50)),
               np.random.default_rng(6).uniform(-6.0, 6.0, (40, 50))),
    "grid-one-overflow-one-complex": grid_with_two_failures(),
}


@pytest.mark.parametrize("name", list(GRID_POW_CASES))
def test_grid_pow_matches_pointwise_pow(name):
    base, exponent = GRID_POW_CASES[name]
    want, errors = pointwise_pow(base, exponent)
    if errors:
        # an overflow raises in the power loop, before the float conversion
        # that rejects a complex power
        with pytest.raises(OverflowError if BoundsError in errors
                           else TypeError):
            grid_pow(base, exponent)
        return
    got = grid_pow(base, exponent)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_prior_polygamy_values():
    w1 = prior_polygamy_bound("ref29", EX2["q_ab"], EX2["q_ac"],
                              beta=1.0, delta=0.8, a=EX2["t"])
    assert w1 == pytest.approx(EX2_REF29, abs=1e-12)

    v = prior_polygamy_bound("ref16", 0.3, 0.4, beta=0.7, delta=0.7, k=1.0)
    assert v == pytest.approx(0.3 ** 0.7 + 0.4 ** 0.7, abs=1e-14)


def test_example2_orderings():
    assert EX2_THM4 < EX2_REF29


# -- parameter validation -----------------------------------------------------

def test_validate_example1_sits_on_edge():
    p = MonogamyParams(1.0, 2.0, EX1["t"], EX1["q"])
    rep = validate_params("monogamy", EX1["q_ab"], EX1["q_ac"], p)
    assert rep.ok
    edge = 1.0 + EX1["q_ab"] ** 2 / EX1["q_ac"] ** 2
    assert EX1["q"] == pytest.approx(edge, abs=1e-14)


def test_validate_example2_delta_floor():
    # dominance (1/2)^d >= 2^0.6 (1/4)^d needs d >= 0.6
    p = PolygamyParams(1.0, 0.5, EX2["t"], 1.0 + 0.5 ** 0.5)
    rep = validate_params("polygamy", EX2["q_ab"], EX2["q_ac"], p)
    assert not rep.ok
    assert "dominance" in rep.failed()

    p = PolygamyParams(1.0, 0.6, EX2["t"], 1.0 + 0.5 ** 0.6)
    rep = validate_params("polygamy", EX2["q_ab"], EX2["q_ac"], p)
    assert rep.ok


def test_validate_window_failure():
    p = MonogamyParams(1.0, 2.0, EX1["t"], 1.0 + 2.0 / EX1["t"])
    rep = validate_params("monogamy", EX1["q_ab"], EX1["q_ac"], p)
    assert rep.failed() == ["q_window"]


def test_validate_vacuous_on_zero():
    p = MonogamyParams(1.0, 2.0, 5.0, 1.1)
    rep = validate_params("monogamy", 0.0, 0.0, p)
    assert rep.ok and rep.vacuous


def test_validate_t_below_one():
    p = MonogamyParams(1.0, 2.0, 0.5, 1.5)
    rep = validate_params("monogamy", 0.3, 0.4, p)
    assert "t_ge_1" in rep.failed()


def test_validate_reports_all_conditions():
    p = MonogamyParams(1.0, 2.0, EX1["t"], EX1["q"])
    rep = validate_params("monogamy", EX1["q_ab"], EX1["q_ac"], p)
    names = {c.name for c in rep.conditions}
    assert {"t_ge_1", "dominance", "q_window"} <= names


def test_validate_delta_zero_fails_range():
    p = PolygamyParams(1.0, 0.0, 1.0, 2.0)
    rep = validate_params("polygamy", 0.25, 0.5, p)
    assert rep.failed() == ["delta_range"]
    with pytest.raises(PreconditionError):
        thm4_upper_bound(0.25, 0.5, p)


@pytest.mark.parametrize("kind,theorem,nums,dens", [
    ("monogamy", thm1_lower_bound, (-1e-9, 0.0, 1.0, 2.0, 2.0 + 1e-9, 3.0),
     (0.0, 2.0 - 1e-9, 2.0, 3.0)),
    ("polygamy", thm4_upper_bound, (0.0, 0.8 - 1e-9, 0.8, 1.0, 1.0 + 1e-9, 2.0),
     (-1e-9, 0.0, 0.01, 0.8, 1.0, 1.0 + 1e-9)),
])
def test_validate_ok_iff_theorem_evaluates(kind, theorem, nums, dens):
    # the report and the theorem share one admissibility rule: across the
    # exponent-range edges, the zero values and a window failure (t < 1)
    for (q_ab, q_ac), num, den, t in itertools.product(
            ((0.25, 0.5), (0.0, 0.5), (0.0, 0.0)), nums, dens, (1.0, 0.5)):
        p = BoundParams(num, den, t, 2.0)
        ok = validate_params(kind, q_ab, q_ac, p).ok
        try:
            theorem(q_ab, q_ac, p)
            evaluates = True
        except PreconditionError:
            evaluates = False
        assert ok == evaluates, (q_ab, q_ac, num, den, t)


@pytest.mark.parametrize("kind,params,exponent", [
    ("monogamy", MonogamyParams(1.0, 2.0, 2.0, 1.5), "gamma"),
    ("polygamy", PolygamyParams(1.0, 0.8, 2.0, 1.5), "delta"),
])
def test_validate_dominance_detail_names_exponent(kind, params, exponent):
    rep = validate_params(kind, 0.5, 0.25, params)  # Q_AC below t * Q_AB
    dom = next(c for c in rep.conditions if c.name == "dominance")
    assert not dom.ok
    assert dom.detail.startswith(f"Q_AC^{exponent} = ")
    assert f"t * Q_AB^{exponent} = " in dom.detail


@dataclass(frozen=True)
class EagerReport:
    kind: str
    conditions: tuple
    vacuous: bool = False

    @property
    def ok(self):
        return all(c.ok for c in self.conditions)

    def failed(self):
        return [c.name for c in self.conditions if not c.ok]


def eager_validate_params(kind, q_ab, q_ac, params):
    """The report-building validate_params the flag-based one replaced,
    kept as its oracle: every Condition and detail string built up front."""
    if q_ab < 0 or q_ac < 0:
        raise BoundsError("correlation values must be nonnegative")
    side = _side(kind)
    if not isinstance(params, BoundParams):
        raise BoundsError(f"{kind} kind requires BoundParams")
    names = side.range_names + WINDOW_CONDITIONS
    num, den, t, q = params.num, params.den, params.t, params.q
    if q_ab == 0.0 and q_ac == 0.0 and den != 0.0:
        return EagerReport(kind, tuple(
            Condition(n, True, "vacuous: both correlations zero")
            for n in names), vacuous=True)

    num_name, den_name = side.exponents
    ab, ac = _pow(q_ab, den), _pow(q_ac, den)
    window_oks, lo, hi = _window_conditions(ab, ac, t, q)
    details = (
        f"{den_name} = {den}",
        f"{num_name} = {num}, {den_name} = {den}",
        f"t = {t}",
        f"Q_AC^{den_name} = {ac} vs t * Q_AB^{den_name} = {t * ab}",
        f"q = {q}, window [{lo}, {hi}]",
    )
    oks = side.range_ok(num, den) + window_oks
    return EagerReport(kind, tuple(map(Condition, names, oks, details)))


ORACLE_EXPONENTS = {
    # the exponent-range edges of each side, zero and den = 0 included
    "monogamy": ((-1e-9, 0.0, 1.0, 2.0, 2.0 + 1e-9, 3.0),
                 (0.0, 2.0 - 1e-9, 2.0, 3.0)),
    "polygamy": ((0.0, 0.8 - 1e-9, 0.8, 1.0, 1.0 + 1e-9, 2.0),
                 (-1e-9, 0.0, 0.01, 0.8, 1.0, 1.0 + 1e-9)),
}


def oracle_q_values(q_ab, q_ac, den, t):
    """q below, on and inside the window [1 + Q_AB^den/Q_AC^den, 1 + 1/t],
    on its top edge and within and beyond its grace band there, and
    above it."""
    ac = _pow(q_ac, den)
    lo = 1.0 + _pow(q_ab, den) / ac if ac > 0.0 else 1.0
    hi = 1.0 + 1.0 / t
    return (0.9, 1.0, lo - 1e-3, lo, (lo + hi) / 2, hi, hi * (1 + 5e-13),
            hi * (1 + 1e-11), hi + 0.5)


@pytest.mark.parametrize("kind", list(ORACLE_EXPONENTS))
def test_validate_params_matches_eager_oracle(kind):
    theorem = {"monogamy": thm1_lower_bound, "polygamy": thm4_upper_bound}[kind]
    nums, dens = ORACLE_EXPONENTS[kind]
    pairs = ((0.25, 0.5), (0.5, 0.25), (0.3, 0.3), (0.0, 0.5), (0.5, 0.0),
             (0.0, 0.0))
    inadmissible = 0
    for (q_ab, q_ac), num, den, t in itertools.product(
            pairs, nums, dens, (0.5, 1.0, 1.5)):
        for q in oracle_q_values(q_ab, q_ac, den, t):
            p = BoundParams(num, den, t, q)
            old, new = (eager_validate_params(kind, q_ab, q_ac, p),
                        validate_params(kind, q_ab, q_ac, p))
            point = (q_ab, q_ac, num, den, t, q)
            assert new.kind == kind
            assert ([(c.name, c.ok, c.detail) for c in new.conditions]
                    == [(c.name, c.ok, c.detail) for c in old.conditions]), point
            assert (new.ok, new.vacuous, new.failed()) == (
                old.ok, old.vacuous, old.failed()), point
            assert new.as_dict() == {
                "kind": kind, "ok": old.ok, "vacuous": old.vacuous,
                "conditions": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                               for c in old.conditions]}, point
            if old.ok:
                rhs = _two_term_bound(q_ab, q_ac, num, den, t, q)
                assert theorem(q_ab, q_ac, p).hex() == rhs.hex(), point
                continue
            inadmissible += 1
            with pytest.raises(PreconditionError) as err:
                theorem(q_ab, q_ac, p)
            assert str(err.value) == f"inadmissible: {old.failed()}", point
    assert 0 < inadmissible


@pytest.mark.parametrize("args", [
    ("monogamy", -0.1, 0.5, BoundParams(1.0, 2.0, 1.0, 1.5)),
    ("bogus", -0.1, 0.5, BoundParams(1.0, 2.0, 1.0, 1.5)),
    ("bogus", 0.25, 0.5, BoundParams(1.0, 2.0, 1.0, 1.5)),
    ("polygamy", 0.25, 0.5, (1.0, 0.8, 1.0, 1.5)),
])
def test_validate_params_argument_errors_match_eager_oracle(args):
    with pytest.raises(BoundsError) as old:
        eager_validate_params(*args)
    for entry in (validate_params, tightened_bound):
        with pytest.raises(BoundsError) as new:
            entry(*args)
        assert (type(new.value), str(new.value)) == (
            type(old.value), str(old.value))


# -- one definition, two engines ----------------------------------------------

def point_entries(kind, variant, q_ab, q_ac, num, den, t, q, k, p, a):
    """tightened_bound or prior_bound at every point of 1-d arrays: (rhs,
    ok), with nan and False where they raise PreconditionError."""
    rhs, ok = np.full(num.shape, np.nan), np.zeros(num.shape, dtype=bool)
    for i, (n, d, tt, qq, kk, pp, aa) in enumerate(zip(
            *(v.tolist() for v in (num, den, t, q, k, p, a)))):
        try:
            if variant == SIDES[kind].theorem:
                rhs[i] = tightened_bound(kind, q_ab, q_ac,
                                         BoundParams(n, d, tt, qq))
            else:
                rhs[i] = prior_bound(kind, variant, q_ab, q_ac, n, d, kk, pp,
                                     aa)
            ok[i] = True
        except PreconditionError:
            pass
    return rhs, ok


def same_bits(x, y):
    return np.array_equal(x.view(np.int64), y.view(np.int64))


def uniform_or_edge(rng, lo, hi, edge, size=2400):
    """Uniform draws in [lo, hi), a quarter of them replaced by edge."""
    return np.where(rng.random(size) < 0.25, edge, rng.uniform(lo, hi, size))


@pytest.mark.parametrize("kind", list(SIDES))
def test_bound_grid_matches_point_entries_on_every_variant(kind):
    # num, den, t, q, k, p and a straddle every range edge, and a quarter
    # of them sit on one (num = den, t = k = a = p = 1, q = 1 + 1/t); den
    # stays near 0.6 ... 3, since den near 0 overflows e = num/den, and
    # p >= 0, since p < 0 makes ref28's unused power complex and its grid
    # raise
    rng = np.random.default_rng(20240817)
    admissible = 0
    for variant, (q_ab, q_ac) in itertools.product(
            (SIDES[kind].theorem,) + PRIOR_VARIANTS,
            ((0.25, 0.5), (0.5, 0.25), (0.0, 0.6), (0.0, 0.0), (0.3, 0.3))):
        den = (rng.choice([0.6, 0.8, 1.0, 2.0, 2.5, 3.0], 2400)
               + rng.uniform(-0.2, 0.2, 2400))
        t = uniform_or_edge(rng, 0.5, 3.0, 1.0)
        args = (uniform_or_edge(rng, -0.5, 4.0, den), den, t,
                uniform_or_edge(rng, 0.8, 3.0, 1.0 + 1.0 / t),
                uniform_or_edge(rng, 0.5, 3.0, 1.0),
                uniform_or_edge(rng, 0.0, 1.5, 1.0),
                uniform_or_edge(rng, 0.5, 3.0, 1.0))
        rhs, ok = point_entries(kind, variant, q_ab, q_ac, *args)
        grid_rhs, grid_ok = bound_grid(kind, variant, q_ab, q_ac, *args)
        point = (kind, variant, q_ab, q_ac)
        assert np.array_equal(np.broadcast_to(grid_ok, ok.shape), ok), point
        assert same_bits(np.broadcast_to(grid_rhs, rhs.shape), rhs), point
        assert ok.any() or (q_ab, q_ac) == (0.5, 0.25), point
        admissible += int(ok.sum())
    assert admissible > 5000


@pytest.mark.parametrize("kind", list(SIDES))
def test_theorem_at_window_top_is_ref29_on_both_engines(kind):
    # at q = 1 + 1/t the lemma coefficient (1+t)^e - (1+1/t)^(e-1) t^e is
    # (1+t)^(e-1), so the theorem is ref29 with a = t: relative to 1e-13,
    # on 20000 admissible points, with the grid's bits those of the points
    side = SIDES[kind]
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 20000:
        q_ab = rng.uniform(0.01, 1.0)
        q_ac = rng.uniform(q_ab, 1.0)
        if side.lower:
            den = rng.uniform(2.0, 10.0, 1000)
            num = rng.uniform(0.0, den)
        else:
            den = rng.uniform(0.2, 1.0, 1000)
            num = den + rng.uniform(0.0, 2.0, 1000)
        t = rng.uniform(1.0, np.minimum((q_ac / q_ab) ** den, 10.0))
        args = (num, den, t, 1.0 + 1.0 / t, t, 1.0, t)
        thm, thm_ok = bound_grid(kind, side.theorem, q_ab, q_ac, *args)
        ref, ref_ok = bound_grid(kind, "ref29", q_ab, q_ac, *args)
        both = thm_ok & ref_ok
        thm, ref = thm[both], ref[both]
        assert np.all(np.abs(thm - ref) <= 1e-13 * np.abs(ref)), kind
        picked = tuple(v[both] for v in (num, den, t))
        point_thm = [tightened_bound(kind, q_ab, q_ac,
                                     BoundParams(n, d, tt, 1.0 + 1.0 / tt))
                     for n, d, tt in zip(*(v.tolist() for v in picked))]
        point_ref = [prior_bound(kind, "ref29", q_ab, q_ac, n, d, a=tt)
                     for n, d, tt in zip(*(v.tolist() for v in picked))]
        assert same_bits(thm, np.array(point_thm)), kind
        assert same_bits(ref, np.array(point_ref)), kind
        checked += int(both.sum())


# -- special-case identities and monotonicity --------------------------------

def test_thm1_equals_ref29_at_top_edge(rng):
    for _ in range(200):
        gamma = rng.uniform(2.0, 20.0)
        alpha = rng.uniform(0.0, gamma)
        t = rng.uniform(1.0, 10.0)
        q_ab = rng.uniform(0.0, 1.0)
        q_ac = (t * q_ab ** gamma) ** (1 / gamma) + rng.uniform(0.01, 0.5)
        q_ac = min(q_ac, 1.0)
        if q_ac ** gamma < t * q_ab ** gamma:
            continue
        p = MonogamyParams(alpha, gamma, t, 1.0 + 1.0 / t)
        lhs = thm1_lower_bound(q_ab, q_ac, p)
        rhs = prior_monogamy_bound("ref29", q_ab, q_ac,
                                   alpha=alpha, gamma=gamma, a=t)
        assert abs(lhs - rhs) <= 1e-13


def test_thm4_equals_ref29_at_top_edge(rng):
    # grid ranges keep the bound O(1) so the absolute identity tolerance
    # is meaningful
    for _ in range(200):
        delta = rng.uniform(0.4, 1.0)
        beta = delta + rng.uniform(0.0, 1.2)
        t = rng.uniform(1.0, 3.0)
        q_ab = rng.uniform(0.01, 1.0)
        q_ac = min((t ** (1 / delta)) * q_ab * (1 + rng.uniform(0.0, 0.5)), 1.0)
        if q_ac ** delta < t * q_ab ** delta:
            continue
        p = PolygamyParams(beta, delta, t, 1.0 + 1.0 / t)
        lhs = thm4_upper_bound(q_ab, q_ac, p)
        rhs = prior_polygamy_bound("ref29", q_ab, q_ac,
                                   beta=beta, delta=delta, a=t)
        assert abs(lhs - rhs) <= 1e-13


def test_thm1_tightness_vs_ref29(rng):
    # lower bound is nonincreasing in q, so any admissible q at or below
    # the window top dominates the prior bound
    for _ in range(100):
        gamma = rng.uniform(2.0, 10.0)
        alpha = rng.uniform(0.0, gamma)
        q_ab = rng.uniform(0.05, 0.6)
        q_ac = rng.uniform(q_ab + 0.05, 1.0)
        x = (q_ac / q_ab) ** gamma
        if x <= 1.0:
            continue
        t = rng.uniform(1.0, min(x, 8.0))
        lo, hi = 1.0 + 1.0 / x, 1.0 + 1.0 / t
        q = rng.uniform(lo, hi)
        p = MonogamyParams(alpha, gamma, t, q)
        ours = thm1_lower_bound(q_ab, q_ac, p)
        prior = prior_monogamy_bound("ref29", q_ab, q_ac,
                                     alpha=alpha, gamma=gamma, a=t)
        assert ours >= prior - 1e-12


def test_thm1_monotone_nonincreasing_in_q():
    p_ab, p_ac, t = 0.3, 0.6, 1.5
    gamma, alpha = 2.0, 1.0
    x = (p_ac / p_ab) ** gamma
    qs = np.linspace(1.0 + 1.0 / x, 1.0 + 1.0 / t, 50)
    vals = [thm1_lower_bound(p_ab, p_ac, MonogamyParams(alpha, gamma, t, q))
            for q in qs]
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


def test_thm4_monotone_nondecreasing_in_q():
    # the upper bound moves the other way: larger q loosens it toward the
    # prior bound at the window top
    p_ab, p_ac, t = 0.25, 0.5, 2.0 ** 0.6
    delta, beta = 0.8, 1.0
    x = (p_ac / p_ab) ** delta
    qs = np.linspace(1.0 + 1.0 / x, 1.0 + 1.0 / t, 50)
    vals = [thm4_upper_bound(p_ab, p_ac, PolygamyParams(beta, delta, t, q))
            for q in qs]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


@pytest.mark.parametrize("kind", list(SIDES))
def test_theorem_is_monotone_in_q_across_the_window(kind):
    # on 2000 random admissible points, 64 values of q from the window's
    # edge 1 + 1/x to its top 1 + 1/t: the right-hand side never rises with
    # q where e = num/den <= 1 (monogamy) and never falls where e >= 1
    # (polygamy), up to rounding
    side = SIDES[kind]
    rng = np.random.default_rng(20240817)
    sign = -1.0 if side.lower else 1.0
    for _ in range(20):
        q_ab = rng.uniform(0.01, 1.0)
        q_ac = rng.uniform(q_ab, 1.0)
        if side.lower:
            den = rng.uniform(2.0, 10.0, (100, 1))
            num = rng.uniform(0.0, den)
        else:
            den = rng.uniform(0.2, 1.0, (100, 1))
            num = den + rng.uniform(0.0, 2.0, (100, 1))
        x = (q_ac / q_ab) ** den
        t = rng.uniform(1.0, np.minimum(x, 10.0))
        edge, top = 1.0 + 1.0 / x, 1.0 + 1.0 / t
        q = edge + (top - edge) * np.linspace(0.0, 1.0, 64)
        rhs, ok = bound_grid(kind, side.theorem, q_ab, q_ac, num, den, t, q,
                             t, 1.0, t)
        assert ok.all()
        steps = sign * np.diff(rhs, axis=1)
        assert np.all(steps >= -4 * np.finfo(float).eps * rhs[:, 1:]), kind


# -- chained bounds -----------------------------------------------------------

def test_chain_single_step_matches_thm1():
    cp = ChainParams((EX1["t"],), (EX1["q"],))
    chain = chain_monogamy_bound([EX1["q_ab"], EX1["q_ac"]], [EX1["q_ac"]],
                                 cp, 1.0, 2.0)
    single = thm1_lower_bound(EX1["q_ab"], EX1["q_ac"],
                              MonogamyParams(1.0, 2.0, EX1["t"], EX1["q"]))
    assert chain == single  # identical arithmetic path


def test_chain_single_step_matches_thm4():
    cp = ChainParams((EX2["t"],), (EX2["q"],))
    chain = chain_polygamy_bound([EX2["q_ab"], EX2["q_ac"]], [EX2["q_ac"]],
                                 cp, 1.0, 0.8)
    single = thm4_upper_bound(EX2["q_ab"], EX2["q_ac"],
                              PolygamyParams(1.0, 0.8, EX2["t"], EX2["q"]))
    assert chain == single


def test_chain_all_zero_pairs():
    cp = ChainParams((1.0, 1.0), (1.5, 1.5))
    assert chain_monogamy_bound([0.0, 0.0, 0.0], [0.0, 0.0], cp, 1.0, 2.0) == 0.0


def test_chain_forward_matches_hand_rolled():
    # independent transcription of the fully forward chained form:
    # l_1 Q_1^a + q_1^e' l_2 Q_2^a + (q_1 q_2)^e' Q_3^a, e' = a/g - 1
    pairs = [0.2, 0.3, 0.6]
    resid = [0.55, 0.6]
    ts = (1.2, 1.1)
    qs = (1.4, 1.5)
    alpha, gamma = 1.0, 2.0
    e = alpha / gamma

    def ell(t, q):
        return (1 + t) ** e - q ** (e - 1) * t ** e

    expect = (ell(ts[0], qs[0]) * pairs[0] ** alpha
              + qs[0] ** (e - 1) * ell(ts[1], qs[1]) * pairs[1] ** alpha
              + (qs[0] * qs[1]) ** (e - 1) * pairs[2] ** alpha)
    got = chain_monogamy_bound(pairs, resid, ChainParams(ts, qs), alpha, gamma)
    assert got == pytest.approx(expect, abs=1e-15)


def test_chain_split_matches_hand_rolled():
    # N = 5 with split m = 1: first step forward, then two reversed steps
    pairs = [0.1, 0.7, 0.5, 0.2]
    resid = [0.75, 0.4, 0.2]
    ts = (1.3, 1.2, 1.4)
    qs = (1.5, 1.65, 1.5)
    beta, delta = 1.5, 0.9
    e = beta / delta

    def kay(t, q):
        return (1 + t) ** e - q ** (e - 1) * t ** e

    expect = (kay(ts[0], qs[0]) * pairs[0] ** beta
              + (qs[0] * qs[1]) ** (e - 1) * pairs[1] ** beta
              + qs[0] ** (e - 1) * kay(ts[1], qs[1]) * qs[2] ** (e - 1)
              * pairs[2] ** beta
              + qs[0] ** (e - 1) * kay(ts[1], qs[1]) * kay(ts[2], qs[2])
              * pairs[3] ** beta)
    got = chain_polygamy_bound(pairs, resid,
                               ChainParams(ts, qs, split_index=1), beta, delta)
    assert got == pytest.approx(expect, abs=1e-14)


def test_chain_split_mode_on_bell_product_state():
    # |Bell(A,B2)> x |0>_B1 x |0>_B3: the second pair carries everything,
    # so the step peeling B2 runs in the reversed (pair-dominant) regime
    import itertools
    from entbounds.measures import concurrence_pure, concurrence_wootters
    from entbounds.states import PureState, reduce_pair, to_density

    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = 1 / np.sqrt(2)   # A=0, B2=0
    amps[0b1010] = 1 / np.sqrt(2)   # A=1, B2=1
    psi = PureState(amps, 4)
    rho = to_density(psi)
    lhs = concurrence_pure(psi, (0,))
    pairs = [concurrence_wootters(reduce_pair(rho, j)) for j in (1, 2, 3)]
    assert pairs == [0.0, pytest.approx(1.0, abs=1e-12), 0.0]
    # residuals: A|B2B3 is the Bell pair (1), A|B3 is uncorrelated (0)
    residuals = [1.0, 0.0]
    cp = ChainParams((1.5, 1.5), (1.25, 1.25), split_index=1)
    rhs = chain_monogamy_bound(pairs, residuals, cp, 1.0, 2.0)
    e = 0.5
    assert rhs == pytest.approx((1.25 * 1.25) ** (e - 1.0), abs=1e-14)
    assert rhs <= lhs + 1e-12


def test_chain_ghz_all_pairwise_zero():
    # 4-qubit GHZ: every two-qubit marginal is separable, the bound is 0
    from entbounds.measures import (RoofConfig, concurrence_functional,
                                    concurrence_pure, concurrence_wootters,
                                    convex_roof)
    from entbounds.linalg import partial_trace
    from entbounds.states import PureState, reduce_pair, to_density

    amps = np.zeros(16, dtype=complex)
    amps[0] = amps[15] = 1 / np.sqrt(2)
    psi = PureState(amps, 4)
    rho = to_density(psi)
    lhs = concurrence_pure(psi, (0,))
    pairs = [concurrence_wootters(reduce_pair(rho, j)) for j in (1, 2, 3)]
    assert pairs == [0.0, 0.0, 0.0]
    res = convex_roof(partial_trace(rho, (0, 2, 3)),
                      concurrence_functional((0,)), "min",
                      RoofConfig(restarts=4, seed=3))
    residuals = [res.value, pairs[2]]
    assert res.value <= 1e-8  # the GHZ marginal is separable
    cp = ChainParams((1.0, 1.0), (1.5, 1.5))
    rhs = chain_monogamy_bound(pairs, residuals, cp, 1.0, 2.0)
    assert rhs == 0.0
    assert rhs <= lhs


def test_chain_polygamy_additive_collapse():
    # beta = delta with every q at the window top gives unit lemma
    # coefficients, so the chain reduces to the plain additive form
    pairs = [0.2, 0.3, 0.4]
    resid = [0.5, 0.4]
    ts = (1.2, 1.1)
    qs = tuple(1.0 + 1.0 / t for t in ts)
    delta = 0.7
    got = chain_polygamy_bound(pairs, resid, ChainParams(ts, qs), delta, delta)
    assert got == pytest.approx(sum(v ** delta for v in pairs), abs=1e-14)


def test_symmetric_w_single_step_polygamy():
    # equal pairwise assisted values force t = 1 and q = 2; the upper
    # bound must still clear the exact split value
    from entbounds.measures import negativity_pure, screnoa
    from entbounds.states import reduce_pair, to_density, w_class_state

    c = 1 / np.sqrt(3)
    psi = w_class_state(c, c, c)
    rho = to_density(psi)
    lhs = negativity_pure(psi, (0,)) ** 2
    # the two assisted values agree up to rounding; order them so the
    # dominance check cannot trip on last-digit noise
    n_ab, n_ac = sorted((screnoa(reduce_pair(rho, 1)),
                         screnoa(reduce_pair(rho, 2))))
    beta, delta = 1.0, 0.8
    cp = ChainParams((1.0,), (2.0,))
    rhs = chain_polygamy_bound([n_ab, n_ac], [n_ac], cp, beta, delta)
    assert lhs == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert lhs ** beta <= rhs + 2e-3


def test_chain_step_error_names_step():
    pairs = [0.2, 0.3, 0.6]
    resid = [0.55, 0.6]
    cp = ChainParams((1.2, 5.0), (1.4, 1.1))  # step 2 dominance fails
    with pytest.raises(ChainStepError) as err:
        chain_monogamy_bound(pairs, resid, cp, 1.0, 2.0)
    assert err.value.step == 2


def test_chain_params_validation():
    with pytest.raises(BoundsError):
        ChainParams((1.0,), (1.5, 1.5))
    with pytest.raises(BoundsError):
        ChainParams((), ())
    with pytest.raises(BoundsError):
        ChainParams((1.0, 1.0), (1.5, 1.5), split_index=2)
    with pytest.raises(BoundsError):
        chain_monogamy_bound([0.1, 0.2], [0.2, 0.3],
                             ChainParams((1.0,), (1.5,)), 1.0, 2.0)


# -- reports ------------------------------------------------------------------

def test_bound_report_gap_consistency():
    rep = BoundReport("monogamy", 0.7, {"thm1": 0.6}, {"thm1": True},
                      {"thm1": 0.1})
    assert rep.as_dict()["gaps"]["thm1"] == pytest.approx(0.1)
    with pytest.raises(BoundsError):
        BoundReport("monogamy", 0.7, {"thm1": 0.6}, {"thm1": True},
                    {"thm1": 0.2})
