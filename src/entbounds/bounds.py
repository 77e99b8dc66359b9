"""Monogamy and polygamy bound families for bipartite correlation values.

The tightened two-term lower/upper bounds with the (t, q) window, the
three prior bound families they are compared against, the N-partite
chained forms, and a detailed admissibility checker.  All correlation
values (pairwise and residual) are supplied by the caller.

Each variant's hypotheses (_hypotheses, as flags) and right-hand side
(_rhs) are written once, for floats and numpy arrays alike.  The point
entries (validate_params, tightened_bound, prior_bound and bound_point)
raise PreconditionError naming the failed flags, and validate_params'
report formats each condition's detail only when it is read; bound_grid
ANDs the flags of one variant over a whole parameter grid and masks its
right-hand side.  Every power is Python's float **: through _pow at a
point, and on a grid through grid_pow, numpy's object-dtype ufunc loop,
which calls the same float ** per element, run in C.  So both give the
same bits.  The point entries own the errors: a grid takes every power at
every point and raises if any fails, and its caller (harness.sweep_rows)
then evaluates the points one at a time.

One engine serves both bound kinds.  `SIDES` holds what differs between
the monogamy and the polygamy side (exponent names and ranges, theorem
name, ref28's limits, gap sign); the thm1/thm4, prior_* and chain_* pairs
of names are bindings of one side each.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

GRACE = 1e-12  # relative grace band on admissibility comparisons


class BoundsError(ValueError):
    """Invalid argument domains for bound evaluation."""


class PreconditionError(BoundsError):
    """Hypotheses of a bound are not satisfied by the supplied values."""


class ChainStepError(PreconditionError):
    """A per-step hypothesis of a chained bound failed."""

    def __init__(self, step: int, message: str):
        super().__init__(f"chain step {step}: {message}")
        self.step = step


def _pow(base: float, exponent: float) -> float:
    """Power with the 0^0 = 1 and 0^x = 0 conventions used throughout the
    bounds; a result beyond the float range is a BoundsError."""
    if exponent == 0.0:
        return 1.0
    if base == 0.0:
        return 0.0
    try:
        return float(base ** exponent)
    except OverflowError:
        raise BoundsError(
            f"{base!r} ** {exponent!r} overflows the float range") from None


def grid_pow(base, exponent) -> np.ndarray:
    """_pow over broadcast numpy arrays, bit for bit where _pow returns.

    np.power rounds differently from the C library pow behind Python's
    float ** in the last bit for a few percent of inputs, so a grid must
    take its powers from float ** to match the scalar engine.  One np.power
    call on object arrays does that: numpy's object loop calls the same
    float ** per element, run in C.  _pow's 0^0 = 1 and 0^x = 0 conventions
    are masked around it, with a base of 1 at those points so that 0 ** -x
    cannot raise and -0.0 ** 3 cannot leak -0.0.  A power beyond the float
    range raises OverflowError, and a complex one TypeError.
    """
    b, e = np.broadcast_arrays(base, exponent)
    unit, zero = e == 0.0, b == 0.0
    safe_base = np.where(unit | zero, 1.0, b).astype(object)
    out = np.asarray(np.power(safe_base, e.astype(object)), dtype=float)
    return np.where(unit, 1.0, np.where(zero, 0.0, out))


@dataclass(frozen=True)
class BoundParams:
    """Exponent pair (num, den) and window (t, q) of one tightened bound:
    (alpha, gamma, t, q) on the monogamy side, (beta, delta, t, q) on the
    polygamy side.

    Admissible ranges are checked by validate_params, not at construction,
    so that report-only evaluation of bad parameters is possible.
    """

    num: float
    den: float
    t: float
    q: float

    def __post_init__(self):
        for name in ("num", "den", "t", "q"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise BoundsError(f"{name} must be finite, got {v}")


MonogamyParams = PolygamyParams = BoundParams


@dataclass(frozen=True)
class Side:
    """What differs between the monogamy and the polygamy bound families.

    Both apply one scalar lemma to an exponent pair (num, den): the
    monogamy side bounds Q^alpha from below with (alpha, gamma), the
    polygamy side bounds Q^beta from above with (beta, delta).
    """

    exponents: tuple[str, str]      # names of (num, den)
    theorem: str                    # variant name of the tightened bound
    lower: bool                     # True for a lower bound
    range_names: tuple[str, str]    # the den and the num range conditions
    range_ok: Callable[[float, float], tuple[bool, bool]]  # on (num, den),
                                    # floats or arrays alike
    ref28_p: tuple[float, float]    # interval ref28's p must lie in
    ref28_ratio: float              # ref28 also needs num <= ratio * den
    blank_num_below_den: bool       # sweep rows with num < den stay blank

    @property
    def condition_names(self) -> tuple[str, ...]:
        """Names of the five admissibility conditions, in report order."""
        return self.range_names + WINDOW_CONDITIONS

    def gap(self, lhs: float, rhs: float) -> float:
        """Slack of the bound rhs on lhs, nonnegative when it holds."""
        return lhs - rhs if self.lower else rhs - lhs


SIDES = {
    "monogamy": Side(
        exponents=("alpha", "gamma"), theorem="thm1", lower=True,
        range_names=("gamma_ge_2", "alpha_range"),
        range_ok=lambda alpha, gamma: (gamma >= 2.0,
                                       (0.0 <= alpha) & (alpha <= gamma)),
        ref28_p=(0.5, 1.0), ref28_ratio=0.5, blank_num_below_den=False),
    "polygamy": Side(
        exponents=("beta", "delta"), theorem="thm4", lower=False,
        range_names=("delta_range", "beta_ge_delta"),
        range_ok=lambda beta, delta: ((0.0 < delta) & (delta <= 1.0),
                                      beta >= delta),
        ref28_p=(0.0, 1.0), ref28_ratio=math.inf, blank_num_below_den=True),
}

PRIOR_VARIANTS = ("ref16", "ref28", "ref29")
WINDOW_CONDITIONS = ("t_ge_1", "dominance", "q_window")


def _side(kind: str) -> Side:
    try:
        return SIDES[kind]
    except KeyError:
        raise BoundsError(
            f"kind must be 'monogamy' or 'polygamy', got {kind!r}") from None


@dataclass(frozen=True)
class ChainParams:
    """Per-step (t_r, q_r) lists for the chained N-partite bounds.

    split_index m (1-based, 1 <= m <= N-3) selects the mixed
    forward/reversed form; None means every step is forward.
    """

    ts: tuple[float, ...]
    qs: tuple[float, ...]
    split_index: int | None = None

    def __post_init__(self):
        ts = tuple(float(t) for t in self.ts)
        qs = tuple(float(q) for q in self.qs)
        if len(ts) != len(qs):
            raise BoundsError("ts and qs must have equal length")
        if not ts:
            raise BoundsError("chain needs at least one step")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "qs", qs)
        if self.split_index is not None:
            n_steps = len(ts)
            if not 1 <= self.split_index <= n_steps - 1:
                raise BoundsError(
                    f"split_index {self.split_index} outside [1, {n_steps - 1}]")


@dataclass(frozen=True)
class Condition:
    name: str
    ok: bool
    detail: str


@dataclass
class AdmissibilityReport:
    """Admissibility flags of one point, in Side.condition_names order, and
    the correlation values they were evaluated at.  The Conditions and
    their details, with the powers and window edges they compare, are
    formatted the first time they are read.  Not frozen: a frozen
    dataclass's __init__ sets each field through object.__setattr__, and
    validate_params builds one report per call."""

    kind: str
    params: BoundParams
    oks: tuple[bool, ...]
    q_ab: float
    q_ac: float

    @property
    def vacuous(self) -> bool:
        """_hypotheses' vacuous rule for the theorem."""
        return (self.q_ab == 0.0 and self.q_ac == 0.0
                and self.params.den != 0.0)

    @property
    def ok(self) -> bool:
        return all(self.oks)

    @cached_property
    def conditions(self) -> tuple[Condition, ...]:
        side, p = SIDES[self.kind], self.params
        details = ("vacuous: both correlations zero",) * len(self.oks)
        if not self.vacuous:
            num_name, den_name = side.exponents
            ab, ac = _pow(self.q_ab, p.den), _pow(self.q_ac, p.den)
            _, lo, hi = _window_conditions(ab, ac, p.t, p.q)
            details = (
                f"{den_name} = {p.den}",
                f"{num_name} = {p.num}, {den_name} = {p.den}",
                f"t = {p.t}",
                f"Q_AC^{den_name} = {ac} vs t * Q_AB^{den_name} = {p.t * ab}",
                f"q = {p.q}, window [{lo}, {hi}]",
            )
        return tuple(map(Condition, side.condition_names, self.oks, details))

    def failed(self) -> list[str]:
        return [c.name for c in self.conditions if not c.ok]

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "vacuous": self.vacuous,
            "conditions": [
                {"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in self.conditions
            ],
        }


def lemma1_f(x: float, m: float, q: float) -> float:
    """(1 + x)^m - q^(m-1) x^m, the scalar function behind both bound
    families; elementwise on arrays."""
    if not np.all(x > 0):
        raise BoundsError(f"x must be positive, got {x}")
    if not np.all(q > 1):
        raise BoundsError(f"q must exceed 1, got {q}")
    if np.any(m < 0):
        raise BoundsError(f"exponent must be nonnegative, got {m}")
    return (1.0 + x) ** m - q ** (m - 1.0) * x ** m


def lemma1_check(x: float, t: float, q: float, exponent: float,
                 branch: str, slack: float = 1e-12) -> bool:
    """Evaluate one branch of the window inequality at a single point.

    branch "m" (exponent in [0, 1]) tests f(x) >= f(t); branch "n"
    (exponent >= 1) tests f(x) <= f(t).  Precondition violations raise
    PreconditionError; an inequality failure returns False.
    """
    if not (x >= t >= 1.0):
        raise PreconditionError(f"need x >= t >= 1, got x={x}, t={t}")
    lo, hi = 1.0 + 1.0 / x, 1.0 + 1.0 / t
    if not (lo * (1 - GRACE) <= q <= hi * (1 + GRACE)):
        raise PreconditionError(f"q={q} outside window [{lo}, {hi}]")
    if branch == "m":
        if not 0.0 <= exponent <= 1.0:
            raise PreconditionError(f"branch m needs exponent in [0,1], got {exponent}")
        return lemma1_f(x, exponent, q) >= lemma1_f(t, exponent, q) - slack
    if branch == "n":
        if exponent < 1.0:
            raise PreconditionError(f"branch n needs exponent >= 1, got {exponent}")
        return lemma1_f(x, exponent, q) <= lemma1_f(t, exponent, q) + slack
    raise BoundsError(f"branch must be 'm' or 'n', got {branch!r}")


def _window_conditions(ab, ac, t, q):
    """The (t, q) window hypotheses on the powered values ab = Q_AB^den and
    ac = Q_AC^den: t >= 1, dominance ac >= t ab, and q in
    [1 + ab/ac, 1 + 1/t].  Returns their flags and the window edges, as
    floats or as arrays."""
    if isinstance(ac, np.ndarray) or isinstance(t, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = 1.0 + np.where(ac > 0.0, ab / ac, 0.0)
            hi = 1.0 + np.where(t > 0.0, 1.0 / t, math.inf)
    else:  # one point: plain floats, the hot path of bound reports
        lo = 1.0 + ab / ac if ac > 0.0 else 1.0
        hi = 1.0 + (1.0 / t if t > 0 else math.inf)
    win_ok = (q > 1.0) & (lo * (1.0 - GRACE) <= q) & (q <= hi * (1.0 + GRACE))
    return (t >= 1.0, ac >= t * ab * (1.0 - GRACE), win_ok), lo, hi


def _lemma_coeff(t, q_power, e, pw=_pow):
    """(1 + t)^e - q^(e-1) t^e, the pair-term coefficient of the bounds,
    from q_power = q^(e-1)."""
    return pw(1.0 + t, e) - q_power * pw(t, e)


def _two_term_bound(q_ab: float, q_ac: float, exp_num, exp_den, t, q,
                    pw=_pow):
    e = exp_num / exp_den
    if q_ab == 0.0 and q_ac == 0.0:
        return 0.0
    q_power = pw(q, e - 1.0)
    if q_ab == 0.0:
        return q_power * pw(q_ac, exp_num)
    return (_lemma_coeff(t, q_power, e, pw) * pw(q_ab, exp_num)
            + q_power * pw(q_ac, exp_num))


def _hypotheses(side: Side, variant: str, q_ab: float, q_ac: float, num,
                den, t, q, k, p, a, pw=_pow) -> tuple:
    """The flags of one variant's hypotheses, in order: the side's exponent
    ranges, then the theorem's (t, q) window, or a prior's factor >= 1 (a
    for ref29, k otherwise), its dominance Q_AC^den >= factor Q_AB^den and
    ref28's limits on p and num/den.

    With both values zero the theorem holds vacuously wherever num/den
    exists, and a prior needs only the ranges.  Floats at a point with
    pw = _pow, arrays over a grid with pw = grid_pow."""
    oks = side.range_ok(num, den)
    if variant == side.theorem:
        window_oks, _, _ = _window_conditions(pw(q_ab, den), pw(q_ac, den),
                                              t, q)
        if q_ab == 0.0 and q_ac == 0.0:
            return tuple(ok | (den != 0.0) for ok in oks + window_oks)
        return oks + window_oks
    if q_ab == 0.0 and q_ac == 0.0:
        return oks
    factor = a if variant == "ref29" else k
    oks += (factor >= 1.0,
            pw(q_ac, den) >= factor * pw(q_ab, den) * (1.0 - GRACE))
    if variant != "ref28":
        return oks
    p_lo, p_hi = side.ref28_p
    return oks + ((p_lo <= p) & (p <= p_hi)
                  & (num <= den * side.ref28_ratio),)


def _rhs(side: Side, variant: str, q_ab: float, q_ac: float, num, den, t, q,
         k, p, a, pw=_pow):
    """One variant's right-hand side (see tightened_bound and prior_bound),
    as floats or arrays like _hypotheses."""
    if variant == side.theorem:
        return _two_term_bound(q_ab, q_ac, num, den, t, q, pw)
    if q_ab == 0.0 and q_ac == 0.0:
        return 0.0
    e = num / den
    if variant == "ref29":
        return (pw(1.0 + a, e - 1.0) * pw(q_ab, num)
                + pw(1.0 + 1.0 / a, e - 1.0) * pw(q_ac, num))
    if variant == "ref16":
        p = 1.0  # ref16 is ref28 at p = 1, free of ref28's limits
    coeff = (pw(1.0 + k, e) - pw(p, e)) / pw(k, e)
    return pw(p, e) * pw(q_ab, num) + coeff * pw(q_ac, num)


def _raise_failed(side: Side, variant: str, oks: tuple) -> None:
    """Raise PreconditionError naming the failed flags of _hypotheses.  A
    prior's names run to ref28's limits; zip stops at the flags it has."""
    names = side.condition_names
    if variant != side.theorem:
        factor = "a" if variant == "ref29" else "k"
        names = side.range_names + (f"{factor}_ge_1", "dominance",
                                    "ref28_limits")
    failed = [n for n, ok in zip(names, oks) if not ok]
    raise PreconditionError(f"inadmissible: {failed}")


def _theorem_side(kind: str, q_ab: float, q_ac: float,
                  params: BoundParams) -> Side:
    """The side of one tightened-bound evaluation, its arguments checked."""
    if q_ab < 0 or q_ac < 0:
        raise BoundsError("correlation values must be nonnegative")
    side = _side(kind)
    if not isinstance(params, BoundParams):
        raise BoundsError(f"{kind} kind requires BoundParams")
    return side


def validate_params(kind: str, q_ab: float, q_ac: float,
                    params: BoundParams) -> AdmissibilityReport:
    """Per-condition admissibility report for a bound evaluation.

    kind is "monogamy" or "polygamy".  Both correlation values zero makes
    every condition pass vacuously (the bound is trivially zero), unless
    the exponent ratio num/den is undefined.
    """
    side, p = _theorem_side(kind, q_ab, q_ac, params), params
    oks = _hypotheses(side, side.theorem, q_ab, q_ac, p.num, p.den, p.t,
                      p.q, None, None, None)
    return AdmissibilityReport(kind, p, oks, q_ab, q_ac)


def tightened_bound(kind: str, q_ab: float, q_ac: float,
                    p: BoundParams) -> float:
    """Tightened two-term bound of one side, with e = num/den:
    ((1+t)^e - q^(e-1) t^e) Q_AB^num + q^(e-1) Q_AC^num.

    A lower bound on Q_A|BC^alpha for monogamy, an upper bound on
    Q_A|BC^beta for polygamy.  Raises PreconditionError wherever
    validate_params reports a failed condition.
    """
    side = _theorem_side(kind, q_ab, q_ac, p)
    oks = _hypotheses(side, side.theorem, q_ab, q_ac, p.num, p.den, p.t, p.q,
                      None, None, None)
    if not all(oks):
        _raise_failed(side, side.theorem, oks)
    return _two_term_bound(q_ab, q_ac, p.num, p.den, p.t, p.q)  # its _rhs


def thm1_lower_bound(q_ab: float, q_ac: float, p: BoundParams) -> float:
    """Tightened monogamy lower bound, p = (alpha, gamma, t, q)."""
    return tightened_bound("monogamy", q_ab, q_ac, p)


def thm4_upper_bound(q_ab: float, q_ac: float, p: BoundParams) -> float:
    """Tightened polygamy upper bound, p = (beta, delta, t, q)."""
    return tightened_bound("polygamy", q_ab, q_ac, p)


def prior_bound(kind: str, variant: str, q_ab: float, q_ac: float,
                num: float, den: float, k: float | None = None,
                p: float | None = None, a: float | None = None) -> float:
    """Earlier bound families of one side used for tightness comparisons.

    With e = num/den:
    ref16: Q_AB^num + ((1+k)^e - 1)/k^e Q_AC^num
    ref28: p^e Q_AB^num + ((1+k)^e - p^e)/k^e Q_AC^num, with
           1/2 <= p <= 1 and alpha <= gamma/2 (monogamy) or 0 <= p <= 1
           (polygamy)
    ref29: (1+a)^(e-1) Q_AB^num + (1 + 1/a)^(e-1) Q_AC^num
    Each needs its factor k or a >= 1 and Q_AC^den >= factor Q_AB^den,
    unless both values are zero (the bound is then zero).  Raises
    PreconditionError naming every failed hypothesis.
    """
    side = _side(kind)
    if q_ab < 0 or q_ac < 0:
        raise BoundsError("correlation values must be nonnegative")
    if variant not in PRIOR_VARIANTS:
        raise BoundsError(f"unknown {kind} variant {variant!r}")
    if ((a if variant == "ref29" else k) is None
            or p is None and variant == "ref28") and (q_ab or q_ac):
        raise BoundsError("ref16 requires k, ref28 k and p, ref29 a")
    oks = _hypotheses(side, variant, q_ab, q_ac, num, den, None, None, k, p, a)
    if not all(oks):
        _raise_failed(side, variant, oks)
    return _rhs(side, variant, q_ab, q_ac, num, den, None, None, k, p, a)


def prior_monogamy_bound(variant: str, q_ab: float, q_ac: float, *,
                         alpha: float, gamma: float, k: float | None = None,
                         p: float | None = None, a: float | None = None) -> float:
    """Earlier lower-bound families; see prior_bound."""
    return prior_bound("monogamy", variant, q_ab, q_ac, alpha, gamma, k, p, a)


def prior_polygamy_bound(variant: str, q_ab: float, q_ac: float, *,
                         beta: float, delta: float, k: float | None = None,
                         p: float | None = None, a: float | None = None) -> float:
    """Earlier upper-bound families; see prior_bound."""
    return prior_bound("polygamy", variant, q_ab, q_ac, beta, delta, k, p, a)


def bound_point(kind: str, variant: str, q_ab: float, q_ac: float, num: float,
                den: float, t: float, q: float, k: float, p: float,
                a: float) -> tuple[float, bool]:
    """bound_grid at one point, from tightened_bound with
    BoundParams(num, den, t, q) or prior_bound with k, p and a: (rhs, ok),
    with rhs nan where a hypothesis fails."""
    try:
        if variant == _side(kind).theorem:
            rhs = tightened_bound(kind, q_ab, q_ac, BoundParams(num, den, t, q))
        else:
            rhs = prior_bound(kind, variant, q_ab, q_ac, num, den, k, p, a)
    except PreconditionError:
        return math.nan, False
    return rhs, True


def bound_grid(kind: str, variant: str, q_ab: float, q_ac: float, num, den,
               t, q, k, p, a) -> tuple[np.ndarray, np.ndarray]:
    """bound_point over a grid: num, den, t, q, k, p and a are floats or
    arrays that broadcast together.

    Returns (rhs, ok): ok is where the point entries evaluate, and rhs is
    nan elsewhere.  Every power is taken at every point, so the grid
    raises (BoundsError, OverflowError or TypeError) wherever the point
    entries raise something other than PreconditionError, and may raise
    where they do not.
    """
    side = _side(kind)
    if variant != side.theorem and variant not in PRIOR_VARIANTS:
        raise BoundsError(f"unknown {kind} variant {variant!r}")
    if q_ab < 0 or q_ac < 0:
        raise BoundsError("correlation values must be nonnegative")
    values = [np.asarray(v, dtype=float) for v in (num, den, t, q, k, p, a)]
    if variant == side.theorem and not all(np.isfinite(v).all()
                                           for v in values[:4]):
        raise BoundsError("num, den, t and q must be finite")
    args = (side, variant, q_ab, q_ac, *values, grid_pow)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ok = reduce(operator.and_, _hypotheses(*args))
        return np.where(ok, _rhs(*args), math.nan), ok


def chain_bound(kind: str, q_pairs, q_residuals, cp: ChainParams,
                num: float, den: float) -> float:
    """N-partite chained bound of one side.

    q_pairs lists Q(A, B_1) ... Q(A, B_{N-1}); q_residuals lists the
    trailing-block values Q(A | B_2...B_{N-1}), ..., Q(A | B_{N-1}) used in
    the per-step hypotheses (the last residual equals the last pair).  With
    split_index m, steps 1..m treat the residual as dominant and the
    remaining steps the pair, mirroring the two-regime chained form.
    """
    side = _side(kind)
    range_oks = side.range_ok(num, den)
    if not all(range_oks):
        _raise_failed(side, side.theorem, range_oks)
    n_steps = len(cp.ts)
    if len(q_pairs) != n_steps + 1:
        raise BoundsError(
            f"{n_steps} steps require {n_steps + 1} pair values, got {len(q_pairs)}")
    if len(q_residuals) != n_steps:
        raise BoundsError(
            f"{n_steps} steps require {n_steps} residual values, got {len(q_residuals)}")
    if any(v < 0 for v in q_pairs) or any(v < 0 for v in q_residuals):
        raise BoundsError("correlation values must be nonnegative")
    if all(v == 0.0 for v in q_pairs):
        return 0.0
    e = num / den
    m = cp.split_index
    total = 0.0
    prefix = 1.0
    for r in range(n_steps):
        t_r, q_r = cp.ts[r], cp.qs[r]
        pair, resid = q_pairs[r], q_residuals[r]
        # forward: the residual block dominates the pair; reversed: the
        # pair dominates the residual
        forward = m is None or r < m
        small, large = (pair, resid) if forward else (resid, pair)
        sp, lp = _pow(small, den), _pow(large, den)
        (t_ok, dom_ok, win_ok), lo, hi = _window_conditions(sp, lp, t_r, q_r)
        if not (t_ok and dom_ok and (win_ok or sp == lp == 0.0)):
            raise ChainStepError(
                r + 1, f"need t >= 1, {lp} >= t * {sp} and q in [{lo}, {hi}]; "
                       f"got t = {t_r}, q = {q_r}")
        q_power = _pow(q_r, e - 1.0)
        if forward:
            # pair term carries the lemma coefficient, residual the q power
            if pair > 0.0:
                total += (prefix * _lemma_coeff(t_r, q_power, e)
                          * _pow(pair, num))
            prefix *= q_power
        else:
            if pair > 0.0:
                total += prefix * q_power * _pow(pair, num)
            prefix *= _lemma_coeff(t_r, q_power, e)
        if resid == 0.0:
            return total
    last = q_pairs[-1]
    if last > 0.0:
        total += prefix * _pow(last, num)
    return total


def chain_monogamy_bound(q_pairs, q_residuals, cp: ChainParams,
                         alpha: float, gamma: float) -> float:
    """N-partite chained lower bound; see chain_bound."""
    return chain_bound("monogamy", q_pairs, q_residuals, cp, alpha, gamma)


def chain_polygamy_bound(q_pairs, q_residuals, cp: ChainParams,
                         beta: float, delta: float) -> float:
    """N-partite chained upper bound; see chain_bound."""
    return chain_bound("polygamy", q_pairs, q_residuals, cp, beta, delta)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated LHS and per-variant RHS values with admissibility flags.

    Gap convention (Side.gap): lhs - rhs for monogamy (slack of a lower
    bound), rhs - lhs for polygamy (slack of an upper bound).
    """

    kind: str
    lhs: float
    variant_rhs: dict = field(default_factory=dict)
    preconditions_ok: dict = field(default_factory=dict)
    gaps: dict = field(default_factory=dict)

    def __post_init__(self):
        gap = _side(self.kind).gap if self.gaps else None
        for name, rhs in self.variant_rhs.items():
            if name in self.gaps and math.isfinite(rhs):
                if abs(self.gaps[name] - gap(self.lhs, rhs)) > 1e-12:
                    raise BoundsError(f"inconsistent gap for {name}")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lhs": self.lhs,
            "variant_rhs": dict(self.variant_rhs),
            "preconditions_ok": dict(self.preconditions_ok),
            "gaps": dict(self.gaps),
        }
