"""Command-line orchestration: measure evaluation, bound reports, figure
data, randomized verification suites, and parameter sweeps.

Subcommands: measure, bound, figure, verify, sweep.  All randomized audits
are seeded and write the seed into their output header; CSV and JSON
outputs are byte-deterministic for a fixed command line.

Exit codes: 0 pass, 1 suite violation, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from . import measures as msr
from . import states as st
from .linalg import DensityMatrix, LinalgError, partial_trace
from .measures import RoofConfig
from .states import PureState

SQ6 = float(np.sqrt(6.0))

# Example data behind the figure jobs: the five-amplitude three-qubit
# state with l0 = l3 = 1/2, l1 = l2 = l4 = sqrt(6)/6 (concurrence data,
# measured from the state through the same path the sweep command uses)
# and the W-class state (1/2, 1/2, sqrt(2)/2), whose assisted-negativity
# squares are the exact values 3/4, 1/4, 1/2.
FIG_MONO_BUILDER = (f"schmidt:0.5,{SQ6 / 6.0!r},{SQ6 / 6.0!r},0.5,"
                    f"{SQ6 / 6.0!r}")
FIG_MONO_T = SQ6 / 2.0
FIG_POLY = {"q_ab": 0.25, "q_ac": 0.5, "lhs_base": 0.75, "t": 2.0 ** 0.6}


class UsageError(ValueError):
    """Bad command-line arguments or malformed input files."""


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def parse_split(text: str, n_qubits: int) -> tuple[int, ...]:
    """Parse a bipartition like "A|BC" or "0|12" into first-block indices."""
    parts = text.split("|")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise UsageError(f"split must look like 'A|BC' or '0|12', got {text!r}")

    def block(chars: str) -> list[int]:
        out = []
        for c in chars:
            if c.isdigit():
                out.append(int(c))
            elif c.isalpha():
                out.append(ord(c.upper()) - ord("A"))
            else:
                raise UsageError(f"bad split character {c!r}")
        return out

    first, second = block(parts[0]), block(parts[1])
    both = sorted(first + second)
    if both != list(range(n_qubits)):
        raise UsageError(
            f"split {text!r} must partition all {n_qubits} qubits exactly once")
    return tuple(first)


def build_state(spec: str) -> PureState:
    """Builder strings: schmidt:l0,l1,l2,l3,l4[,phase] or wclass:c1,c2,c3."""
    kind, _, rest = spec.partition(":")
    try:
        vals = [float(v) for v in rest.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"bad builder values in {spec!r}: {exc}") from exc
    if kind == "schmidt":
        if len(vals) == 5:
            vals.append(0.0)
        if len(vals) != 6:
            raise UsageError("schmidt builder needs 5 amplitudes plus optional phase")
        return st.generalized_schmidt_state(
            st.SchmidtParams(tuple(vals[:5]), vals[5]))
    if kind == "wclass":
        if len(vals) != 3:
            raise UsageError("wclass builder needs exactly 3 coefficients")
        return st.w_class_state(*vals)
    raise UsageError(f"unknown builder {kind!r} (want schmidt: or wclass:)")


def load_input_state(args) -> PureState | DensityMatrix:
    if getattr(args, "state", None):
        obj = st.load_state(args.state)
    elif getattr(args, "builder", None):
        obj = build_state(args.builder)
    else:
        raise UsageError("provide --state <path> or --builder <spec>")
    keep = getattr(args, "keep", None)
    if keep:
        try:
            idx = tuple(int(i) for i in keep.split(","))
        except ValueError:
            raise UsageError(f"--keep must be comma-separated subsystem "
                             f"indices, got {keep!r}") from None
        rho = st.to_density(obj) if isinstance(obj, PureState) else obj
        obj = partial_trace(rho, idx)
    return obj


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def _write_text(text: str, out: str | None) -> None:
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

# the exact two-qubit closed forms behind measure's mixed-state names; a
# pure input is measured as its projector
CLOSED_FORMS = {"scren": msr.scren, "screnoa": msr.screnoa, "cren": msr.cren,
                "crenoa": msr.crenoa, "wootters": msr.concurrence_wootters}


def cmd_measure(args) -> tuple[str, int]:
    obj = load_input_state(args)
    pure = isinstance(obj, PureState)
    dims = obj.dims if pure else obj.sig.dims
    split = parse_split(args.split, len(dims)) if args.split else (0,)
    name = args.measure
    record = {"measure": name, "seed": args.seed, "generator": st.RNG_NAME,
              "split": list(split)}
    if name in CLOSED_FORMS:
        if dims != (2, 2):
            raise UsageError(f"{name} needs a two-qubit state, got {dims}")
        value = CLOSED_FORMS[name](st.to_density(obj) if pure else obj)
    elif name == "negativity":
        value = (msr.negativity_pure if pure else msr.negativity_mixed)(obj, split)
    elif pure:
        value = msr.concurrence_pure(obj, split)
    elif dims == (2, 2):
        value = msr.concurrence_wootters(obj)
    else:
        cfg = RoofConfig(restarts=args.roof_restarts, seed=args.seed)
        res = msr.convex_roof(obj, msr.concurrence_functional(split), "min", cfg)
        value = res.value
        record["optimizer"] = {
            "restarts_used": res.restarts_used,
            "converged": res.converged,
            "bound_side": "upper",  # a minimizing roof's value
            "ensemble_size": len(res.ensemble.members),
        }
    record["value"] = float(value)
    return _json_line(record), 0


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def _measured_inputs(obj, kind: str):
    """LHS and pairwise correlation values for a pure three-qubit state.

    Monogamy uses concurrence, polygamy uses SCRENoA, both exact closed
    forms on the pair marginals; mixed total states are rejected because
    their bipartite LHS would need a roof value that is only one-sided."""
    if not isinstance(obj, PureState):
        raise UsageError("bound evaluation needs a pure total state")
    if obj.n_qubits != 3:
        raise UsageError("bound evaluation handles three-qubit states; "
                         "use the chain verify suite for larger registers")
    rho = st.to_density(obj)
    pair_b = st.reduce_pair(rho, 1)
    pair_c = st.reduce_pair(rho, 2)
    if kind == "monogamy":
        lhs_base = msr.concurrence_pure(obj, (0,))
        q_ab = msr.concurrence_wootters(pair_b)
        q_ac = msr.concurrence_wootters(pair_c)
    else:
        lhs_base = msr.negativity_pure(obj, (0,)) ** 2
        q_ab = msr.screnoa(pair_b)
        q_ac = msr.screnoa(pair_c)
    return lhs_base, q_ab, q_ac


def _resolve_q(qspec, t, q_ab: float, q_ac: float, power, pw=bnd._pow):
    """q may be numeric, 'edge' (data-dependent lower edge) or 'top'; on a
    grid also an array of values, with t and power arrays as well."""
    if isinstance(qspec, np.ndarray):
        return qspec
    if qspec == "edge":
        if q_ac <= 0:
            raise UsageError("edge q undefined when the dominant value is 0")
        return 1.0 + pw(q_ab / q_ac, power)
    if qspec == "top":
        # a grid raises this if any of its t is 0
        if (np.asarray(t) == 0).any():
            raise UsageError("top q = 1 + 1/t is undefined at t = 0")
        return 1.0 + 1.0 / t
    return float(qspec)


# the words a window parameter takes in place of a number
WINDOW_WORDS = {"t": ("sqrt",), "q": ("edge", "top")}


def _window_value(name: str, text: str):
    """A command-line value of parameter name: one of its WINDOW_WORDS,
    or a number."""
    words = WINDOW_WORDS.get(name, ())
    if text in words:
        return text
    try:
        return float(text)
    except ValueError:
        want = " or ".join(("a number",) + tuple(repr(w) for w in words))
        raise UsageError(f"{name} must be {want}, got {text!r}") from None


def _resolve_t(tspec, q_ab: float, q_ac: float, power, pw=bnd._pow):
    """t may be numeric or 'sqrt': the square root of (Q_AC/Q_AB)^power,
    floored at 1; on a grid also an array of values."""
    if isinstance(tspec, np.ndarray):
        return tspec
    if tspec != "sqrt":
        return float(tspec)
    if q_ab <= 0 or q_ac <= 0:
        return 1.0
    x = pw(q_ac / q_ab, power)
    if isinstance(x, np.ndarray):
        return np.sqrt(np.fmax(x, 1.0))  # 1 where x < 1 or x is nan
    return float(np.sqrt(x)) if x >= 1.0 else 1.0


# the parameters of the bound window and of the prior variants
WINDOW_PARAMS = ("t", "q", "k", "p", "a")


def _check_finite(params: dict) -> None:
    """A non-finite number among params is a usage error, named as the user
    gave it; a window word or an unset parameter is not a number."""
    for name, value in params.items():
        if value is not None and not isinstance(value, str) \
                and not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value}")


def _prior_args(side: bnd.Side, variant: str, t, k, p, a) -> tuple:
    """(k, p, a) for one bound variant, defaulting to k = t, p = 1 and
    a = t; the side's theorem ignores them.  An unknown variant name is a
    UsageError."""
    if variant != side.theorem and variant not in bnd.PRIOR_VARIANTS:
        raise UsageError(f"unknown bound variant {variant!r}")
    return (t if k is None else k, 1.0 if p is None else p,
            t if a is None else a)


def evaluate_bound_report(kind: str, lhs_base: float, q_ab: float, q_ac: float,
                          *, variants, alpha=None, gamma=None, beta=None,
                          delta=None, t="sqrt", q="edge", k=None, p=None,
                          a=None) -> bnd.BoundReport:
    """Build a BoundReport for the requested variants at one parameter point."""
    side = bnd.SIDES.get(kind)
    if side is None:
        raise UsageError(f"kind must be monogamy or polygamy, got {kind!r}")
    given = {"alpha": alpha, "gamma": gamma, "beta": beta, "delta": delta}
    num_name, den_name = side.exponents
    exp_num, exp_den = float(given[num_name]), float(given[den_name])
    _check_finite({num_name: exp_num, den_name: exp_den,
                   "t": t, "q": q, "k": k, "p": p, "a": a})
    t_val = _resolve_t(t, q_ab, q_ac, exp_den)
    q_val = _resolve_q(q, t_val, q_ab, q_ac, exp_den)
    lhs = bnd._pow(lhs_base, exp_num)

    variant_rhs: dict = {}
    pre_ok: dict = {}
    gaps: dict = {}
    for v in variants:
        rhs, pre_ok[v] = bnd.bound_point(
            kind, v, q_ab, q_ac, exp_num, exp_den, t_val, q_val,
            *_prior_args(side, v, t_val, k, p, a))
        variant_rhs[v] = float(rhs)
        if pre_ok[v]:
            gaps[v] = side.gap(lhs, rhs)
    return bnd.BoundReport(kind, lhs, variant_rhs, pre_ok, gaps)


# tightened theorem and prior family compared by default, per bound kind
DEFAULT_VARIANTS = {kind: f"{side.theorem},ref29"
                    for kind, side in bnd.SIDES.items()}


def _parse_variants(args) -> list:
    text = (args.variants if args.variants is not None
            else DEFAULT_VARIANTS[args.kind])
    variants = [v.strip() for v in text.split(",") if v.strip()]
    if not variants:
        raise UsageError(f"--variants names no variant, got {text!r}")
    if len(set(variants)) < len(variants):
        raise UsageError(f"--variants names a variant twice, got {text!r}")
    return variants


def cmd_bound(args) -> tuple[str, int]:
    num_name, den_name = bnd.SIDES[args.kind].exponents
    if getattr(args, num_name) is None or getattr(args, den_name) is None:
        raise UsageError(
            f"{args.kind} bounds need --{num_name} and --{den_name}")
    obj = load_input_state(args)
    lhs_base, q_ab, q_ac = _measured_inputs(obj, args.kind)
    variants = _parse_variants(args)
    report = evaluate_bound_report(
        args.kind, lhs_base, q_ab, q_ac, variants=variants,
        alpha=args.alpha, gamma=args.gamma, beta=args.beta, delta=args.delta,
        t=_window_value("t", args.t), q=_window_value("q", args.q),
        k=args.k, p=args.p, a=args.a)
    out = report.as_dict()
    out.update({
        "q_ab": q_ab, "q_ac": q_ac, "lhs_base": lhs_base,
        "seed": args.seed, "generator": st.RNG_NAME,
    })
    return _json_line(out), 0


# ---------------------------------------------------------------------------
# sweep and figures
# ---------------------------------------------------------------------------

AXIS_NAMES = ("alpha", "gamma", "beta", "delta", "t", "q")


@dataclass
class SweepSpec:
    """Up to two axes over exponent or window parameters, fixed values for
    the rest, and the bound variants to evaluate per grid point."""

    kind: str
    axes: list = field(default_factory=list)      # (name, start, stop, steps)
    fixed: dict = field(default_factory=dict)
    variants: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in bnd.SIDES:
            raise UsageError(f"bad sweep kind {self.kind!r}")
        if not 1 <= len(self.axes) <= 2:
            raise UsageError("sweep needs one or two axes")
        seen = set()
        for name, start, stop, steps in self.axes:
            if name not in AXIS_NAMES:
                raise UsageError(f"unknown axis {name!r}")
            if name in seen:
                raise UsageError(f"axis {name} given twice")
            if name in self.fixed:
                raise UsageError(f"{name} is both an axis and fixed")
            seen.add(name)
            if steps < 2:
                raise UsageError(f"axis {name}: steps must be >= 2")
            # a span beyond the float range puts nan and inf on the axis
            if not math.isfinite(stop - start):
                raise UsageError(f"axis {name}: non-finite range")
        if not self.variants:
            raise UsageError("sweep needs at least one variant")
        checked = bnd.SIDES[self.kind].exponents + WINDOW_PARAMS
        _check_finite({name: value for name, value in self.fixed.items()
                       if name in checked})


def sweep_rows(spec: SweepSpec, lhs_base: float, q_ab: float, q_ac: float,
               seed: int):
    """Grid-evaluate the requested variants; returns (header_lines, rows).

    The grid is one array pass through bnd.bound_grid.  Where it raises
    (an overflowing or complex power, an unknown variant, q top at t = 0,
    ...), the points that are not blank are evaluated one at a time with
    evaluate_bound_report, so the same exception surfaces at the same
    point, or none if the grid raised only where the scalar engine never
    evaluates.
    """
    axis_vals = [(name, np.linspace(start, stop, steps))
                 for name, start, stop, steps in spec.axes]
    grid_desc = "x".join(
        f"{name}[{float(a[0])!r},{float(a[-1])!r},{len(a)}]"
        for name, a in axis_vals)
    side = bnd.SIDES[spec.kind]
    exp_names = num_name, den_name = side.exponents
    axis_names = [name for name, _ in axis_vals]
    # both exponent columns always appear, then any window-parameter axes
    value_cols = list(exp_names) + [n for n in axis_names if n not in exp_names]
    columns = value_cols + ["lhs"] + [f"rhs_{v}" for v in spec.variants] + [
        "gap", "admissible"]
    header = [f"# seed={seed} grid={grid_desc}", ",".join(columns)]

    # one array dimension per axis: a column of values, or rows x columns
    shape = tuple(len(a) for _, a in axis_vals)
    values = dict(spec.fixed)
    for i, (name, a) in enumerate(axis_vals):
        values[name] = a.reshape([-1 if j == i else 1 for j in range(len(shape))])
    num, den = values[num_name], values[den_name]
    blank = np.zeros(shape, dtype=bool)
    if side.blank_num_below_den:
        blank = np.broadcast_to(np.less(num, den), shape)
    try:
        lhs, rhs, admissible = _grid_report(spec, side, lhs_base, q_ab, q_ac,
                                            values)
    except (UsageError, bnd.BoundsError, OverflowError, TypeError):
        lhs, rhs, admissible = _point_report(spec, side, lhs_base, q_ab, q_ac,
                                             axis_vals, blank)
    lhs = np.where(blank, np.nan, lhs)
    rhs = [np.where(blank, np.nan, r) for r in rhs]
    admissible = ~blank & admissible
    if side.theorem in spec.variants and "ref29" in spec.variants:
        gap = side.gap(rhs[spec.variants.index(side.theorem)],
                       rhs[spec.variants.index("ref29")])
        gap = np.where(admissible, gap, np.nan)
    else:
        gap = np.full(shape, np.nan)
    lead = [np.broadcast_to(values.get(c, np.nan), shape) for c in value_cols]
    table = np.stack(lead + [lhs] + rhs + [gap], axis=-1)
    return header, [row + [adm] for row, adm in
                    zip(table.reshape(-1, table.shape[-1]).tolist(),
                        admissible.ravel().tolist())]


def _grid_report(spec: SweepSpec, side: bnd.Side, lhs_base: float,
                 q_ab: float, q_ac: float, values: dict):
    """evaluate_bound_report over broadcast grid values: (lhs, per-variant
    rhs, admissible).  Raises wherever the scalar engine raises at some
    point, and may raise where it does not (a power that overflows only
    where the window fails)."""
    num_name, den_name = side.exponents
    num = np.asarray(values[num_name], dtype=float)
    den = np.asarray(values[den_name], dtype=float)
    t = _resolve_t(values.get("t", "sqrt"), q_ab, q_ac, den, bnd.grid_pow)
    with np.errstate(over="ignore"):  # 1 / t is inf at a subnormal t
        q = _resolve_q(values.get("q", "edge"), t, q_ab, q_ac, den,
                       bnd.grid_pow)
    rhs, admissible = [], np.bool_(True)
    for v in spec.variants:
        prior_args = _prior_args(side, v, t, values.get("k"), values.get("p"),
                                 values.get("a"))
        r, ok = bnd.bound_grid(spec.kind, v, q_ab, q_ac, num, den, t, q,
                               *prior_args)
        rhs.append(r)
        admissible = admissible & ok
    return bnd.grid_pow(lhs_base, num), rhs, admissible


def _point_report(spec: SweepSpec, side: bnd.Side, lhs_base: float,
                  q_ab: float, q_ac: float, axis_vals: list, blank):
    """_grid_report from one evaluate_bound_report per point that is not
    blank, in row order; nan and not admissible where blank."""
    lhs = np.full(blank.shape, np.nan)
    rhs = [np.full(blank.shape, np.nan) for _ in spec.variants]
    admissible = np.zeros(blank.shape, dtype=bool)
    num_name, den_name = side.exponents
    for idx in zip(*np.nonzero(~blank)):
        point = dict(spec.fixed)
        for (name, a), i in zip(axis_vals, idx):
            point[name] = float(a[i])
        report = evaluate_bound_report(
            spec.kind, lhs_base, q_ab, q_ac, variants=spec.variants,
            t=point.get("t", "sqrt"), q=point.get("q", "edge"),
            k=point.get("k"), p=point.get("p"), a=point.get("a"),
            **{num_name: point[num_name], den_name: point[den_name]})
        lhs[idx] = report.lhs
        for r, v in zip(rhs, spec.variants):
            r[idx] = report.variant_rhs[v]
        admissible[idx] = all(report.preconditions_ok.values())
    return lhs, rhs, admissible


def rows_to_csv(header, rows) -> str:
    """CSV text of sweep_rows output: float cells as their shortest
    round-trip repr, then the admissible flag as 1 or 0.

    The rows are read by column: a column with few distinct values (a grid
    axis, or the lhs that depends on one axis) formats each value once."""
    if not rows:
        return "\n".join(header) + "\n"
    *columns, flags = zip(*rows)
    cells = [_column_reprs(c) for c in columns]
    cells.append(map(("0", "1").__getitem__, map(bool, flags)))
    return "\n".join([*header, *map(",".join, zip(*cells))]) + "\n"


def _column_reprs(column):
    """The reprs of one column of float cells, lazily.  When at most half
    the cells are distinct, each distinct value is formatted once and looked
    up.  0.0 and -0.0 are one dict key with two reprs, so a column holding
    both formats every cell.  A nan equals nothing, so each nan cell is its
    own key, found again by identity."""
    memo = dict.fromkeys(column)
    if 2 * len(memo) > len(column) or (
            0.0 in memo
            and len({math.copysign(1.0, v) for v in column if v == 0.0}) > 1):
        return map(repr, column)
    for v in memo:
        memo[v] = repr(v)
    return map(memo.__getitem__, column)


FIGURE_SPECS = {
    1: ("monogamy", [("alpha", 0.0, 2.0, None), ("gamma", 2.0, 20.0, None)]),
    2: ("monogamy", [("alpha", 0.0, 2.0, None)]),
    3: ("monogamy", [("alpha", 0.0, 2.0, None), ("gamma", 2.0, 20.0, None)]),
    4: ("polygamy", [("delta", 0.6, 1.0, None), ("beta", 0.6, 3.0, None)]),
    5: ("polygamy", [("beta", 0.6, 3.0, None)]),
    6: ("polygamy", [("delta", 0.6, 1.0, None), ("beta", 0.6, 3.0, None)]),
}


def figure_spec(fig_id: int, resolution: int = 101) -> tuple[SweepSpec, dict]:
    """Sweep specification and example data behind one figure id.

    Figures 1-3 plot the tightened and prior lower bounds on the
    generalized-Schmidt example (figure 2 is the gamma = 20 slice); figures
    4-6 mirror this for the W-class SCRENoA example (figure 5 is the
    delta = 0.8 slice).  Both use the data-edge q choice.
    """
    if fig_id not in FIGURE_SPECS:
        raise UsageError(f"figure id must be 1..6, got {fig_id}")
    if resolution < 2:
        raise UsageError("resolution must be >= 2")
    kind, axes = FIGURE_SPECS[fig_id]
    axes = [(n, a, b, resolution) for n, a, b, _ in axes]
    if kind == "monogamy":
        lhs_base, q_ab, q_ac = _measured_inputs(
            build_state(FIG_MONO_BUILDER), "monogamy")
        data = {"q_ab": q_ab, "q_ac": q_ac, "lhs_base": lhs_base,
                "t": FIG_MONO_T}
    else:
        data = dict(FIG_POLY)
    fixed = {"t": data["t"], "q": "edge"}
    if fig_id == 2:
        fixed["gamma"] = 20.0
    if fig_id == 5:
        fixed["delta"] = 0.8
    spec = SweepSpec(kind, axes, fixed, DEFAULT_VARIANTS[kind].split(","))
    return spec, data


def cmd_figure(args) -> tuple[str, int]:
    spec, data = figure_spec(args.id, args.resolution)
    header, rows = sweep_rows(spec, data["lhs_base"], data["q_ab"],
                              data["q_ac"], args.seed)
    return rows_to_csv(header, rows), 0


def cmd_sweep(args) -> tuple[str, int]:
    obj = load_input_state(args)
    axes = []
    for ax in args.axis:
        try:
            name, start, stop, steps = ax.split(":")
            axes.append((name, float(start), float(stop), int(steps)))
        except ValueError as exc:
            raise UsageError(f"bad axis {ax!r}, want name:start:stop:steps") from exc
    fixed = {}
    for fx in args.fix or []:
        name, _, val = fx.partition("=")
        if name not in AXIS_NAMES + WINDOW_PARAMS:
            raise UsageError(f"cannot fix unknown parameter {name!r}")
        value = _window_value(name, val)
        if name in fixed:
            raise UsageError(f"--fix {name} given twice")
        fixed[name] = value
    spec = SweepSpec(args.kind, axes, fixed, _parse_variants(args))
    missing = [n for n in bnd.SIDES[args.kind].exponents
               if n not in fixed and n not in [a[0] for a in axes]]
    if missing:
        raise UsageError(f"missing exponent parameters: {missing}")
    lhs_base, q_ab, q_ac = _measured_inputs(obj, args.kind)
    header, rows = sweep_rows(spec, lhs_base, q_ab, q_ac, args.seed)
    return rows_to_csv(header, rows), 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _trials(seed: int, trials: int):
    """(i, child, rng) for each trial i of a randomized suite.

    Trial i draws from its own PCG64 stream, seeded by child, the i-th of
    SeedSequence(seed).spawn(trials), so its draws do not depend on how
    many the trials before it made.  A suite that runs a convex roof seeds
    it from child.generate_state(1)[0]."""
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        yield i, child, np.random.Generator(np.random.PCG64(child))


def _suite_report(suite: str, seed: int, trials: int, violations: list,
                  **fields) -> dict:
    """A suite's report: the keys every randomized suite shares (suite,
    seed, trials, the number of violations, the first five of them as
    counterexamples, and ok when there are none) plus its own fields."""
    return {"suite": suite, "seed": seed, "trials": trials,
            "violations": len(violations), "counterexamples": violations[:5],
            "ok": not violations, **fields}


def verify_lemma1(trials: int, seed: int) -> dict:
    """Fuzz both branches of the window inequality on admissible tuples.

    Samples x >= t >= 1 up to 50, q uniform in [1 + 1/x, 1 + 1/t],
    exponents m in [0, 1] and n in [1, 10]; flags any point where the
    claimed inequality fails by more than 1e-12.
    """
    rng = st.make_rng(seed)
    t = rng.uniform(1.0, 50.0, trials)
    x = rng.uniform(t, 50.0)
    q = rng.uniform(1.0 + 1.0 / x, 1.0 + 1.0 / t)
    m = rng.uniform(0.0, 1.0, trials)
    n = rng.uniform(1.0, 10.0, trials)
    f = bnd.lemma1_f
    slack_m = f(x, m, q) - f(t, m, q)    # branch m claims >= 0
    slack_n = f(t, n, q) - f(x, n, q)    # branch n claims >= 0
    bad_m = np.where(slack_m < -1e-12)[0]
    bad_n = np.where(slack_n < -1e-12)[0]

    def dump(idx, which, slack):
        return [{"branch": which, "x": float(x[i]), "t": float(t[i]),
                 "q": float(q[i]),
                 "exponent": float(m[i] if which == "m" else n[i]),
                 "slack": float(slack[i])} for i in idx[:5]]

    violations = int(len(bad_m) + len(bad_n))
    return {
        "suite": "lemma1", "seed": seed, "trials_per_branch": trials,
        "violations": violations,
        "violations_m": int(len(bad_m)), "violations_n": int(len(bad_n)),
        "min_slack_m": float(slack_m.min()), "min_slack_n": float(slack_n.min()),
        "counterexamples": dump(bad_m, "m", slack_m) + dump(bad_n, "n", slack_n),
        "ok": violations == 0,
    }


def _sample_window(rng, q_small: float, q_big: float, power: float):
    """Admissible (t, q) for dominance q_big^power >= t * q_small^power."""
    if q_small <= 0.0:
        t = rng.uniform(1.0, 3.0)
        lo = 1.0 + 1e-9
    else:
        x = (q_big / q_small) ** power
        if x < 1.0 + 1e-9:
            return None
        t = rng.uniform(1.0, min(x, 1e6))
        lo = 1.0 + 1.0 / x
    hi = 1.0 + 1.0 / t
    return t, rng.uniform(lo, hi)


ALPHA_GRID = np.arange(0.0, 2.0 + 1e-9, 0.25)


def verify_monogamy(trials: int, seed: int) -> dict:
    """Haar-random three-qubit audit of the squared-concurrence monogamy
    base relation (alpha = 2) and the tightened lower bound across the
    alpha grid wherever its hypotheses hold."""
    gamma = 2.0
    ckw_viol, thm_viol, checks = [], [], 0
    min_ckw, min_thm = np.inf, np.inf
    for i, _, rng in _trials(seed, trials):
        psi = st.haar_random_from(rng, 3)
        lhs, c_b, c_c = _measured_inputs(psi, "monogamy")
        ckw_slack = lhs ** 2 - c_b ** 2 - c_c ** 2
        min_ckw = min(min_ckw, ckw_slack)
        if ckw_slack < -1e-9:
            ckw_viol.append({"trial": i, "state": st.pure_state_to_json(psi),
                             "ckw_slack": float(ckw_slack)})
        q_small, q_big = sorted((c_b, c_c))
        if q_big <= 0.0:
            continue
        tw = _sample_window(rng, q_small, q_big, gamma)
        if tw is None:
            continue
        t, q = tw
        for alpha in ALPHA_GRID:
            params = bnd.MonogamyParams(float(alpha), gamma, t, q)
            try:
                rhs = bnd.thm1_lower_bound(q_small, q_big, params)
            except bnd.PreconditionError:  # outside the theorem's hypotheses
                continue
            slack = lhs ** alpha - rhs
            checks += 1
            min_thm = min(min_thm, slack)
            if slack < -1e-9:
                thm_viol.append({
                    "trial": i, "state": st.pure_state_to_json(psi),
                    "alpha": float(alpha), "gamma": gamma, "t": t, "q": q,
                    "q_ab": q_small, "q_ac": q_big,
                    "lhs": float(lhs ** alpha), "rhs": float(rhs),
                    "slack": float(slack)})
    return _suite_report(
        "monogamy", seed, trials, ckw_viol + thm_viol, bound_checks=checks,
        ckw_violations=len(ckw_viol), thm1_violations=len(thm_viol),
        min_ckw_slack=float(min_ckw), min_thm1_slack=float(min_thm))


POLY_BETAS = (0.2, 0.5, 1.0)


def verify_polygamy(trials: int, seed: int) -> dict:
    """Additive SCRENoA polygamy audit on Haar and W-class three-qubit
    states.  Pair values are the exact two-qubit closed form (sum mu_i)^2
    and the LHS the exact pure-state value, so a failure beyond the
    tolerance is a genuine violation."""
    tol = 2e-3
    viol, checks = [], 0
    min_slack = np.inf
    for i, _, rng in _trials(seed, trials):
        if i % 5 == 0:
            # W-class states sit at the additivity boundary at beta = 1
            c = np.abs(rng.standard_normal(3))
            c /= np.linalg.norm(c)
            psi = st.w_class_state(*c)
        else:
            psi = st.haar_random_from(rng, 3)
        lhs_base, n_ab, n_ac = _measured_inputs(psi, "polygamy")
        for beta in POLY_BETAS:
            slack = (bnd._pow(n_ab, beta) + bnd._pow(n_ac, beta)
                     - bnd._pow(lhs_base, beta))
            checks += 1
            min_slack = min(min_slack, slack)
            if slack < -tol:
                viol.append({
                    "trial": i, "state": st.pure_state_to_json(psi),
                    "beta": beta, "lhs": float(bnd._pow(lhs_base, beta)),
                    "n_ab": n_ab, "n_ac": n_ac, "slack": float(slack)})
    return _suite_report("polygamy", seed, trials, viol, checks=checks,
                         min_slack=float(min_slack), tolerance=tol)


# fixed roof budgets of the roof-based suites: a suite's output is a
# function of --trials and --seed alone
ROOF_ORACLE_RESTARTS = 32
CHAIN_RESTARTS = 8


def verify_roof_oracle(trials: int, seed: int) -> dict:
    """Min-roof concurrence against the closed two-qubit formula on random
    rank-2 states (marginals of Haar three-qubit states)."""
    worst = 0.0
    viol = []
    for i, child, rng in _trials(seed, trials):
        psi = st.haar_random_from(rng, 3)
        rho = st.reduce_pair(st.to_density(psi), 1)
        exact = msr.concurrence_wootters(rho)
        cfg = RoofConfig(restarts=ROOF_ORACLE_RESTARTS,
                         seed=int(child.generate_state(1)[0]))
        res = msr.convex_roof(rho, msr.concurrence_functional((0,)), "min", cfg)
        diff = abs(res.value - exact)
        worst = max(worst, diff)
        if diff > 1e-3:
            viol.append({"trial": i, "state": st.pure_state_to_json(psi),
                         "exact": exact, "roof": res.value, "diff": diff})
    return _suite_report("roof-oracle", seed, trials, viol,
                         max_abs_diff=worst, tolerance=1e-3)


def verify_chain(trials: int, seed: int) -> dict:
    """Chained lower bound audit on Haar four-qubit pure states.

    Pairs use the closed two-qubit formula; the one mixed residual is a
    min-roof value (an upper estimate, used only inside the step
    hypotheses), and peel order puts the weakest pair first.
    """
    gamma = 2.0
    viol, skipped, checks = [], 0, 0
    min_slack = np.inf
    for i, child, rng in _trials(seed, trials):
        psi = st.haar_random_from(rng, 4)
        rho = st.to_density(psi)
        lhs = msr.concurrence_pure(psi, (0,))
        pair_vals = {j: msr.concurrence_wootters(st.reduce_pair(rho, j))
                     for j in (1, 2, 3)}
        order = sorted(pair_vals, key=pair_vals.get)
        pairs = [pair_vals[j] for j in order]
        keep = tuple(sorted((0, order[1], order[2])))
        marginal = partial_trace(rho, keep)
        cfg = RoofConfig(restarts=CHAIN_RESTARTS,
                         seed=int(child.generate_state(1)[0]))
        res = msr.convex_roof(marginal, msr.concurrence_functional((0,)), "min", cfg)
        residuals = [res.value, pairs[2]]
        ts, qs, admissible = [], [], True
        for pair, resid in zip(pairs[:2], residuals):
            tw = _sample_window(rng, pair, resid, gamma)
            if tw is None:
                admissible = False
                break
            ts.append(tw[0])
            qs.append(tw[1])
        if not admissible:
            skipped += 1
            continue
        cp = bnd.ChainParams(tuple(ts), tuple(qs))
        alpha = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        try:
            rhs = bnd.chain_monogamy_bound(pairs, residuals, cp, alpha, gamma)
        except bnd.PreconditionError:
            skipped += 1
            continue
        slack = lhs ** alpha - rhs
        checks += 1
        min_slack = min(min_slack, slack)
        if slack < -1e-6:
            viol.append({
                "trial": i, "state": st.pure_state_to_json(psi),
                "alpha": alpha, "ts": ts, "qs": qs, "pairs": pairs,
                "residuals": residuals, "lhs": float(lhs ** alpha),
                "rhs": float(rhs), "slack": float(slack)})
    return _suite_report("chain", seed, trials, viol, checks=checks,
                         skipped=skipped,
                         min_slack=float(min_slack if checks else np.nan))


VERIFY_SUITES = {
    "lemma1": (verify_lemma1, 100000),
    "monogamy": (verify_monogamy, 500),
    "polygamy": (verify_polygamy, 40),
    "roof-oracle": (verify_roof_oracle, 50),
    "chain": (verify_chain, 25),
}


def cmd_verify(args) -> tuple[str, int]:
    fn, default_trials = VERIFY_SUITES[args.suite]
    trials = args.trials if args.trials is not None else default_trials
    if trials < 1:
        raise UsageError("trials must be >= 1")
    report = fn(trials, args.seed)
    text = (f"# seed={args.seed} generator={st.RNG_NAME} suite={args.suite}\n"
            + json.dumps(report, indent=2, sort_keys=True) + "\n")
    return text, 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="entbounds",
        description="Quantum-correlation measures and monogamy/polygamy "
                    "bound verification on small qubit registers.")
    ap.add_argument("--seed", type=nonnegative_int, default=0, help="RNG seed (pcg64)")
    ap.add_argument("--out", default="-", help="output path, '-' for stdout")
    # accept the global flags after the subcommand as well
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=nonnegative_int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_state_args(p):
        p.add_argument("--state", help="JSON state file")
        p.add_argument("--builder",
                       help="schmidt:l0,l1,l2,l3,l4[,phase] or wclass:c1,c2,c3")
        p.add_argument("--keep", help="comma-separated subsystems to keep "
                                      "(partial trace applied first)")

    pm = sub.add_parser("measure", parents=[common],
                        help="evaluate one measure on a state")
    add_state_args(pm)
    pm.add_argument("--measure", required=True,
                    choices=["concurrence", "negativity", "scren", "screnoa",
                             "cren", "crenoa", "wootters"])
    pm.add_argument("--split", default=None, help="bipartition, e.g. A|BC or 0|12")
    pm.add_argument("--roof-restarts", type=positive_int, default=32,
                    help="convex-roof restarts: at most N; stops once the "
                         "roof meets the rank-2 certificate, at a zero roof, "
                         f"or after {msr.STALL_RESTARTS} restarts without "
                         "improvement")

    pb = sub.add_parser("bound", parents=[common],
                        help="evaluate bound variants on a state")
    add_state_args(pb)
    pb.add_argument("--kind", required=True, choices=list(bnd.SIDES))
    pb.add_argument("--variants", default=None,
                    help="comma-separated; default thm1,ref29 for monogamy, "
                         "thm4,ref29 for polygamy")
    pb.add_argument("--alpha", type=float)
    pb.add_argument("--gamma", type=float)
    pb.add_argument("--beta", type=float)
    pb.add_argument("--delta", type=float)
    pb.add_argument("--t", default="sqrt",
                    help="t value, or 'sqrt' for the geometric window midpoint")
    pb.add_argument("--q", default="edge",
                    help="q value, or 'edge'/'top' for the window edges")
    pb.add_argument("--k", type=float, help="ref16/ref28 dominance factor")
    pb.add_argument("--p", type=float, help="ref28 interpolation parameter")
    pb.add_argument("--a", type=float, help="ref29 dominance factor")

    pf = sub.add_parser("figure", parents=[common],
                        help="emit CSV data for one figure id")
    pf.add_argument("--id", type=int, required=True, choices=range(1, 7))
    pf.add_argument("--resolution", type=int, default=101)

    pv = sub.add_parser("verify", parents=[common],
                        help="run a randomized verification suite")
    pv.add_argument("--suite", required=True, choices=sorted(VERIFY_SUITES))
    pv.add_argument("--trials", type=int, default=None)

    ps = sub.add_parser("sweep", parents=[common],
                        help="parameter sweep on a state")
    add_state_args(ps)
    ps.add_argument("--kind", required=True, choices=list(bnd.SIDES))
    ps.add_argument("--axis", action="append", required=True,
                    help="name:start:stop:steps (repeatable, max 2)")
    ps.add_argument("--fix", action="append",
                    help="name=value; q accepts edge/top, t accepts sqrt")
    ps.add_argument("--variants", default=None,
                    help="comma-separated; default thm1,ref29 for monogamy, "
                         "thm4,ref29 for polygamy")
    return ap


# each command returns its output text and exit code
COMMANDS = {"measure": cmd_measure, "bound": cmd_bound, "figure": cmd_figure,
            "verify": cmd_verify, "sweep": cmd_sweep}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        text, code = COMMANDS[args.command](args)
        _write_text(text, args.out)
    except (UsageError, bnd.BoundsError, st.StateError, LinalgError,
            msr.MeasureError, OSError, json.JSONDecodeError) as exc:
        print(f"entbounds: error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
