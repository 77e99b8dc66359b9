"""Quantum-correlation measures on qubit registers.

Pure-state and two-qubit concurrence, negativity, the two-qubit CREN /
CRENoA and their squares (SCREN / SCRENoA), and a minimizing convex-roof
optimizer for the concurrence.

For two qubits the CREN family has exact closed forms over the Wootters
spectrum mu_i: CREN is the Wootters concurrence (Lee, Kim, Park, Lee,
PRA 68, 062304, 2003) and CRENoA the concurrence of assistance sum_i mu_i
(Laustsen, Verstraete, van Enk, QIC 3, 64, 2003).  cren / crenoa / scren /
screnoa evaluate these directly.

The concurrence roof, minimized over decompositions, serves what has no
closed form here: states other than 2 x 2 (the three-qubit chain residual
among them) and the roof-oracle suite that checks it against the Wootters
formula.  Decompositions of a rank-r state are m x r isometries u acting
on its eigendecomposition ensemble.  For any split, C^2 =
4 sum |2 x 2 minors|^2 (Cauchy-Binet; Wootters, PRL 80, 2245, 1998), and
each member's minors are one quadratic form u_i^T Q u_i, so Q gives the
objective, closed-form Givens-rotation line searches and the
Levenberg-Marquardt polish.  A sweep visits every row pair once, in the
rounds of disjoint pairs of the circle method (Brent and Luk, SIAM J. Sci.
Stat. Comput. 6, 69, 1985), each round one stacked pass: an m-member
ensemble takes m - 1 passes (m when m is odd), not m (m - 1) / 2.
Restarts derive independent sub-seeds from the configured seed and run in
stacked blocks, whose sweeps are stacked passes; the stopping rule is
replayed over each block in restart order (first-best wins) and restarts
past the stop are dropped, so results, and restarts_used (the restarts
the rule kept), are bit for bit those of one restart at a time,
reproducible and safe for concurrent use.  On two qubits the Wootters
concurrence is the exact roof, so it certifies the roof from below and
the rule stops as soon as it is met.
The polish works on one isometry at a time and looks for a split-product
ensemble, a zero roof.  A state whose partial transpose over the split
has an eigenvalue below -1e-10 is NPT, hence entangled (Peres), and has
none: each of its restarts is one run of sweeps, with no polish.  On two
qubits it polishes the winning decomposition once, after the stopping
rule, which lands it on the Wootters value; on more qubits the polish's
objective does not share the roof's minimizers and none runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    DensityMatrix,
    schmidt_coefficients,
    trace_norm,
    transpose_subsystem,
)
from .states import PureState

# Eigenvalues below this are treated as zero when determining rank.
RANK_TOL = 1e-10

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)


class MeasureError(ValueError):
    """Unsupported signature or invalid split for a measure."""


def _check_split(split: Sequence[int], n_qubits: int) -> tuple[int, ...]:
    split = tuple(int(i) for i in split)
    if not split:
        raise MeasureError("split must name at least one qubit")
    if len(set(split)) != len(split):
        raise MeasureError(f"duplicate qubit in split {split}")
    for i in split:
        if not 0 <= i < n_qubits:
            raise MeasureError(f"split index {i} out of range for {n_qubits} qubits")
    if len(split) == n_qubits:
        raise MeasureError("split must leave a nonempty second block")
    return split


def concurrence_pure(psi: PureState, split: Sequence[int] = (0,)) -> float:
    """sqrt(2 [1 - tr rho_first^2]) for the bipartition split | rest."""
    split = _check_split(split, psi.n_qubits)
    lams = schmidt_coefficients(psi.amps, psi.dims, split)
    purity = float(np.sum(lams ** 2))
    val = np.sqrt(max(0.0, 2.0 * (1.0 - purity)))
    d = 2 ** len(split)
    return float(min(val, np.sqrt(2.0 * (1.0 - 1.0 / d))))


def _wootters_mu(rho_mat: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of sqrt(sqrt(rho) rho_tilde sqrt(rho)).

    Computed as the singular values of Psi^T (sy x sy) Psi with
    rho = Psi Psi^dag, which keeps rank-deficient spectra accurate to
    ~1e-14 (the direct Hermitian pipeline turns eigenvalue noise into
    sqrt-scale errors on the zero modes).  Missing values are exact zeros.
    """
    evals, vecs = np.linalg.eigh(rho_mat)
    idx = evals > 1e-14
    psi = vecs[:, idx] * np.sqrt(evals[idx])
    tau = psi.T @ _YY @ psi
    sv = np.linalg.svd(tau, compute_uv=False)
    mu = np.zeros(rho_mat.shape[0])
    mu[: len(sv)] = np.sort(sv)[::-1]
    return mu


def _require_two_qubit(rho: DensityMatrix) -> None:
    if rho.sig.dims != (2, 2):
        raise MeasureError(f"two-qubit signature required, got {rho.sig.dims}")


def _wootters_concurrence(rho_mat: np.ndarray) -> float:
    mu = _wootters_mu(rho_mat)
    return float(max(0.0, 2.0 * mu[0] - mu.sum()))


def concurrence_wootters(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max{mu1 - mu2 - mu3 - mu4, 0}."""
    _require_two_qubit(rho)
    return _wootters_concurrence(rho.mat)


def negativity_pure(psi: PureState, split: Sequence[int] = (0,)) -> float:
    """2 sum_{i<j} sqrt(lam_i lam_j) over the Schmidt spectrum of the split."""
    split = _check_split(split, psi.n_qubits)
    lams = schmidt_coefficients(psi.amps, psi.dims, split)
    roots = np.sqrt(lams)
    total = 0.0
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            total += roots[i] * roots[j]
    return float(max(0.0, 2.0 * total))


def negativity_mixed(rho: DensityMatrix, split: Sequence[int] = (0,)) -> float:
    """Trace norm of the partial transpose over the split block, minus 1."""
    split = tuple(int(i) for i in split)
    if not split:
        raise MeasureError("split must name at least one subsystem")
    for i in split:
        rho.sig.check_index(i)
    if len(set(split)) != len(split):
        raise MeasureError(f"duplicate subsystem in split {split}")
    if len(split) == len(rho.sig):
        raise MeasureError("split must leave a nonempty second block")
    mat = rho.mat
    for i in split:
        mat = transpose_subsystem(mat, rho.sig.dims, i)
    return float(max(0.0, trace_norm(mat) - 1.0))


# ---------------------------------------------------------------------------
# Convex-roof optimization
# ---------------------------------------------------------------------------

@dataclass
class RoofConfig:
    """Optimizer budget for convex-roof evaluations.

    max_ensemble_size None means rank(rho)^2, the usual sufficient size.
    """

    max_ensemble_size: int | None = None
    restarts: int = 32
    max_iters: int = 500
    step_tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class Ensemble:
    """Pure-state decomposition {(p_i, psi_i)} of a target density matrix."""

    members: tuple[tuple[float, PureState], ...]

    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.members])

    def average(self, functional: Callable[[PureState], float]) -> float:
        return float(sum(p * functional(psi) for p, psi in self.members))

    def validate_against(self, rho: DensityMatrix, tol: float = 1e-8) -> None:
        probs = self.probabilities()
        if abs(probs.sum() - 1.0) > tol:
            raise MeasureError(f"ensemble probabilities sum to {probs.sum()}")
        acc = np.zeros_like(rho.mat)
        for p, psi in self.members:
            acc = acc + p * np.outer(psi.amps, psi.amps.conj())
        err = float(np.linalg.norm(acc - rho.mat))
        if err > tol:
            raise MeasureError(f"ensemble does not reconstruct target: {err}")


@dataclass(frozen=True)
class RoofResult:
    """Outcome of a minimizing convex-roof optimization: the value is an
    upper bound on the true roof and the average over its ensemble.

    lower is a certified lower end of the roof where one is known: the
    value itself at rank 1, the Wootters concurrence on two qubits, and
    None elsewhere.  converged says only that the best restart's last
    sweep gained less than step_tolerance or that a polish of it was
    kept; it does not mean the value is settled, as other restarts may
    end in other local minima."""

    value: float
    ensemble: Ensemble
    restarts_used: int
    converged: bool
    lower: float | None


@dataclass(frozen=True)
class PureStateFunctional:
    """Pure-state concurrence over a split, whose roof the minor-form kernel
    evaluates: p C(psi~ / sqrt(p)) is 2 ||2 x 2 minors|| of the
    unnormalized psi~ across the split."""

    split: tuple[int, ...]

    def __call__(self, psi: PureState) -> float:
        return concurrence_pure(psi, self.split)


def concurrence_functional(split: Sequence[int] = (0,)) -> PureStateFunctional:
    return PureStateFunctional(tuple(int(i) for i in split))


def _split_blocks(batch: np.ndarray, n_qubits: int,
                  split: tuple[int, ...]) -> np.ndarray:
    """Reshape batch rows to (n, d_first, d_rest) matrices of the split."""
    nb = batch.shape[0]
    rest = tuple(i for i in range(n_qubits) if i not in split)
    tensor = batch.reshape((nb,) + (2,) * n_qubits)
    axes = (0,) + tuple(i + 1 for i in split) + tuple(i + 1 for i in rest)
    return tensor.transpose(axes).reshape(nb, 2 ** len(split), -1)


def _minor_form(rows: np.ndarray, n_qubits: int,
                split: tuple[int, ...]) -> np.ndarray:
    """Q of shape (r, r, K) with minors(u @ rows)_i = u_i^T Q u_i.

    Q is the symmetrized bilinear form of the K 2 x 2 minors of the split
    blocks, so its diagonal Q[i, i] holds the minors of rows[i] and u @ Q
    is half the Jacobian of each member's minors in its isometry row.
    """
    s = _split_blocks(rows, n_qubits, split)
    d_first, d_rest = s.shape[1:]
    row_pairs = [(a, b) for a in range(d_first) for b in range(a + 1, d_first)]
    col_pairs = [(j, k) for j in range(d_rest) for k in range(j + 1, d_rest)]
    a, b, j, k = np.array([r + c for r in row_pairs for c in col_pairs]).T
    form = (s[:, None, a, j] * s[None, :, b, k]
            - s[:, None, a, k] * s[None, :, b, j])
    return 0.5 * (form + form.transpose(1, 0, 2))


def _member_minors(u: np.ndarray, qf: np.ndarray):
    """(Q u_i of shape (..., m, r, K), minors u_i^T Q u_i of shape
    (..., m, K)), with qf = Q flattened to (r, r * K); leading axes of u
    stack independent isometries."""
    qu = (u @ qf).reshape(*u.shape, -1)
    return qu, np.einsum("...il,...ilk->...ik", u, qu)


def _weights(mu: np.ndarray) -> np.ndarray:
    """2 ||minors|| over the last axis: p * C of each member."""
    return 2.0 * np.sqrt((mu.real ** 2 + mu.imag ** 2).sum(axis=-1))


def _givens_grid(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Coefficients (..., 2, N, 3) of the rotated rows' minors on a grid;
    leading axes of thetas and phis stack independent grids.

    The rotation a' = c a + s b, b' = -conj(s) a + c b with c = cos(theta)
    and s = e^{i phi} sin(theta) maps the quadratic minors to
    mu(a') = c^2 mu_a + cs (2 a^T Q b) + s^2 mu_b and
    mu(b') = conj(s)^2 mu_a - c conj(s) (2 a^T Q b) + c^2 mu_b.
    """
    c = np.cos(thetas).repeat(phis.shape[-1], axis=-1)
    s = (np.sin(thetas)[..., :, None]
         * np.exp(1j * phis)[..., None, :]).reshape(c.shape)
    sc = s.conj()
    grid = np.empty(c.shape[:-1] + (2, c.shape[-1], 3), dtype=complex)
    grid[..., 0, :, 0] = grid[..., 1, :, 2] = c * c
    grid[..., 0, :, 1], grid[..., 0, :, 2] = c * s, s * s
    grid[..., 1, :, 0], grid[..., 1, :, 1] = sc * sc, -c * sc
    return grid


def _givens_values(coef: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Pair objective at every grid point; coef (..., 3, K) stacks mu_a,
    2 a^T Q b and mu_b."""
    w = _weights(grid @ coef[..., None, :, :])
    return w[..., 0, :] + w[..., 1, :]


# coarse rotation angles plus a geometric ladder of small angles so that
# near-converged configurations still see sub-grid improving moves
_THETAS = np.concatenate([
    np.linspace(np.pi / 2, np.pi / 18, 9),
    (np.pi / 18) * (3.0 ** -np.arange(1.0, 8.0)),
])
_PHIS = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
_COARSE_GRID = _givens_grid(_THETAS, _PHIS)
_COARSE_GRID.setflags(write=False)
# theta, phi and first zoom half-width at each coarse grid point
_COARSE_START = np.array([
    _THETAS.repeat(len(_PHIS)), np.tile(_PHIS, len(_THETAS)),
    np.maximum(np.pi / 18 / 3.0, np.abs(_THETAS) * 1e-3 + 1e-6).repeat(len(_PHIS))])
_COARSE_START.setflags(write=False)
_ZOOM = np.linspace(-1.0, 1.0, 7)  # each refinement: 7 x 7 around the best

# restarts stop after this many in a row fail to lower the best by more
# than RoofConfig.step_tolerance; RoofConfig.restarts is the cap
STALL_RESTARTS = 3
# the polish ends a restart after an accepted step that lowers its cost by
# at most this share of it: the cost is then flat to rounding
POLISH_MIN_REDUCTION = 1e-15


def _optimize_ensemble(u, qf, caps, tol):
    """Sweep Givens rotations over row pairs until improvement stalls.

    u stacks one isometry per restart, (R, m, r), and caps holds each
    restart's sweep budget (0 leaves it as it is).  Returns the restarts'
    totals, isometries and converged flags.  Works on a copy of u; a move
    is kept only when the recomputed pair objective is lower than the
    current one.
    """
    u = u.copy()
    qu, mu = _member_minors(u, qf)
    w = _weights(mu)
    converged = np.zeros(len(u), dtype=bool)
    for sweep in range(int(caps.max(initial=0))):
        act = _selection((caps > sweep) & ~converged)
        if act is None:
            break
        state = u[act], qu[act], mu[act], w[act]
        improvement = _sweep(*state, qf)
        u[act], qu[act], mu[act], w[act] = state
        converged[act] = improvement < tol
    return w.sum(axis=-1), u, converged


def _selection(mask):
    """Index of mask's set entries: None if none, a view slice if all."""
    n = np.count_nonzero(mask)
    if n == len(mask):
        return slice(None)
    return mask.nonzero()[0] if n else None


@lru_cache(maxsize=None)
def _rounds(m: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Row pairs (a, b), a < b, of an m-member ensemble in the rounds of
    the circle method: m - 1 rounds of m / 2 disjoint pairs for even m, m
    rounds of (m - 1) / 2 for odd m (a dummy row sits out each round), so
    that every pair appears once.  Each round is (a, b) as index arrays."""
    n = m + m % 2  # players, the dummy row m included when m is odd
    rounds = []
    for r in range(n - 1):
        pairs = [(r, n - 1)] + [((r + i) % (n - 1), (r - i) % (n - 1))
                                for i in range(1, n // 2)]
        pairs = sorted((min(p), max(p)) for p in pairs if max(p) < m)
        a, b = np.array(pairs, dtype=np.intp).T
        a.setflags(write=False)  # shared by every caller through the cache
        b.setflags(write=False)
        rounds.append((a, b))
    return tuple(rounds)


def _sweep(u, qu, mu, w, qf):
    """One Givens line search per row pair, in place on stacked restarts;
    returns each restart's summed improvement.

    The pair objective w_a + w_b reads rows a and b alone, so pairs with no
    common row do not interact: the disjoint pairs of each round of
    _rounds(m) run as one stacked pass, with the (restart, pair) entries in
    the leading axis, and the result is bit for bit the loop over one pair
    at a time in round order.  Improvements add up in that order too."""
    n, m = u.shape[:2]
    rounds = _rounds(m)
    p = len(rounds[0][0])  # pairs per round, the same in every round
    gains = np.zeros((n, len(rounds), p))
    for r, (a, b) in enumerate(rounds):
        coef = np.concatenate([mu[:, a, None], 2.0 * (u[:, a, None] @ qu[:, b]),
                               mu[:, b, None]], axis=2).reshape(n * p, 3, -1)
        cur = (w[:, a] + w[:, b]).ravel()
        # the coarse grid with its zoom ladder; entries that improve on it
        # go on to five shrinking 7 x 7 refinements
        vals = _givens_values(coef, _COARSE_GRID)
        k = vals.argmin(axis=-1)
        best = vals[np.arange(len(k)), k]
        f = (best < cur - 1e-15).nonzero()[0]
        if not f.size:
            continue
        if f.size < len(k):
            coef, cur, best, k = coef[f], cur[f], best[f], k[f]
        at = np.arange(len(f))
        t0, p0, dt = _COARSE_START[:, k]
        dp = 2 * np.pi / len(_PHIS)
        for _zoom in range(5):
            thetas = t0[:, None] + dt[:, None] * _ZOOM
            phis = p0[:, None] + dp * _ZOOM
            dp /= 3.0
            vals = _givens_values(coef, _givens_grid(thetas, phis))
            k = vals.argmin(axis=-1)
            v = vals[at, k]
            up = v < best - 1e-15
            ti, pi = np.divmod(k, len(_ZOOM))
            best = np.where(up, v, best)
            t0 = np.where(up, thetas[at, ti], t0)
            p0 = np.where(up, phis[at, pi], p0)
            dt = np.where(up, np.maximum(dt / 3.0, np.abs(t0) * 1e-3 + 1e-6),
                          dt / 3.0)
        c = np.cos(t0)[:, None, None]
        s = (np.sin(t0) * np.exp(1j * p0))[:, None, None]
        i, j = np.divmod(f, p)
        ra, rb = a[j], b[j]
        ua, ub = u[i, ra, None], u[i, rb, None]
        rows = np.concatenate([c * ua + s * ub, c * ub - s.conj() * ua], axis=1)
        qu_ab, mu_ab = _member_minors(rows, qf)
        w_ab = _weights(mu_ab)
        new = w_ab[:, 0] + w_ab[:, 1]
        keep = new < cur
        pairs = (u, rows), (qu, qu_ab), (mu, mu_ab), (w, w_ab)
        if np.count_nonzero(keep) < len(keep):
            i, j, ra, rb = i[keep], j[keep], ra[keep], rb[keep]
            cur, new = cur[keep], new[keep]
            pairs = [(x, x_ab[keep]) for x, x_ab in pairs]
        for x, x_ab in pairs:
            x[i, ra], x[i, rb] = x_ab[:, 0], x_ab[:, 1]
        gains[i, r, j] = cur - new
    # a running sum, so the additions happen in round order
    return np.add.accumulate(gains.reshape(n, -1), axis=1)[:, -1]


def _qr_retract(x: np.ndarray) -> np.ndarray:
    """Nearest isometry to x via QR with a deterministic sign convention."""
    q, r = np.linalg.qr(x)
    d = np.diagonal(r)
    phase = np.where(np.abs(d) > 1e-300, d / np.abs(d), 1.0)
    return q * phase


@lru_cache(maxsize=None)
def _skew_basis(r: int) -> np.ndarray:
    """Real basis (r^2, r, r) of the skew-Hermitian r x r matrices."""
    basis = []
    for a in range(r):
        for b in range(a, r):
            for z in ((1j,) if a == b else (1.0, 1j)):
                t = np.zeros((r, r), dtype=complex)
                t[a, b] = z
                t[b, a] = -np.conj(z)
                basis.append(t)
    basis = np.array(basis)
    basis.setflags(write=False)  # shared by every caller through the cache
    return basis


def _stiefel_tangent_basis(u: np.ndarray) -> np.ndarray:
    """Real basis (n, m, r) of the tangent space {d: d^H u + u^H d = 0} of
    the isometry u (m, r)."""
    m, r = u.shape
    basis = u @ _skew_basis(r)
    if m > r:
        full, _, _ = np.linalg.svd(u, full_matrices=True)
        # perp column c placed in column l, then times 1j
        perp = np.einsum("ac,lk->clak", full[:, r:], np.eye(r))
        perp = np.stack([perp, 1j * perp], axis=2).reshape(-1, m, r)
        basis = np.concatenate([basis, perp])
    return basis


def _product_polish(u, qf, iters: int = 40):
    """Levenberg-Marquardt on the minors over the isometry manifold.

    The residuals are every member's minors u_i^T Q u_i and the Jacobian
    is 2 Q u_i, so all of them vanishing means every member factors across
    the split.  Pairwise rotations crawl once every member is nearly a
    product state; this drives the smooth zero-residual system
    quadratically instead.  Steps are solved in an explicit tangent basis
    so the QR retraction only contributes second-order corrections.  u is
    one isometry (m, r).  The polish stops once the cost is below 1e-30,
    after 8 failed tries at one step, or after an accepted step that
    lowers the cost by at most POLISH_MIN_REDUCTION times the cost (the
    relative-reduction test of MINPACK's lmder).
    """
    qu, mu = _member_minors(u, qf)
    cost = float(np.sum(mu.real ** 2 + mu.imag ** 2))
    lam = 1e-4
    for _ in range(iters):
        if cost < 1e-30:
            break
        basis = _stiefel_tangent_basis(u)
        flat = basis.reshape(len(basis), -1)
        dz = 2.0 * np.einsum("nil,ilk->nik", basis, qu).reshape(len(basis), -1)
        jt = np.concatenate([dz.real, dz.imag], axis=1).T  # the Jacobian
        rvec = np.concatenate([mu.real.ravel(), mu.imag.ravel()])
        gram = jt.T @ jt
        grad = jt.T @ rvec
        for _try in range(8):
            y = np.linalg.solve(gram + lam * np.eye(len(gram)), -grad)
            cand = _qr_retract(u + (y @ flat).reshape(u.shape))
            qu_c, mu_c = _member_minors(cand, qf)
            cost_c = float(np.sum(mu_c.real ** 2 + mu_c.imag ** 2))
            if cost_c < cost:
                break
            lam = min(lam * 8.0, 1e8)
        else:
            break
        flat_step = cost - cost_c <= POLISH_MIN_REDUCTION * cost
        u, qu, mu, cost = cand, qu_c, mu_c, cost_c
        lam = max(lam * 0.25, 1e-14)
        if flat_step:
            break
    return u


def _try_polish(total, u, qf):
    """(total, u, kept) after polishing the isometry u (m, r): the polish
    is kept only when it lowers the total."""
    cand = _product_polish(u, qf)
    t_c = _weights(_member_minors(cand, qf)[1]).sum()
    if t_c < total:
        return t_c, cand, True
    return total, u, False


def _restart_block(u, qf, cfg, polish):
    """Totals, isometries and converged flags of a block of restarts
    (R, m, r) after the optimizer stages.  Without polish (an NPT state,
    which has no split-product ensemble) each restart is one run of
    max_iters sweeps.  With polish, each restart sweeps 15 times and tries
    the zero-roof polish (the concurrence vanishes exactly on split-product
    states); after a kept polish 10 consolidating sweeps are enough,
    otherwise the remaining sweeps run, then one more polish.  The sweeps
    run stacked over the block, the polishes one restart at a time; a
    polish is kept only when it lowers the total, and a kept polish marks
    its restart converged."""
    tol = cfg.step_tolerance
    if not polish:
        return _optimize_ensemble(u, qf, np.full(len(u), cfg.max_iters), tol)
    stage1 = min(15, cfg.max_iters)
    totals, u, conv = _optimize_ensemble(u, qf, np.full(len(u), stage1), tol)
    kept = np.zeros(len(u), dtype=bool)
    for i in range(len(u)):
        totals[i], u[i], kept[i] = _try_polish(totals[i], u[i], qf)
    conv |= kept
    caps = np.where(kept, np.where(totals > 1e-12, 10, 0), cfg.max_iters - stage1)
    t3, u3, c3 = _optimize_ensemble(u, qf, caps, tol)
    take = (caps > 0) & (t3 < totals)
    totals[take], u[take], conv[take] = t3[take], u3[take], c3[take]
    for i in (caps > 0).nonzero()[0]:
        totals[i], u[i], again = _try_polish(totals[i], u[i], qf)
        conv[i] |= again
    return totals, u, conv


def _ensemble_average(members, n_qubits: int, split: tuple[int, ...]) -> float:
    """sum_i p_i C(psi_i) over the split, from the members' own amplitudes."""
    form = _minor_form(np.array([psi.amps for _, psi in members]), n_qubits,
                       split)
    probs = np.array([p for p, _ in members])
    return float(probs @ _weights(np.einsum("iik->ik", form)))


def convex_roof(rho: DensityMatrix, functional: PureStateFunctional,
                direction: str, cfg: RoofConfig | None = None) -> RoofResult:
    """Minimize the ensemble average of the concurrence over decompositions
    of rho; the roof value is then an upper bound on the true minimum.

    direction must be "min", the only roof offered.  Decompositions are
    generated from the eigendecomposition via m x r isometries; restart 0
    starts at the eigendecomposition ensemble itself, the rest at
    Haar-random isometries.  At most cfg.restarts restarts run: on two
    qubits the loop stops once the best is within cfg.step_tolerance of
    the Wootters concurrence, the exact roof and so a certified lower end
    (RoofResult.lower).  Otherwise, and as fallbacks, it stops once the
    roof reaches zero or after STALL_RESTARTS in a row fail to lower the
    best by more than cfg.step_tolerance.  Restarts run in stacked blocks:
    restart 0 with the STALL_RESTARTS the rule runs after it anyway (alone
    when a zero roof or the certificate may stop it there), then as many
    as the stall rule still needs.  The rule is replayed over each block
    in restart order, restarts past the stop are dropped and
    restarts_used counts those the rule kept.  Each sweep runs the row
    pairs in the stacked rounds of _rounds(m).  An NPT state (partial
    transpose over the split with an eigenvalue below -1e-10) runs each
    restart as one run of sweeps with no polish and the rule on the sweep
    totals; on two qubits it then polishes the winner once, keeping the
    polish only when it lowers the value, and on more qubits it runs no
    polish.
    """
    if direction != "min":
        raise ValueError(f"direction must be 'min', got {direction!r}")
    if not isinstance(functional, PureStateFunctional):
        raise TypeError("convex_roof needs a PureStateFunctional such as "
                        f"concurrence_functional(split), got {functional!r}")
    cfg = cfg or RoofConfig()
    d = rho.dim
    n_qubits = int(round(np.log2(d)))
    if 2 ** n_qubits != d:
        raise MeasureError(f"roof optimizer requires qubit registers, dim {d}")
    split = _check_split(functional.split, n_qubits)

    evals, vecs = np.linalg.eigh(rho.mat)
    idx = np.where(evals > RANK_TOL)[0]
    rank = len(idx)
    if rank == 0:
        raise MeasureError("state has no support above rank tolerance")
    m = cfg.max_ensemble_size if cfg.max_ensemble_size is not None else rank * rank
    if m < rank:
        raise MeasureError(f"max_ensemble_size {m} below rank {rank}")

    scaled = (vecs[:, idx] * np.sqrt(evals[idx])).T  # rows are sqrt(ev) * eigvec

    if rank == 1:
        ens = Ensemble(((1.0, PureState(scaled[0] / np.linalg.norm(scaled[0]),
                                        n_qubits)),))
        ens.validate_against(rho)
        value = _ensemble_average(ens.members, n_qubits, split)
        return RoofResult(value, ens, 0, True, value)

    qf = _minor_form(scaled, n_qubits, split).reshape(rank, -1)
    u0 = np.eye(m, rank, dtype=complex)
    eigen_avg = float(_weights(_member_minors(u0, qf)[1]).sum())

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)

    def start(j):
        if j == 0:
            return u0
        rng = np.random.Generator(np.random.PCG64(seeds[j]))
        gauss = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        return np.linalg.qr(gauss)[0][:, :rank]

    best_total = best_u = None
    best_conv = stop = False
    restarts_used = stalled = 0
    # the certificate comes from the matrix: a (4,) signature is a two-qubit
    # register here too, and concurrence_wootters would reject it
    lower = _wootters_concurrence(rho.mat) if n_qubits == 2 else None
    # a zero roof stops the rule at restart 0 and needs a separable, hence
    # PPT (Peres), state: there restart 0 runs alone first, and every
    # restart tries the polish.  An NPT state has no split-product
    # ensemble, so only the winner is polished, once the rule stops, and
    # only on two qubits: with one minor per member the polish's sum of
    # |minor|^2 is at least (sum |minor|)^2 / m, with equality at Wootters'
    # equal-concurrence optimal ensembles, so it shares the roof's
    # minimizers; with more minors per member it does not
    pt = rho.mat
    for i in split:
        pt = transpose_subsystem(pt, (2,) * n_qubits, i)
    ppt = bool(np.linalg.eigvalsh(pt)[0] > -1e-10)
    size = 1 if ppt or lower is not None else 1 + STALL_RESTARTS
    while not stop and restarts_used < cfg.restarts:
        block = range(restarts_used, min(restarts_used + size, cfg.restarts))
        totals, us, convs = _restart_block(np.array([start(j) for j in block]),
                                           qf, cfg, ppt)
        for total, u, conv in zip(totals, us, convs):
            restarts_used += 1
            if best_total is None or total < best_total - cfg.step_tolerance:
                stalled = 0
            else:
                stalled += 1
            if best_total is None or total < best_total:
                best_total, best_u, best_conv = total, u, bool(conv)
            stop = ((lower is not None and best_total - lower <= cfg.step_tolerance)
                    or best_total <= 1e-12 or stalled >= STALL_RESTARTS)
            if stop:
                break
        size = STALL_RESTARTS - stalled
    if not ppt and lower is not None:
        best_total, best_u, kept = _try_polish(best_total, best_u, qf)
        best_conv = best_conv or kept

    value = float(best_total)
    # one-sidedness guard: restart 0 only ever improves on the
    # eigendecomposition ensemble, so this holds by construction
    if value > eigen_avg + 1e-9:
        raise RuntimeError("roof minimum exceeded eigendecomposition average")

    members = []
    for row in best_u @ scaled:
        p = float(np.vdot(row, row).real)
        if p < 1e-12:
            continue
        members.append((p, PureState(row / np.sqrt(p), n_qubits)))
    ens = Ensemble(tuple(members))
    ens.validate_against(rho)
    # the reported value must be the returned ensemble's own average
    avg = _ensemble_average(members, n_qubits, split)
    if abs(value - avg) > 1e-10:
        raise RuntimeError(f"roof value {value!r} differs from its ensemble "
                           f"average {avg!r}")
    return RoofResult(value, ens, restarts_used, best_conv, lower)


def scren(rho: DensityMatrix, cfg: RoofConfig | None = None) -> float:
    """Square of convex-roof extended negativity, cren(rho)^2 (exact).

    cfg is accepted for call compatibility and ignored.
    """
    return cren(rho) ** 2


def screnoa(rho: DensityMatrix, cfg: RoofConfig | None = None) -> float:
    """Square of convex-roof extended negativity of assistance,
    crenoa(rho)^2 (exact).

    cfg is accepted for call compatibility and ignored.
    """
    return crenoa(rho) ** 2


def cren(rho: DensityMatrix, cfg: RoofConfig | None = None) -> float:
    """Convex-roof extended negativity of a two-qubit state.

    Equal to the Wootters concurrence (Lee, Kim, Park, Lee, PRA 68,
    062304, 2003), so the value is exact rather than a one-sided roof
    estimate.  cfg is accepted for call compatibility and ignored.
    """
    return concurrence_wootters(rho)


def crenoa(rho: DensityMatrix, cfg: RoofConfig | None = None) -> float:
    """Convex-roof extended negativity of assistance of a two-qubit state.

    Equal to the concurrence of assistance sum_i mu_i over the Wootters
    spectrum (Laustsen, Verstraete, van Enk, QIC 3, 64, 2003), so the
    value is exact rather than a one-sided roof estimate.  cfg is
    accepted for call compatibility and ignored.
    """
    _require_two_qubit(rho)
    return float(_wootters_mu(rho.mat).sum())
