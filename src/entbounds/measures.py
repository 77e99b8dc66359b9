"""Quantum-correlation measures on qubit registers.

Pure-state and two-qubit concurrence, negativity, the two-qubit CREN /
CRENoA and their squares (SCREN / SCRENoA), and a convex-roof optimizer.

For two qubits the CREN family has exact closed forms over the Wootters
spectrum mu_i: CREN is the Wootters concurrence (Lee, Kim, Park, Lee,
PRA 68, 062304, 2003) and CRENoA the concurrence of assistance sum_i mu_i
(Laustsen, Verstraete, van Enk, QIC 3, 64, 2003).  cren / crenoa / scren /
screnoa evaluate these directly.

The roof optimizer serves what has no closed form here: the `measure`
command's optimizer diagnostics, the three-qubit chain residual, states
other than 2 x 2, and the roof-oracle suite that checks it against the
closed forms.  Decompositions of a rank-r state are m x r isometries u
acting on its eigendecomposition ensemble.  For any split, C^2 =
4 sum |2 x 2 minors|^2 (Cauchy-Binet; Wootters, PRL 80, 2245, 1998), and
each member's minors are one quadratic form u_i^T Q u_i, so Q gives the
objective, closed-form Givens-rotation line searches and the
Levenberg-Marquardt polish of minimizing roofs.  Restarts derive
independent sub-seeds from the configured seed and are merged
deterministically (first-best wins), so results are reproducible and the
functional core is safe for concurrent use.
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


def concurrence_wootters(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max{mu1 - mu2 - mu3 - mu4, 0}."""
    if rho.sig.dims != (2, 2):
        raise MeasureError(f"two-qubit signature required, got {rho.sig.dims}")
    mu = _wootters_mu(rho.mat)
    return float(max(0.0, 2.0 * mu[0] - mu.sum()))


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
    """Outcome of a one-sided convex-roof optimization.

    For direction "min" the value is an upper bound on the true roof; for
    "max" a lower bound (bound_side records which).
    """

    value: float
    ensemble: Ensemble
    restarts_used: int
    converged: bool
    direction: str
    bound_side: str


@dataclass(frozen=True)
class PureStateFunctional:
    """A pure-state measure equal to the concurrence over its split, whose
    roof the minor-form kernel evaluates: p C(psi~ / sqrt(p)) is 2 ||2 x 2
    minors|| of the unnormalized psi~ across the split."""

    name: str
    split: tuple[int, ...]
    scalar: Callable[[PureState], float]

    def __call__(self, psi: PureState) -> float:
        return self.scalar(psi)


def concurrence_functional(split: Sequence[int] = (0,)) -> PureStateFunctional:
    split = tuple(int(i) for i in split)
    return PureStateFunctional("concurrence", split,
                               lambda psi: concurrence_pure(psi, split))


def negativity_functional(split: Sequence[int] = (0,)) -> PureStateFunctional:
    split = tuple(int(i) for i in split)
    if len(split) != 1:
        raise MeasureError("the negativity roof needs a one-qubit first block, "
                           f"got split {split}")
    return PureStateFunctional("negativity", split,
                               lambda psi: negativity_pure(psi, split))


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
    """(Q u_i of shape (m, r, K), minors u_i^T Q u_i of shape (m, K)),
    with qf = Q flattened to (r, r * K)."""
    qu = (u @ qf).reshape(u.shape[0], u.shape[1], -1)
    return qu, np.einsum("il,ilk->ik", u, qu)


def _weights(mu: np.ndarray) -> np.ndarray:
    """2 ||minors|| over the last axis: p * C of each member."""
    return 2.0 * np.sqrt((mu.real ** 2 + mu.imag ** 2).sum(axis=-1))


def _givens_grid(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Coefficients (2, N, 3) of the rotated rows' minors on a grid.

    The rotation a' = c a + s b, b' = -conj(s) a + c b with c = cos(theta)
    and s = e^{i phi} sin(theta) maps the quadratic minors to
    mu(a') = c^2 mu_a + cs (2 a^T Q b) + s^2 mu_b and
    mu(b') = conj(s)^2 mu_a - c conj(s) (2 a^T Q b) + c^2 mu_b.
    """
    c = np.repeat(np.cos(thetas), len(phis))
    s = np.outer(np.sin(thetas), np.exp(1j * phis)).ravel()
    sc = s.conj()
    grid = np.empty((2, len(c), 3), dtype=complex)
    grid[0, :, 0] = grid[1, :, 2] = c * c
    grid[0, :, 1], grid[0, :, 2] = c * s, s * s
    grid[1, :, 0], grid[1, :, 1] = sc * sc, -c * sc
    return grid


def _givens_values(coef: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Pair objective at every grid point; coef stacks mu_a, 2 a^T Q b, mu_b."""
    w = _weights(grid @ coef)
    return w[0] + w[1]


# coarse rotation angles plus a geometric ladder of small angles so that
# near-converged configurations still see sub-grid improving moves
_THETAS = np.concatenate([
    np.linspace(np.pi / 2, np.pi / 18, 9),
    (np.pi / 18) * (3.0 ** -np.arange(1.0, 8.0)),
])
_PHIS = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
_COARSE_GRID = _givens_grid(_THETAS, _PHIS)
_COARSE_GRID.setflags(write=False)
_ZOOM = np.linspace(-1.0, 1.0, 7)  # each refinement: 7 x 7 around the best

# restarts stop after this many in a row fail to lower the best by more
# than RoofConfig.step_tolerance; RoofConfig.restarts is the cap
STALL_RESTARTS = 3


def _optimize_ensemble(u, qf, sign, max_iters, tol):
    """Sweep Givens rotations over row pairs until improvement stalls.

    Works on a copy of the isometry u; a move is kept only when the
    recomputed pair objective is lower than the current one.
    """
    u = u.copy()
    qu, mu = _member_minors(u, qf)
    w = _weights(mu)
    m = u.shape[0]
    converged = False
    for _ in range(max_iters):
        improvement = 0.0
        for a in range(m):
            for b in range(a + 1, m):
                cur = float(sign * (w[a] + w[b]))
                coef = np.array([mu[a], 2.0 * (u[a] @ qu[b]), mu[b]])
                grid, thetas, phis = _COARSE_GRID, _THETAS, _PHIS
                dt = np.pi / 18
                dp = 2 * np.pi / len(phis)
                best = cur
                found = False
                # coarse grid with zoom ladder, then shrinking refinements
                for _round in range(6):
                    vals = sign * _givens_values(coef, grid)
                    k = int(np.argmin(vals))
                    if vals[k] < best - 1e-15:
                        best = float(vals[k])
                        found = True
                        ti, pi = divmod(k, len(phis))
                        t0, p0 = thetas[ti], phis[pi]
                        dt = max(dt / 3.0, abs(t0) * 1e-3 + 1e-6)
                    elif not found:
                        break
                    else:
                        dt /= 3.0
                    thetas, phis = t0 + dt * _ZOOM, p0 + dp * _ZOOM
                    grid = _givens_grid(thetas, phis)
                    dp /= 3.0
                if not found:
                    continue
                c, s = np.cos(t0), np.sin(t0) * np.exp(1j * p0)
                rows = np.array([c * u[a] + s * u[b], c * u[b] - s.conj() * u[a]])
                qu_ab, mu_ab = _member_minors(rows, qf)
                w_ab = _weights(mu_ab)
                new = float(sign * (w_ab[0] + w_ab[1]))
                if new < cur:
                    u[[a, b]], qu[[a, b]], mu[[a, b]], w[[a, b]] = (
                        rows, qu_ab, mu_ab, w_ab)
                    improvement += cur - new
        if improvement < tol:
            converged = True
            break
    return float(sign * w.sum()), u, converged


def _qr_retract(x: np.ndarray) -> np.ndarray:
    """Nearest isometry via QR with a deterministic sign convention."""
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
    """Real basis (n, m, r) of the tangent space {d: d^H u + u^H d = 0}."""
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
    so the QR retraction only contributes second-order corrections.
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
        jt = np.concatenate([dz.real, dz.imag], axis=1).T
        rvec = np.concatenate([mu.real.ravel(), mu.imag.ravel()])
        gram = jt.T @ jt
        grad = jt.T @ rvec
        moved = False
        for _try in range(8):
            y = np.linalg.solve(gram + lam * np.eye(len(gram)), -grad)
            cand = _qr_retract(u + (y @ flat).reshape(u.shape))
            qu_c, mu_c = _member_minors(cand, qf)
            cost_c = float(np.sum(mu_c.real ** 2 + mu_c.imag ** 2))
            if cost_c < cost:
                u, qu, mu, cost = cand, qu_c, mu_c, cost_c
                lam = max(lam * 0.25, 1e-14)
                moved = True
                break
            lam = min(lam * 8.0, 1e8)
        if not moved:
            break
    return u


def _ensemble_average(members, n_qubits: int, split: tuple[int, ...]) -> float:
    """sum_i p_i C(psi_i) over the split, from the members' own amplitudes."""
    form = _minor_form(np.array([psi.amps for _, psi in members]), n_qubits,
                       split)
    probs = np.array([p for p, _ in members])
    return float(probs @ _weights(np.einsum("iik->ik", form)))


def convex_roof(rho: DensityMatrix, functional: PureStateFunctional,
                direction: str, cfg: RoofConfig | None = None) -> RoofResult:
    """Optimize the ensemble average of a concurrence-type functional over
    decompositions of rho.

    direction "min" searches for small averages (roof value is then an
    upper bound on the true minimum); "max" for large ones (lower bound on
    the true maximum).  Decompositions are generated from the
    eigendecomposition via m x r isometries; restart 0 starts at the
    eigendecomposition ensemble itself, the rest at Haar-random isometries.
    At most cfg.restarts restarts run: the loop stops after STALL_RESTARTS
    in a row fail to lower the best by more than cfg.step_tolerance, or
    once a minimizing roof reaches zero.
    """
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    if not isinstance(functional, PureStateFunctional):
        raise TypeError("convex_roof needs a PureStateFunctional such as "
                        f"concurrence_functional(split), got {functional!r}")
    cfg = cfg or RoofConfig()
    d = rho.dim
    n_qubits = int(round(np.log2(d)))
    if 2 ** n_qubits != d:
        raise MeasureError(f"roof optimizer requires qubit registers, dim {d}")
    split = _check_split(functional.split, n_qubits)
    bound_side = "upper" if direction == "min" else "lower"

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
        return RoofResult(value, ens, 0, True, direction, bound_side)

    sign = 1.0 if direction == "min" else -1.0
    qf = _minor_form(scaled, n_qubits, split).reshape(rank, -1)
    u0 = np.eye(m, rank, dtype=complex)
    eigen_avg = float(_weights(_member_minors(u0, qf)[1]).sum())

    # the zero-roof polish applies when small averages are sought: the
    # functional vanishes exactly on split-product states
    can_polish = direction == "min"

    def try_polish(total, u, conv):
        cand = _product_polish(u, qf)
        total_c = float(sign * _weights(_member_minors(cand, qf)[1]).sum())
        if total_c < total:
            return total_c, cand, True
        return total, u, conv

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best_total = None
    best_u = None
    best_conv = False
    restarts_used = 0
    stalled = 0
    for j in range(cfg.restarts):
        restarts_used = j + 1
        if j == 0:
            u = u0
        else:
            rng = np.random.Generator(np.random.PCG64(seeds[j]))
            gauss = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
            u = np.linalg.qr(gauss)[0][:, :rank]
        stage1 = min(15, cfg.max_iters) if can_polish else cfg.max_iters
        total, u, conv = _optimize_ensemble(u, qf, sign, stage1,
                                            cfg.step_tolerance)
        if can_polish:
            t2, u2, c2 = try_polish(total, u, conv)
            if t2 < total:
                # polish found a better basin; a short consolidation
                # sweep plus one more polish is enough
                total, u, conv = t2, u2, c2
                if total > 1e-12:
                    t3, u3, c3 = _optimize_ensemble(u, qf, sign, 10,
                                                    cfg.step_tolerance)
                    if t3 < total:
                        total, u, conv = t3, u3, c3
                    total, u, conv = try_polish(total, u, conv)
            elif cfg.max_iters > stage1:
                t3, u3, c3 = _optimize_ensemble(
                    u, qf, sign, cfg.max_iters - stage1, cfg.step_tolerance)
                if t3 < total:
                    total, u, conv = t3, u3, c3
                total, u, conv = try_polish(total, u, conv)
        if best_total is None or total < best_total - cfg.step_tolerance:
            stalled = 0
        else:
            stalled += 1
        if best_total is None or total < best_total:
            best_total, best_u, best_conv = total, u, conv
        if (can_polish and best_total <= 1e-12) or stalled >= STALL_RESTARTS:
            break

    value = float(sign * best_total)
    # one-sidedness guard: restart 0 only ever improves on the
    # eigendecomposition ensemble, so these hold by construction
    if direction == "min" and value > eigen_avg + 1e-9:
        raise RuntimeError("roof minimum exceeded eigendecomposition average")
    if direction == "max" and value < eigen_avg - 1e-9:
        raise RuntimeError("roof maximum fell below eigendecomposition average")

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
    return RoofResult(value, ens, restarts_used, best_conv, direction, bound_side)


def _require_two_qubit(rho: DensityMatrix) -> None:
    if rho.sig.dims != (2, 2):
        raise MeasureError(f"two-qubit signature required, got {rho.sig.dims}")


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
    _require_two_qubit(rho)
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
