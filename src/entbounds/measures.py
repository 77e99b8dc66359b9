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
closed forms.  It parameterizes pure-state decompositions of a rank-r
state by m x r isometries acting on the eigendecomposition ensemble,
improves them with coordinate-wise Givens-rotation line searches, and
finishes minimizing roofs with a Levenberg-Marquardt polish on per-member
product-state residuals.  Restarts derive independent sub-seeds from the
configured seed and are merged deterministically (first-best wins), so
results are reproducible and the functional core is safe for concurrent
use.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class PureStateFunctional:
    """Pure-state measure with a vectorized weighted evaluation.

    weighted_batch maps rows of unnormalized state vectors psi~ to
    p * F(psi~ / sqrt(p)) with p = |psi~|^2, the quantity the roof
    averages.  vanishes_on_products marks functionals that are zero
    exactly on states that factor across the split with a single-qubit
    first block; those roofs get the product-feasibility polish.
    """

    def __init__(self, name: str, split: Sequence[int],
                 weighted: Callable[[np.ndarray, int], np.ndarray],
                 scalar: Callable[[PureState], float],
                 vanishes_on_products: bool = False):
        self.name = name
        self.split = tuple(split)
        self._weighted = weighted
        self._scalar = scalar
        self.vanishes_on_products = vanishes_on_products and len(self.split) == 1

    def __call__(self, psi: PureState) -> float:
        return self._scalar(psi)

    def weighted_batch(self, batch: np.ndarray, n_qubits: int) -> np.ndarray:
        return self._weighted(batch, n_qubits)


def _split_blocks(batch: np.ndarray, n_qubits: int, split: tuple[int, ...]):
    """Reshape batch rows to (n, d_first, d_rest) matrices of the split."""
    nb = batch.shape[0]
    rest = tuple(i for i in range(n_qubits) if i not in split)
    da = 2 ** len(split)
    tensor = batch.reshape((nb,) + (2,) * n_qubits)
    axes = (0,) + tuple(i + 1 for i in split) + tuple(i + 1 for i in rest)
    mats = np.ascontiguousarray(tensor.transpose(axes)).reshape(nb, da, -1)
    return mats, axes


def _block_gram(batch: np.ndarray, n_qubits: int,
                split: tuple[int, ...]) -> np.ndarray:
    """Unnormalized reduced matrices of the split block, batched."""
    mats, _ = _split_blocks(batch, n_qubits, split)
    return mats @ mats.conj().transpose(0, 2, 1)


def concurrence_functional(split: Sequence[int] = (0,)) -> PureStateFunctional:
    split = tuple(int(i) for i in split)

    def weighted(batch: np.ndarray, n_qubits: int) -> np.ndarray:
        gram = _block_gram(batch, n_qubits, split)
        p = np.einsum("nii->n", gram).real
        purity = np.einsum("nij,nji->n", gram, gram).real
        return np.sqrt(np.clip(2.0 * (p * p - purity), 0.0, None))

    def scalar(psi: PureState) -> float:
        return concurrence_pure(psi, split)

    return PureStateFunctional("concurrence", split, weighted, scalar,
                               vanishes_on_products=True)


def negativity_functional(split: Sequence[int] = (0,)) -> PureStateFunctional:
    split = tuple(int(i) for i in split)

    def weighted(batch: np.ndarray, n_qubits: int) -> np.ndarray:
        gram = _block_gram(batch, n_qubits, split)
        p = np.einsum("nii->n", gram).real
        evals = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
        roots = np.sqrt(evals).sum(axis=1)
        return np.clip(roots * roots - p, 0.0, None)

    def scalar(psi: PureState) -> float:
        return negativity_pure(psi, split)

    return PureStateFunctional("negativity", split, weighted, scalar,
                               vanishes_on_products=True)


def _wrap_plain_functional(functional: Callable[[PureState], float]):
    """Per-row fallback for functionals without a vectorized form."""

    def weighted(batch: np.ndarray, n_qubits: int) -> np.ndarray:
        out = np.zeros(batch.shape[0])
        for i, row in enumerate(batch):
            p = float(np.vdot(row, row).real)
            if p < 1e-14:
                continue
            out[i] = p * functional(PureState(row / np.sqrt(p), n_qubits))
        return out

    return weighted


# coarse rotation angles plus a geometric ladder of small angles so that
# near-converged configurations still see sub-grid improving moves
_THETAS = np.concatenate([
    np.linspace(np.pi / 2, np.pi / 18, 9),
    (np.pi / 18) * (3.0 ** -np.arange(1.0, 8.0)),
])
_PHIS = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)


def _pair_values(row_a, row_b, thetas, phis, weighted, n_qubits):
    """Objective contributions of a Givens rotation grid on one row pair."""
    ca = np.repeat(np.cos(thetas), len(phis))[:, None]
    sa = (np.sin(thetas)[:, None] * np.exp(1j * phis)[None, :]).reshape(-1, 1)
    new_a = ca * row_a[None, :] + sa * row_b[None, :]
    new_b = -sa.conj() * row_a[None, :] + ca * row_b[None, :]
    vals = weighted(new_a, n_qubits) + weighted(new_b, n_qubits)
    return vals, new_a, new_b


def _optimize_ensemble(psis, weighted, n_qubits, sign, max_iters, tol):
    """Sweep Givens rotations over row pairs until improvement stalls."""
    m = psis.shape[0]
    w = weighted(psis, n_qubits)
    total = float(sign * w.sum())
    converged = False
    for _ in range(max_iters):
        improvement = 0.0
        for a in range(m):
            for b in range(a + 1, m):
                cur = float(sign * (w[a] + w[b]))
                thetas, phis = _THETAS, _PHIS
                dt = np.pi / 18
                dp = 2 * np.pi / len(phis)
                best = cur
                best_rows = None
                # coarse grid with zoom ladder, then shrinking refinements
                for _round in range(6):
                    vals, new_a, new_b = _pair_values(
                        psis[a], psis[b], thetas, phis, weighted, n_qubits)
                    vals = sign * vals
                    k = int(np.argmin(vals))
                    if vals[k] < best - 1e-15:
                        best = float(vals[k])
                        best_rows = (new_a[k], new_b[k])
                        ti, pi = divmod(k, len(phis))
                        t0, p0 = thetas[ti], phis[pi]
                        dt = max(dt / 3.0, abs(t0) * 1e-3 + 1e-6)
                    elif best_rows is None:
                        break
                    else:
                        dt /= 3.0
                    thetas = np.linspace(t0 - dt, t0 + dt, 7)
                    phis = np.linspace(p0 - dp, p0 + dp, 7)
                    dp /= 3.0
                if best_rows is not None and best < cur - 1e-15:
                    psis[a], psis[b] = best_rows
                    pair = np.vstack([psis[a], psis[b]])
                    w_pair = weighted(pair, n_qubits)
                    w[a], w[b] = w_pair
                    improvement += cur - best
        new_total = float(sign * w.sum())
        if improvement < tol:
            total = new_total
            converged = True
            break
        total = new_total
    return total, psis, converged


def _qr_retract(x: np.ndarray) -> np.ndarray:
    """Nearest isometry via QR with a deterministic sign convention."""
    q, r = np.linalg.qr(x)
    d = np.diagonal(r)
    phase = np.where(np.abs(d) > 1e-300, d / np.abs(d), 1.0)
    return q * phase


def _minor_residuals(u, s_blocks, col_pairs):
    """Per-member 2 x 2 minors of the split-block matrices M_i.

    Every minor vanishing means every ensemble member factors across the
    split, so for functionals that vanish on products these are exact
    residuals of the zero-roof feasibility problem.  They are holomorphic
    (quadratic) in the isometry entries.
    """
    mats = np.einsum("il,lab->iab", u, s_blocks)
    res = np.stack([mats[:, 0, j] * mats[:, 1, k]
                    - mats[:, 0, k] * mats[:, 1, j] for j, k in col_pairs],
                   axis=1)
    return res, mats


def _minor_jacobian(s_blocks, mats, col_pairs):
    m, r = mats.shape[0], s_blocks.shape[0]
    jac = np.empty((m, len(col_pairs), r), dtype=complex)
    for p, (j, k) in enumerate(col_pairs):
        jac[:, p, :] = (s_blocks[None, :, 0, j] * mats[:, None, 1, k]
                        + mats[:, None, 0, j] * s_blocks[None, :, 1, k]
                        - s_blocks[None, :, 0, k] * mats[:, None, 1, j]
                        - mats[:, None, 0, k] * s_blocks[None, :, 1, j])
    return jac


def _stiefel_tangent_basis(u):
    """Real basis of the tangent space {d: d^H u + u^H d = 0} at u."""
    m, r = u.shape
    basis = []
    for a in range(r):
        for b in range(a, r):
            t = np.zeros((r, r), dtype=complex)
            if a == b:
                t[a, a] = 1j
                basis.append(u @ t)
            else:
                t[a, b], t[b, a] = 1.0, -1.0
                basis.append(u @ t)
                t = np.zeros((r, r), dtype=complex)
                t[a, b], t[b, a] = 1j, 1j
                basis.append(u @ t)
    if m > r:
        full, _, _ = np.linalg.svd(u, full_matrices=True)
        perp = full[:, r:]
        for c in range(m - r):
            for l in range(r):
                e = np.zeros((m - r, r), dtype=complex)
                e[c, l] = 1.0
                basis.append(perp @ e)
                basis.append(perp @ (1j * e))
    return basis


def _product_polish(u, s_blocks, iters: int = 40):
    """Levenberg-Marquardt on the minor residuals over the isometry
    manifold.

    Pairwise rotations crawl once every member is nearly a product state;
    this drives the smooth zero-residual system quadratically instead.
    Steps are solved in an explicit tangent basis so the QR retraction
    only contributes second-order corrections.
    """
    d_rest = s_blocks.shape[2]
    col_pairs = [(j, k) for j in range(d_rest) for k in range(j + 1, d_rest)]
    res, mats = _minor_residuals(u, s_blocks, col_pairs)
    cost = float(np.sum(np.abs(res) ** 2))
    lam = 1e-4
    for _ in range(iters):
        if cost < 1e-30:
            break
        jac = _minor_jacobian(s_blocks, mats, col_pairs)
        basis = _stiefel_tangent_basis(u)
        cols = []
        for tan in basis:
            dz = np.einsum("ipl,il->ip", jac, tan).ravel()
            cols.append(np.concatenate([dz.real, dz.imag]))
        jt = np.stack(cols, axis=1)
        rvec = np.concatenate([res.ravel().real, res.ravel().imag])
        gram = jt.T @ jt
        grad = jt.T @ rvec
        moved = False
        for _try in range(8):
            y = np.linalg.solve(gram + lam * np.eye(gram.shape[0]), -grad)
            step = sum(yk * tan for yk, tan in zip(y, basis))
            cand = _qr_retract(u + step)
            res_c, mats_c = _minor_residuals(cand, s_blocks, col_pairs)
            cost_c = float(np.sum(np.abs(res_c) ** 2))
            if cost_c < cost:
                u, res, mats, cost = cand, res_c, mats_c, cost_c
                lam = max(lam * 0.25, 1e-14)
                moved = True
                break
            lam = min(lam * 8.0, 1e8)
        if not moved:
            break
    return u


def convex_roof(rho: DensityMatrix, functional, direction: str,
                cfg: RoofConfig | None = None) -> RoofResult:
    """Optimize the ensemble average of a pure-state functional over
    decompositions of rho.

    direction "min" searches for small averages (roof value is then an
    upper bound on the true minimum); "max" for large ones (lower bound on
    the true maximum).  Decompositions are generated from the
    eigendecomposition via m x r isometries; restart 0 starts at the
    eigendecomposition ensemble itself, the rest at Haar-random isometries.
    """
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    cfg = cfg or RoofConfig()
    d = rho.dim
    n_qubits = int(round(np.log2(d)))
    if 2 ** n_qubits != d:
        raise MeasureError(f"roof optimizer requires qubit registers, dim {d}")

    if isinstance(functional, PureStateFunctional):
        weighted = functional.weighted_batch
    else:
        weighted = _wrap_plain_functional(functional)

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
        psi = PureState(scaled[0] / np.linalg.norm(scaled[0]), n_qubits)
        value = float(weighted(psi.amps[None, :], n_qubits)[0])
        ens = Ensemble(((1.0, psi),))
        ens.validate_against(rho)
        return RoofResult(value, ens, 0, True, direction,
                          "upper" if direction == "min" else "lower")

    sign = 1.0 if direction == "min" else -1.0
    eigen_avg = float(weighted(scaled, n_qubits).sum())

    # the zero-roof polish applies when small averages are sought for a
    # functional that vanishes exactly on split-product states
    can_polish = (direction == "min"
                  and isinstance(functional, PureStateFunctional)
                  and functional.vanishes_on_products)
    if can_polish:
        s_blocks, _ = _split_blocks(scaled, n_qubits, functional.split)
        inv_weights = 1.0 / evals[idx]

    def try_polish(total, psis, conv):
        u = (psis @ scaled.conj().T) * inv_weights
        u = _product_polish(u, s_blocks)
        cand = u @ scaled
        total_c = float(sign * weighted(cand, n_qubits).sum())
        if total_c < total:
            return total_c, cand, True
        return total, psis, conv

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best_total = None
    best_psis = None
    best_conv = False
    restarts_used = 0
    for j in range(cfg.restarts):
        restarts_used = j + 1
        if j == 0:
            psis = np.vstack([scaled, np.zeros((m - rank, d), dtype=complex)])
        else:
            rng = np.random.Generator(np.random.PCG64(seeds[j]))
            gauss = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
            q, _ = np.linalg.qr(gauss)
            psis = q[:, :rank] @ scaled
        stage1 = min(15, cfg.max_iters) if can_polish else cfg.max_iters
        total, psis, conv = _optimize_ensemble(
            psis, weighted, n_qubits, sign, stage1, cfg.step_tolerance)
        if can_polish:
            t2, p2, c2 = try_polish(total, psis, conv)
            if t2 < total:
                # polish found a better basin; a short consolidation
                # sweep plus one more polish is enough
                total, psis, conv = t2, p2, c2
                if total > 1e-12:
                    t3, p3, c3 = _optimize_ensemble(
                        psis, weighted, n_qubits, sign, 10, cfg.step_tolerance)
                    if t3 < total:
                        total, psis, conv = t3, p3, c3
                    total, psis, conv = try_polish(total, psis, conv)
            elif cfg.max_iters > stage1:
                t3, p3, c3 = _optimize_ensemble(
                    psis, weighted, n_qubits, sign, cfg.max_iters - stage1,
                    cfg.step_tolerance)
                if t3 < total:
                    total, psis, conv = t3, p3, c3
                total, psis, conv = try_polish(total, psis, conv)
        if best_total is None or total < best_total:
            best_total, best_psis, best_conv = total, psis, conv
        if can_polish and best_total <= 1e-12:
            break

    value = float(sign * best_total)
    # one-sidedness guard: restart 0 only ever improves on the
    # eigendecomposition ensemble, so these hold by construction
    if direction == "min" and value > eigen_avg + 1e-9:
        raise RuntimeError("roof minimum exceeded eigendecomposition average")
    if direction == "max" and value < eigen_avg - 1e-9:
        raise RuntimeError("roof maximum fell below eigendecomposition average")

    members = []
    for row in best_psis:
        p = float(np.vdot(row, row).real)
        if p < 1e-12:
            continue
        members.append((p, PureState(row / np.sqrt(p), n_qubits)))
    ens = Ensemble(tuple(members))
    ens.validate_against(rho)
    return RoofResult(value, ens, restarts_used, best_conv, direction,
                      "upper" if direction == "min" else "lower")


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
