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
closed form here: states other than 2 x 2, the three-qubit chain residual
among them.  On a (2, 2) signature of rank >= 2, as in the roof-oracle
suite, convex_roof returns Wootters' own optimal ensemble (PRL 80, 2245,
1998), built in closed form by _wootters_isometry, and runs no restart;
the Wootters concurrence, rounded down, is its lower end.  Elsewhere
decompositions of a rank-r state are m x r isometries u acting on its
eigendecomposition ensemble, m = r^2.  For any split, C^2 = 4 sum |2 x 2
minors|^2 (Cauchy-Binet; Wootters), and each member's minors are one
quadratic form u_i^T Q u_i, so Q gives the objective, closed-form
Givens-rotation line searches and the Levenberg-Marquardt polish.  A
sweep visits every row pair once, one pair at a time, in the order of
the rounds of disjoint pairs of the circle method (Brent and Luk, SIAM
J. Sci. Stat. Comput. 6, 69, 1985).
Restarts derive independent sub-seeds from the configured seed, each as
it starts, and run one at a time (first-best wins), so results are
reproducible and safe for concurrent use; RoofConfig sets only their
number and seed.  One
stop rule ends the restarts at a certified lower end: once the best
value is within STEP_TOLERANCE of it, no restart can gain more.  A
rank-2 state gets one at restart 0: its support
states are the Bloch sphere, on which the squared concurrence h is a
quadratic; the plane of the roof's LP dual and a decomposition are
fitted together to restart 0's ensemble by Newton on the KKT system, and
the plane's excess over sqrt(h) is found exactly from the stationary
points of a quadratic on the sphere (a 6 x 6 eigenproblem, Gander, Golub
and von Matt, LAA 114/115, 815, 1989, and near a double eigenvalue the
secular equation by bisection), rounded outward.  On an NPT state
restart 0 sweeps once before the fit, and a fit that converges gives
restart 0's ensemble, whose value then lies within the rounding margin
of that lower end.  A roof certified at restart 0 has restarts_used 1.
The polish works on one isometry at a time, inside a restart, and looks
for a split-product ensemble, a zero roof.  A state whose partial
transpose over the split has an eigenvalue below -1e-10 is NPT, hence
entangled (Peres), and has none: each of its restarts (but a fitted
restart 0) is one run of sweeps, with no polish, whose objective does
not share the roof's minimizers there.

A split is the first block of a bipartition: indices into the dims of a
density matrix or the qubits of a pure state, checked by _check_split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

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
# the 4 x 4 Hadamard mix of Wootters' separable ensemble, rows orthonormal
_HADAMARD = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1],
                      [1, -1, -1, 1]]) / 2.0


class MeasureError(ValueError):
    """Unsupported signature or invalid split for a measure."""


def _check_split(split: Sequence[int], dims: tuple[int, ...]) -> tuple[int, ...]:
    """split as subsystem indices into dims, leaving a nonempty rest."""
    split = tuple(int(i) for i in split)
    if not split:
        raise MeasureError("split must name at least one subsystem")
    if len(set(split)) != len(split):
        raise MeasureError(f"duplicate subsystem in split {split}")
    for i in split:
        if not 0 <= i < len(dims):
            raise MeasureError(f"split index {i} out of range for {dims}")
    if len(split) == len(dims):
        raise MeasureError("split must leave a nonempty second block")
    return split


def concurrence_pure(psi: PureState, split: Sequence[int] = (0,)) -> float:
    """sqrt(2 [1 - tr rho_first^2]) for the bipartition split | rest."""
    split = _check_split(split, psi.dims)
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
    return _wootters_spectrum(*np.linalg.eigh(rho_mat))


def _wootters_spectrum(evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """_wootters_mu from the eigendecomposition (evals, vecs) of rho."""
    idx = evals > 1e-14
    psi = vecs[:, idx] * np.sqrt(evals[idx])
    tau = psi.T @ _YY @ psi
    sv = np.linalg.svd(tau, compute_uv=False)
    mu = np.zeros(len(evals))
    mu[: len(sv)] = np.sort(sv)[::-1]
    return mu


def _require_two_qubit(rho: DensityMatrix) -> None:
    if rho.sig.dims != (2, 2):
        raise MeasureError(f"two-qubit signature required, got {rho.sig.dims}")


def concurrence_wootters(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max{mu1 - mu2 - mu3 - mu4, 0}."""
    _require_two_qubit(rho)
    mu = _wootters_mu(rho.mat)
    return float(max(0.0, 2.0 * mu[0] - mu.sum()))


def negativity_pure(psi: PureState, split: Sequence[int] = (0,)) -> float:
    """2 sum_{i<j} sqrt(lam_i lam_j) over the Schmidt spectrum of the split.

    Only the min(d_first, d_rest) largest values are Schmidt values; the
    rest of a larger first block's spectrum is zero up to rounding, whose
    square roots would otherwise enter the sum."""
    split = _check_split(split, psi.dims)
    lams = schmidt_coefficients(psi.amps, psi.dims, split)
    d_first = math.prod(psi.dims[i] for i in split)
    roots = np.sqrt(lams[:min(d_first, math.prod(psi.dims) // d_first)])
    total = 0.0
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            total += roots[i] * roots[j]
    return float(max(0.0, 2.0 * total))


def _transpose_split(rho: DensityMatrix, split: tuple[int, ...]) -> np.ndarray:
    """rho's matrix, transposed over every subsystem of a checked split."""
    mat = rho.mat
    for i in split:
        mat = transpose_subsystem(mat, rho.sig.dims, i)
    return mat


def negativity_mixed(rho: DensityMatrix, split: Sequence[int] = (0,)) -> float:
    """Trace norm of the partial transpose over the split block, minus 1."""
    split = _check_split(split, rho.sig.dims)
    return float(max(0.0, trace_norm(_transpose_split(rho, split)) - 1.0))


# ---------------------------------------------------------------------------
# Convex-roof optimization
# ---------------------------------------------------------------------------

@dataclass
class RoofConfig:
    """Budget of a convex-roof evaluation: at most restarts restarts, the
    random starts derived from seed.  The rest of the optimizer is fixed:
    a rank-r state's ensembles have r^2 members, STEP_TOLERANCE and
    MAX_SWEEPS bound each run of sweeps, and STALL_RESTARTS the restarts.
    A (2, 2) signature runs no restart and reads neither field: its
    Wootters ensemble has r members, or 4 on a separable state.
    """

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class Ensemble:
    """Pure-state decomposition {(p_i, psi_i)} of a target density matrix."""

    members: tuple[tuple[float, PureState], ...]

    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.members])

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
    value itself at rank 1, the Wootters concurrence, rounded down, on a
    (2, 2) signature, the rank-2 certificate of restart 0 on any other
    rank-2 state, whether or not the value met it (None if its exact
    check failed), and None at higher rank.  A roof certified at restart
    0 has restarts_used 1, as has a (2, 2) roof of rank >= 2, whose
    Wootters ensemble is exact and converged.  Elsewhere converged says
    only that the best restart's last sweep gained less than
    STEP_TOLERANCE, that a polish of it was kept or that it is a fitted
    restart 0; it does not mean the value is settled, as other restarts
    may end in other local minima."""

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


def concurrence_functional(split: Sequence[int] = (0,)) -> PureStateFunctional:
    return PureStateFunctional(tuple(int(i) for i in split))


def _split_blocks(batch: np.ndarray, dims: tuple[int, ...],
                  split: tuple[int, ...]) -> np.ndarray:
    """Reshape batch rows to (n, d_first, d_rest) matrices of the split."""
    nb = batch.shape[0]
    rest = tuple(i for i in range(len(dims)) if i not in split)
    tensor = batch.reshape((nb,) + dims)
    axes = (0,) + tuple(i + 1 for i in split) + tuple(i + 1 for i in rest)
    return tensor.transpose(axes).reshape(nb, math.prod(dims[i] for i in split), -1)


def _minor_form(rows: np.ndarray, dims: tuple[int, ...],
                split: tuple[int, ...]) -> np.ndarray:
    """Q of shape (r, r, K) with minors(u @ rows)_i = u_i^T Q u_i.

    Q is the symmetrized bilinear form of the K 2 x 2 minors of the split
    blocks, so its diagonal Q[i, i] holds the minors of rows[i] and u @ Q
    is half the Jacobian of each member's minors in its isometry row.
    """
    s = _split_blocks(rows, dims, split)
    d_first, d_rest = s.shape[1:]
    row_pairs = [(a, b) for a in range(d_first) for b in range(a + 1, d_first)]
    col_pairs = [(j, k) for j in range(d_rest) for k in range(j + 1, d_rest)]
    a, b, j, k = np.array([r + c for r in row_pairs for c in col_pairs]).T
    form = (s[:, None, a, j] * s[None, :, b, k]
            - s[:, None, a, k] * s[None, :, b, j])
    return 0.5 * (form + form.transpose(1, 0, 2))


def _member_minors(u: np.ndarray, qf: np.ndarray):
    """(Q u_i of shape (m, r, K), minors u_i^T Q u_i of shape (m, K)) of
    the rows u (m, r), with qf = Q flattened to (r, r * K)."""
    qu = (u @ qf).reshape(*u.shape, -1)
    return qu, np.einsum("il,ilk->ik", u, qu)


def _weights(mu: np.ndarray) -> np.ndarray:
    """2 ||minors|| over the last axis: p * C of each member."""
    return 2.0 * np.sqrt((mu.real ** 2 + mu.imag ** 2).sum(axis=-1))


def _givens_grid(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Coefficients (2, N, 3) of the rotated rows' minors on the grid of
    every theta with every phi, N = len(thetas) * len(phis).

    The rotation a' = c a + s b, b' = -conj(s) a + c b with c = cos(theta)
    and s = e^{i phi} sin(theta) maps the quadratic minors to
    mu(a') = c^2 mu_a + cs (2 a^T Q b) + s^2 mu_b and
    mu(b') = conj(s)^2 mu_a - c conj(s) (2 a^T Q b) + c^2 mu_b.
    """
    c = np.cos(thetas).repeat(len(phis))
    s = (np.sin(thetas)[:, None] * np.exp(1j * phis)).ravel()
    sc = s.conj()
    grid = np.empty((2, len(c), 3), dtype=complex)
    grid[0, :, 0] = grid[1, :, 2] = c * c
    grid[0, :, 1], grid[0, :, 2] = c * s, s * s
    grid[1, :, 0], grid[1, :, 1] = sc * sc, -c * sc
    return grid


def _givens_values(coef: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Pair objective at every grid point; coef (3, K) stacks mu_a,
    2 a^T Q b and mu_b."""
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
# theta, phi and first zoom half-width at each coarse grid point
_COARSE_START = np.array([
    _THETAS.repeat(len(_PHIS)), np.tile(_PHIS, len(_THETAS)),
    np.maximum(np.pi / 18 / 3.0, np.abs(_THETAS) * 1e-3 + 1e-6).repeat(len(_PHIS))])
_COARSE_START.setflags(write=False)
_ZOOM = np.linspace(-1.0, 1.0, 7)  # each refinement: 7 x 7 around the best

# a run of sweeps ends at a sweep that gains less than this, and the
# restarts once the best is within this of a certified lower end
STEP_TOLERANCE = 1e-9
# a run of sweeps ends after this many at most
MAX_SWEEPS = 500
# restarts stop after this many in a row fail to lower the best by more
# than STEP_TOLERANCE; RoofConfig.restarts is the cap
STALL_RESTARTS = 3
# the polish ends a restart after an accepted step that lowers its cost by
# at most this share of it: the cost is then flat to rounding
POLISH_MIN_REDUCTION = 1e-15


def _optimize_ensemble(u, qf, iters):
    """Sweep Givens rotations over row pairs until improvement stalls.

    u is one isometry (m, r) and iters its sweep budget.  Returns the
    total, the isometry and whether a sweep gained less than
    STEP_TOLERANCE.  Works on a copy of u; a move is kept only when the
    recomputed pair objective is lower than the current one.
    """
    u = u.copy()
    qu, mu = _member_minors(u, qf)
    w = _weights(mu)
    for _ in range(iters):
        if _sweep(u, qu, mu, w, qf) < STEP_TOLERANCE:
            return w.sum(), u, True
    return w.sum(), u, False


@lru_cache(maxsize=None)
def _rounds(m: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Row pairs (a, b), a < b, of an m-member ensemble in the rounds of
    the circle method: m - 1 rounds of m / 2 disjoint pairs for even m, m
    rounds of (m - 1) / 2 for odd m (a dummy row sits out each round), so
    that every pair appears once.  Each round is (a, b) as index arrays.
    A sweep visits the pairs in this order; every recorded roof value was
    computed in it, and any other order would move those values' bits."""
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
    """One Givens line search per row pair of the isometry u, in place, the
    pairs one at a time in the order of _rounds(m); returns the summed
    improvement, added up in that order."""
    gain = 0.0
    for ra, rb in _rounds(len(u)):
        for a, b in zip(ra.tolist(), rb.tolist()):
            cur = w[a] + w[b]
            coef = np.array([mu[a], 2.0 * (u[a] @ qu[b]), mu[b]])
            # the coarse grid with its zoom ladder; a pair that improves on
            # it goes on to five shrinking 7 x 7 refinements
            vals = _givens_values(coef, _COARSE_GRID)
            k = vals.argmin()
            best = vals[k]
            if not best < cur - 1e-15:
                continue
            t0, p0, dt = _COARSE_START[:, k]
            dp = 2 * np.pi / len(_PHIS)
            for _zoom in range(5):
                thetas, phis = t0 + dt * _ZOOM, p0 + dp * _ZOOM
                dp /= 3.0
                vals = _givens_values(coef, _givens_grid(thetas, phis))
                k = vals.argmin()
                if vals[k] < best - 1e-15:
                    best = vals[k]
                    ti, pi = divmod(k, len(_ZOOM))
                    t0, p0 = thetas[ti], phis[pi]
                    dt = max(dt / 3.0, abs(t0) * 1e-3 + 1e-6)
                else:
                    dt /= 3.0
            gain += _rotate_pair(u, qu, mu, w, qf, a, b,
                                 np.cos(t0), np.sin(t0) * np.exp(1j * p0))
    return gain


def _rotate_pair(u, qu, mu, w, qf, a, b, c, s):
    """Rotate rows a and b of the isometry u in place to c u_a + s u_b and
    c u_b - conj(s) u_a, with their qu, mu and w, when the recomputed pair
    objective falls; returns how much it fell, else 0.0."""
    cur = w[a] + w[b]
    rows = np.array([c * u[a] + s * u[b], c * u[b] - s.conj() * u[a]])
    qu_ab, mu_ab = _member_minors(rows, qf)
    w_ab = _weights(mu_ab)
    new = w_ab[0] + w_ab[1]
    if not new < cur:
        return 0.0
    for x, x_ab in (u, rows), (qu, qu_ab), (mu, mu_ab), (w, w_ab):
        x[a], x[b] = x_ab
    return cur - new


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
    the isometry u (m, r), m > r."""
    m, r = u.shape
    full, _, _ = np.linalg.svd(u, full_matrices=True)
    # perp column c placed in column l, then times 1j
    perp = np.einsum("ac,lk->clak", full[:, r:], np.eye(r))
    perp = np.stack([perp, 1j * perp], axis=2).reshape(-1, m, r)
    return np.concatenate([u @ _skew_basis(r), perp])


def _product_polish(u, qf):
    """Levenberg-Marquardt on the minors over the isometry manifold.

    The residuals are every member's minors u_i^T Q u_i and the Jacobian
    is 2 Q u_i, so all of them vanishing means every member factors across
    the split.  Pairwise rotations crawl once every member is nearly a
    product state; this drives the smooth zero-residual system
    quadratically instead.  Steps are solved in an explicit tangent basis
    so the QR retraction only contributes second-order corrections.  u is
    one isometry (m, r).  The polish stops after 40 iterations, once the
    cost is below 1e-30, after 8 failed tries at one step, or after an
    accepted step that lowers the cost by at most POLISH_MIN_REDUCTION
    times the cost (the relative-reduction test of MINPACK's lmder).  Its
    objective is not the roof's, so only PPT restarts, which look for a
    zero roof, run it.
    """
    qu, mu = _member_minors(u, qf)
    cost = float(np.sum(mu.real ** 2 + mu.imag ** 2))
    lam = 1e-4
    for _ in range(40):
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


def _restart(u, qf, ppt):
    """Total, isometry and converged flag of the restart that starts at the
    isometry u (m, r).  A polish is kept only when it lowers the total,
    and a kept one marks the restart converged.

    An NPT state (not ppt) is entangled (Peres) and has no split-product
    ensemble, so the restart is one run of up to MAX_SWEEPS sweeps and no
    polish: with more than one minor per member the polish's sum of
    |minor|^2 does not share the roof's minimizers.
    A PPT state sweeps 15 times and tries the zero-roof polish (the
    concurrence vanishes exactly on split-product states); after a kept
    polish 10 consolidating sweeps are enough, none at a zero roof,
    otherwise the remaining sweeps run, then one more polish."""
    if not ppt:
        return _optimize_ensemble(u, qf, MAX_SWEEPS)
    total, u, conv = _optimize_ensemble(u, qf, 15)
    total, u, kept = _try_polish(total, u, qf)
    conv = conv or kept
    iters = (10 if total > 1e-12 else 0) if kept else MAX_SWEEPS - 15
    if iters > 0:
        t3, u3, c3 = _optimize_ensemble(u, qf, iters)
        if t3 < total:
            total, u, conv = t3, u3, c3
        total, u, again = _try_polish(total, u, qf)
        conv = conv or again
    return total, u, conv


def _ensemble_average(members, dims: tuple[int, ...],
                      split: tuple[int, ...]) -> float:
    """sum_i p_i C(psi_i) over the split, from the members' own amplitudes."""
    form = _minor_form(np.array([psi.amps for _, psi in members]), dims, split)
    probs = np.array([p for p, _ in members])
    return float(probs @ _weights(np.einsum("iik->ik", form)))


def _wootters_isometry(rows: np.ndarray) -> np.ndarray:
    """Isometry u (n, r) whose rows u @ rows are Wootters' optimal ensemble
    (PRL 80, 2245, 1998) of the two-qubit state sum_k rows_k rows_k^H,
    rows (r, 4) its support rows sqrt(ev) * eigvec, r >= 2: n = r members
    of concurrence C each on an entangled state, n = 4 of concurrence 0
    on a separable one.

    1. Takagi: tau = rows Y rows^T, Y = sy x sy, is complex symmetric;
       tau = U diag(lam) U^T with lam descending and U unitary.  With tau =
       A + iB, u_k = p_k + i q_k solves tau conj(u_k) = lam_k u_k exactly
       when (p_k, q_k) is an eigenvector of the real symmetric [[A, B], [B,
       -A]] for lam_k; its spectrum is +-lam, as (-q_k, p_k) belongs to
       -lam_k.  So eigh gives orthonormal u_k within a block of equal lam,
       and the u_k of distinct positive lam are orthogonal.  The QR step
       (_qr_retract) completes the columns of zero lam to a unitary.  The
       rows x = U^H rows then have x_i^T Y x_j = lam_i delta_ij.
    2. C = lam_1 - sum_{j>1} lam_j > 0: y = diag(1, i, i, i) x has y_i^T
       Y y_i = +-lam_i, summing to C, and for real orthogonal O the rows z
       = O y have z_k^T Y z_k = (O D O^T)_kk and ||z_k||^2 = (O G O^T)_kk,
       D = diag(lam_1, -lam_2, ...) and G = Re(conj(y) y^T).  M = D - C G is
       traceless, and r - 1 plane rotations zero its diagonal: each zeroes
       the largest entry d_i against the smallest d_j by the positive root
       of d_i + 2 m_ij tan t + d_j tan^2 t = 0.  Every member then has
       concurrence exactly C.
    3. C <= 0: phases theta_j with sum e^{i theta_j} lam_j = 0 close the
       triangle of sides lam_1, lam_2 and lam_3 + lam_4 (theta_3 =
       theta_4); the Hadamard mix of the rows e^{i theta_j / 2} x_j, the
       rows beyond r zero, has z_k^T Y z_k = sum_j e^{i theta_j} lam_j / 4
       = 0 for every member."""
    r = len(rows)
    tau = rows @ _YY @ rows.T
    lam, vec = np.linalg.eigh(np.block([[tau.real, tau.imag],
                                        [tau.imag, -tau.real]]))
    lam, vec = np.maximum(lam[:-r - 1:-1], 0.0), vec[:, :-r - 1:-1]
    x = _qr_retract(vec[:r] + 1j * vec[r:]).conj().T
    c = lam[0] - lam[1:].sum()
    if c > 0:
        first = np.arange(r) == 0
        y = np.where(first, 1.0, 1j)[:, None] * x
        yr = y @ rows
        m = np.diag(np.where(first, lam, -lam)) - c * (yr.conj() @ yr.T).real
        o = np.eye(r)
        for _ in range(r - 1):
            d = np.diagonal(m)
            i, j = d.argmax(), d.argmin()
            if not d[i] > 0 > d[j]:
                break
            mij = m[i, j]
            root = np.sqrt(mij * mij - d[i] * d[j])
            tan = d[i] / (root - mij) if mij <= 0 else (mij + root) / -d[j]
            rot = np.eye(r)
            rot[[i, j], [i, j]] = 1.0 / np.hypot(1.0, tan)
            rot[i, j] = tan * rot[i, i]
            rot[j, i] = -rot[i, j]
            m, o = rot @ m @ rot.T, rot @ o
        return o @ y
    a, b, rest = lam[0], lam[1], lam[2:].sum()
    cos2 = (rest * rest - a * a - b * b) / (2 * a * b) if a * b > 0 else -1.0
    theta2 = np.arccos(np.clip(cos2, -1.0, 1.0))
    theta3 = np.angle(-(a + b * np.exp(1j * theta2)))
    theta = np.array([0.0, theta2, theta3, theta3])[:r]
    return _HADAMARD[:, :r] @ (np.exp(0.5j * theta)[:, None] * x)


# ---------------------------------------------------------------------------
# Rank-2 certificate
# ---------------------------------------------------------------------------
#
# The unit vectors c_0 phi_0 + c_1 phi_1 of a rank-2 state's support are
# the Bloch points r of S^2, (c_0 conj(c_1) = (x - iy) / 2, |c_0|^2 - |c_1|^2
# = z), and a decomposition with weights p_i reconstructs rho = lam_0
# phi_0 phi_0^H + lam_1 phi_1 phi_1^H exactly when sum p_i = lam_0 + lam_1
# and sum p_i r_i = (0, 0, lam_0 - lam_1).  The member's squared
# concurrence h(r) = 4 sum |minors|^2 is a quadratic in r, so any plane
# l(r) = a + beta . r with l <= sqrt(h) on S^2 bounds the roof from below
# by l at the state's point (LP duality).

# the plane's excess is raised by this before its exact check, so that
# rounding in the check cannot carry the lower end above the roof; where
# the plane touches sqrt(h) at a small value, F's margin 2 eps l there is
# small too, and the margin grows 16-fold per failed check up to 1e-6
RANK2_MARGIN = 2.0 ** -40
# Newton steps of the plane fit at most; it takes 2 or 3 on the three-qubit
# marginals of four-qubit Haar states
FIT_ITERS = 8
# the fit's decomposition replaces restart 0's ensemble only when its KKT
# residual is at most this
FIT_RESIDUAL = 1e-13


def _bloch_quadratic(vecs: np.ndarray, dims: tuple[int, ...],
                     split: tuple[int, ...]):
    """(H, g, c) with h(r) = r^T H r + 2 g^T r + c the squared concurrence
    across the split of the unit vector at Bloch point r of the span of
    the two columns of vecs (orthonormal, d x 2).

    With minors(c_0 phi_0 + c_1 phi_1) = c_0^2 A + 2 c_0 c_1 B + c_1^2 C,
    |c_0|^4, |c_0|^2 c_0 conj(c_1), (c_0 conj(c_1))^2 and the rest are
    polynomials of degree 2 in r."""
    form = _minor_form(vecs.T, dims, split)
    a, b, c = form[0, 0], form[0, 1], form[1, 1]
    a2, b2, c2 = (float(np.vdot(v, v).real) for v in (a, b, c))
    ab, ac, bc = np.vdot(b, a), np.vdot(c, a), np.vdot(c, b)
    xz, yz = 2 * (ab.real - bc.real), 2 * (ab.imag - bc.imag)
    h_mat = np.array([[2 * ac.real, 2 * ac.imag, xz],
                      [2 * ac.imag, -2 * ac.real, yz],
                      [xz, yz, a2 - 4 * b2 + c2]])
    g = np.array([2 * (ab.real + bc.real), 2 * (ab.imag + bc.imag), a2 - c2])
    return h_mat, g, a2 + 4 * b2 + c2


def _bloch_points(coef: np.ndarray):
    """(p, r): weights and unit Bloch points of members given by their
    coordinates (m, 2) in the eigenbasis; members of weight <= 1e-12, which
    the roof's ensemble drops too, are left out."""
    p = (coef.real ** 2 + coef.imag ** 2).sum(axis=1)
    coef, p = coef[p > 1e-12], p[p > 1e-12]
    c01 = coef[:, 0] * coef[:, 1].conj()
    r = np.stack([2 * c01.real, -2 * c01.imag,
                  (coef[:, 0] * coef[:, 0].conj()).real
                  - (coef[:, 1] * coef[:, 1].conj()).real], axis=1)
    return p, r / np.linalg.norm(r, axis=1)[:, None]


def _tangent_bases(r: np.ndarray) -> np.ndarray:
    """Orthonormal tangent bases (k, 3, 2) of S^2 at the unit rows of r."""
    def cross(u, v):
        return (u[:, [1, 2, 0]] * v[:, [2, 0, 1]]
                - u[:, [2, 0, 1]] * v[:, [1, 2, 0]])

    e1 = cross(r, np.eye(3)[np.abs(r).argmin(axis=1)])
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    return np.stack([e1, cross(r, e1)], axis=2)


def _kkt_fit(quad, p: np.ndarray, r: np.ndarray, target: np.ndarray):
    """(residual, a, beta, p, r) of the dual plane and the decomposition
    fitted together, from a decomposition (p, r) of the point target =
    (sum p, sum p r).

    Newton on the KKT system of min sum p_i sqrt(h(r_i)): the plane
    touches sqrt(h) at each member, l(r_i) = sqrt(h(r_i)), with a matching
    tangential gradient, and the members still decompose the target;
    members move on S^2 in their tangent planes.  A product member
    (sqrt(h) <= 1e-8), where sqrt(h) may have no gradient, keeps its place
    and only the touching condition.  Least-squares steps carry the fit
    through the singular systems of decompositions that are not unique
    (two-qubit states, flat roofs).  The plane may be off the optimum: only
    the exact check decides what it certifies.  Returns the iterate with
    the smallest residual, the largest absolute entry of the KKT system's
    residual vector (inf if no iterate had a finite one)."""
    h_mat, g, c = quad
    k = len(p)
    n = 4 + 3 * k
    ar = np.arange(k)
    best = (np.inf, 0.0, np.zeros(3), p, r)
    a = beta = None
    with np.errstate(all="ignore"):  # a diverging fit ends on its best step
        for _ in range(FIT_ITERS):
            hr = r @ h_mat + g                      # half the gradient of h
            f = np.sqrt(np.maximum(np.einsum("ij,ij->i", r, hr + g) + c, 0.0))
            smooth = f > 1e-8
            inv = np.where(smooth, 1.0 / np.where(smooth, f, 1.0), 0.0)
            grad = hr * inv[:, None]                # of sqrt(h)
            e = _tangent_bases(r)
            et = e.transpose(0, 2, 1) * smooth[:, None, None]
            if a is None:  # least squares of the touching conditions alone
                rows = np.zeros((3 * k, 4))
                rows[:k, 0], rows[:k, 1:] = 1.0, r
                rows[k:, 1:] = et.reshape(2 * k, 3)
                rhs = np.concatenate([f, np.einsum("kpi,ki->kp", et, grad).ravel()])
                a, *beta = np.linalg.lstsq(rows, rhs, rcond=None)[0]
                beta = np.array(beta)
            v = beta - grad
            tang = np.einsum("kpi,ki->kp", et, v)
            res = np.concatenate([[p.sum() - target[0]], p @ r - target[1:],
                                  a + r @ beta - f, tang.ravel()])
            err = np.abs(res).max()
            if not err < best[0]:  # also stops on a non-finite residual
                break
            best = (err, a, beta, p, r)
            if err <= 1e-15:
                break
            jac = np.zeros((n, n))
            jac[0, 4:4 + k] = 1.0
            jac[1:4, 4:4 + k] = r.T
            jac[1:4, 4 + k:] = (p[:, None, None] * e).transpose(1, 0, 2).reshape(3, -1)
            jac[4:4 + k, 0] = 1.0
            jac[4:4 + k, 1:4] = r
            touch = np.zeros((k, k, 2))
            touch[ar, ar] = tang
            jac[4:4 + k, 4 + k:] = touch.reshape(k, -1)
            jac[4 + k:, 1:4] = et.reshape(2 * k, 3)
            hess = (h_mat[None] * inv[:, None, None]
                    - hr[:, :, None] * hr[:, None, :] * inv[:, None, None] ** 3)
            curv = np.zeros((k, 2, k, 2))
            # a product member's rows hold its place: t_i = 0
            curv[ar, :, ar, :] = np.where(
                smooth[:, None, None],
                -np.einsum("kpi,kij,kjq->kpq", et, hess, e)
                - np.einsum("ki,ki->k", r, v)[:, None, None] * np.eye(2),
                np.eye(2))
            jac[4 + k:, 4 + k:] = curv.reshape(2 * k, 2 * k)
            step = np.linalg.lstsq(jac, -res, rcond=1e-10)[0]
            a, beta, p = a + step[0], beta + step[1:4], p + step[4:4 + k]
            r = r + np.einsum("kip,kp->ki", e, step[4 + k:].reshape(k, 2))
            r /= np.linalg.norm(r, axis=1)[:, None]
    return best


def _bisect(above, lo, hi):
    """Midpoints of [lo, hi] after 128 halvings (a factor 3e-39), keeping
    the half where above(mid) says the sought point lies above mid."""
    for _ in range(128):
        mid = 0.5 * (lo + hi)
        up = above(mid)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def _secular_points(mu: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Points r = -gt / (mu - lam) (n, 3) at every root lam of
    phi(lam) = sum_i gt_i^2 / (mu_i - lam)^2 = 1, mu ascending.

    phi is convex between poles, so it is monotone on each ray beyond the
    end poles and on each side of its minimum between two poles; on each
    such piece lam is found by bisection in its offset x from a pole, and
    mu_i - lam is taken as (mu_i - mu_k) - x, which keeps its relative
    accuracy however close the poles are.  A piece without a root ends at
    one of its edges: a pole, whose point is not finite and is dropped, or
    phi's minimum, an extra point."""
    w2 = gt * gt
    gn = float(np.sqrt(w2.sum()))
    # (pole k, x range, phi increasing in x); at a root every |r_i| <= 1,
    # so |mu_i - lam| >= |gt_i| and the rays end within |gt| of their pole
    pieces = [(0, -gn, 0.0, True), (2, 0.0, gn, False)]
    with np.errstate(all="ignore"):
        e = mu[None, :] - mu[:2, None]  # offsets from poles 0 and 1
        gap = np.diag(e, 1)
        # phi's minimum between poles j and j + 1 lies above x where
        # phi'(x) = 2 sum w2 / (e - x)^3 < 0
        xm = _bisect(lambda x: (w2 / (e - x[:, None]) ** 3).sum(axis=1) < 0.0,
                     np.zeros(2), gap)
        for j in (0, 1):
            pieces += [(j, 0.0, xm[j], False), (j, xm[j], gap[j], True)]
        k, lo, hi, inc = (np.array(c) for c in zip(*pieces))
        e = mu[None, :] - mu[k][:, None]

        def above(x):  # the root lies above x: phi < 1 there iff it rises
            return ((w2 / (e - x[:, None]) ** 2).sum(axis=1) < 1.0) == inc

        x = _bisect(above, lo, hi)
        pts = -gt / (e - x[:, None])
    return pts[np.isfinite(pts).all(axis=1)]


def _sphere_stationary(m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Unit points (n, 3) that include every stationary point of
    r^T m r + 2 g^T r on S^2.

    Stationary points solve (m - lam I) r = -g, |r| = 1; with m = Q diag(mu)
    Q^T their lam are the real eigenvalues of [[diag(mu), -I], [-g~ g~^T,
    diag(mu)]], g~ = Q^T g (Gander, Golub and von Matt, LAA 114/115, 815,
    1989), and r = -g~ / (mu - lam) in the eigenbasis.  When g~ has no
    component along an eigenvector (the hard case) lam = mu_j and the
    points r_i = -g~_i / (mu_i - mu_j), i != j, r_j = +-sqrt(1 - sum r_i^2)
    are added; these are added for every j, stationary or not, as are
    the points of eigenvalues with an imaginary part below 1e-6 of the
    scale: extra points only make the check stricter.

    Two eigenvalues at most 64 |g~| apart over their eigenspace, where
    that |g~| is at most 1e-3 of the scale, act as one eigenspace: the
    lam near them come out of the eigenproblem too inexactly and the
    hard-case points divide by their gap, so both can miss the minimizer
    (by 6.8e-2 on m = diag(-0.5481250002175433, -0.5481250002118575,
    0.8165114466047447), g = (2.356e-10, -2.816e-10, 0.334)).  Then every
    root of the secular equation is added as well (_secular_points)."""
    mu, q = np.linalg.eigh(m)
    gt = q.T @ g
    big = np.zeros((6, 6))
    big[:3, :3] = big[3:, 3:] = np.diag(mu)
    big[:3, 3:] = -np.eye(3)
    big[3:, :3] = -np.outer(gt, gt)
    lam = np.linalg.eigvals(big)
    scale = 1.0 + np.abs(mu).max() + np.abs(gt).max()
    lam = lam.real[np.abs(lam.imag) <= 1e-6 * scale]
    den = mu[None, :] - lam[:, None]
    ok = np.abs(den) > 1e-12 * scale
    pts = np.where(ok, -gt / np.where(ok, den, 1.0), 0.0)
    den = mu[None, :] - mu[:, None]
    ok = np.abs(den) > 1e-12 * scale
    other = np.where(ok, -gt / np.where(ok, den, 1.0), 0.0)  # row j: r_i, r_j = 0
    room = 1.0 - (other ** 2).sum(axis=1)
    up = np.sqrt(np.maximum(room, 0.0))[:, None] * np.eye(3)
    pts = [pts, (other + up)[room >= 0], (other - up)[room >= 0]]
    pair = np.hypot(gt[:-1], gt[1:])
    if np.any((np.diff(mu) <= 64 * pair) & (pair <= 1e-3 * scale)):
        pts.append(_secular_points(mu, gt))
    pts = np.concatenate(pts)
    norm = np.linalg.norm(pts, axis=1)
    return (pts[norm > 0] / norm[norm > 0, None]) @ q.T


def _quadratic_at(quad, pts: np.ndarray) -> np.ndarray:
    """r^T m r + 2 g^T r + c at the rows r of pts, quad = (m, g, c)."""
    m, g, c = quad
    return np.einsum("ij,jk,ik->i", pts, m, pts) + 2 * pts @ g + c


def _plane_f(quad, a, beta, eps):
    """(m, g, c) of F = h - (l - eps)^2 = r^T m r + 2 g^T r + c."""
    h_mat, g, c = quad
    return (h_mat - np.outer(beta, beta), g - (a - eps) * beta,
            c - (a - eps) ** 2)


def _plane_excess(quad, a, beta) -> float:
    """max(0, max over S^2 of l - sqrt(h)), the least eps for which l - eps
    lies under sqrt(h).

    At that eps the maximizer r* is a zero and local minimum of F = h -
    (l - eps)^2 on the cap l > eps, so a stationary point of F; near it
    l - sqrt(h) at F's stationary point falls short of the maximum only to
    second order in the eps error.  Starting from eps = 0 the excess at
    the stationary points therefore converges quadratically.  Where r* is
    a product state of the support, a zero of h and a cone point of
    sqrt(h), that argument fails, so h's own stationary points, its zeros
    among them, are candidates too.  There h's rounding blurs sqrt(h) by
    up to sqrt(machine epsilon), 1.5e-8, and the result may fall short by
    that much (as it did on random planes over two-qubit supports);
    _plane_holds then fails until the margin covers it."""
    cones = _sphere_stationary(*quad[:2])
    eps = 0.0
    for _ in range(8):
        m, gf, _ = _plane_f(quad, a, beta, eps)
        pts = np.concatenate([_sphere_stationary(m, gf), cones])
        h = _quadratic_at(quad, pts)
        new = max(eps, float((a + pts @ beta - np.sqrt(np.maximum(h, 0.0))).max()))
        if new <= eps + 1e-16:
            return new
        eps = new
    return eps


def _plane_holds(quad, a, beta, eps) -> bool:
    """Exact check that l - eps <= sqrt(h) on S^2.

    Where l <= eps it holds.  On the circle l = eps, F = h - (l - eps)^2 =
    h >= 0, so F >= 0 on the cap l > eps, which is the claim there, holds
    if it holds at F's stationary points inside the cap; each must clear
    a bound on the rounding error of evaluating F."""
    f_quad = _plane_f(quad, a, beta, eps)
    pts = _sphere_stationary(*f_quad[:2])
    f = _quadratic_at(f_quad, pts)
    h_mat, g, c = quad
    scale = (np.abs(h_mat).sum() + 2 * np.abs(g).sum() + abs(c)
             + (abs(a) + np.abs(beta).sum() + eps) ** 2)
    inside = a + pts @ beta > eps
    return bool(np.all(f[inside] >= 64 * np.finfo(float).eps * scale))


def _rank2_fit(evals: np.ndarray, vecs: np.ndarray, coef: np.ndarray,
               dims: tuple[int, ...], split: tuple[int, ...]):
    """(lower, fit): the certified lower end of the concurrence roof of the
    rank-2 state with support eigenvalues evals (2,) and orthonormal
    eigenvectors vecs (d, 2), and the KKT fit (_kkt_fit) it comes from,
    started at a decomposition with coordinates coef (m, 2) in that
    eigenbasis.  lower is l(r_rho) - eps, eps the fitted plane's excess
    (_plane_excess) raised by the least margin from RANK2_MARGIN on that
    passes the exact check (_plane_holds), rounded down and at least 0;
    None if no margin up to 1e-6 passes."""
    quad = _bloch_quadratic(vecs, dims, split)
    total, z = float(evals.sum()), float(evals[0] - evals[1])
    fit = _kkt_fit(quad, *_bloch_points(coef), np.array([total, 0.0, 0.0, z]))
    a, beta = fit[1:3]
    excess, margin = _plane_excess(quad, a, beta), RANK2_MARGIN
    while not _plane_holds(quad, a, beta, excess + margin):
        margin *= 16.0
        if margin > 1e-6:
            return None, fit
    eps = excess + margin
    low = (a - eps) * total + beta[2] * z
    slack = 8 * np.finfo(float).eps * ((abs(a) + eps) * total + abs(beta[2] * z))
    return max(0.0, float(low - slack)), fit


def _bloch_coef(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Coordinates (k, 2) in the support eigenbasis of members of weights
    p at unit Bloch points r: sqrt(p) (c_0, c_1) with c_0 = sqrt((1 + z) /
    2) and c_1 = (x + iy) / (2 c_0), or, where z < 0, c_1 = sqrt((1 - z) /
    2) and c_0 = (x - iy) / (2 c_1), the other pole's chart, so that a
    member at either pole stays finite.  The inverse of _bloch_points up
    to each member's phase."""
    x, y, z = r.T
    pole = np.sqrt((1.0 + np.abs(z)) / 2.0)
    off = (x + 1j * y) / (2.0 * pole)
    north = z >= 0
    coef = np.stack([np.where(north, pole, off.conj()),
                     np.where(north, off, pole)], axis=1)
    return np.sqrt(p)[:, None] * coef


def _rank2_restart(u, qf, ppt, evals, vecs, dims, split):
    """(total, u, converged, lower) of restart 0, from the isometry u (m,
    2), of a rank-2 roof off a (2, 2) signature.

    An NPT state runs one sweep and fits the dual plane and its
    decomposition to the swept ensemble by Newton on the KKT system
    (_rank2_fit), which gives the lower end.  When the fit's residual is
    at most FIT_RESIDUAL and every weight is positive, its decomposition
    is the ensemble of the isometry it defines (_bloch_coef), kept when
    its recomputed total is at most the swept one, and the restart is
    converged.  Otherwise, and on a PPT state, the restart runs as any
    other from u (_restart), certified from its own ensemble."""
    scale = np.sqrt(evals)
    if not ppt:
        swept_total, swept, _ = _optimize_ensemble(u, qf, 1)
        lower, (err, _, _, p, r) = _rank2_fit(evals, vecs, swept * scale,
                                              dims, split)
        if err <= FIT_RESIDUAL and np.all(p > 0):
            fitted = np.zeros_like(u)
            fitted[:len(p)] = _bloch_coef(p, r) / scale
            total = _weights(_member_minors(fitted, qf)[1]).sum()
            if total <= swept_total:
                return total, fitted, True, lower
    total, u, conv = _restart(u, qf, ppt)
    return total, u, conv, _rank2_fit(evals, vecs, u * scale, dims, split)[0]


def _restart_seed(seed: int, j: int) -> np.random.SeedSequence:
    """Sub-seed of restart j: SeedSequence(seed).spawn(n)[j] for any n > j,
    built alone, so that only restarts that run derive one."""
    return np.random.SeedSequence(seed, spawn_key=(j,))


def convex_roof(rho: DensityMatrix, functional: PureStateFunctional,
                direction: str, cfg: RoofConfig | None = None) -> RoofResult:
    """Minimize the ensemble average of the concurrence over decompositions
    of rho; the roof value is then an upper bound on the true minimum.

    direction must be "min", the only roof offered.  A state of rank 1 is
    its own ensemble.  On a (2, 2) signature of rank >= 2 the roof is
    Wootters' optimal ensemble (_wootters_isometry), exact up to rounding:
    no restart runs, restarts_used is 1, converged True and the lower end
    the Wootters concurrence, rounded down.  Elsewhere decompositions are
    generated from the eigendecomposition via m x r isometries, m = r^2;
    restart 0 starts at the eigendecomposition ensemble itself, the rest
    at Haar-random isometries.  At most cfg.restarts restarts run: the
    loop stops once the best is within STEP_TOLERANCE of a certified lower
    end (RoofResult.lower), at rank 2 the plane certificate fitted at
    restart 0 (_rank2_restart), whose fitted ensemble, when kept, ends the
    roof there.  Otherwise, and as fallbacks, it stops once the roof
    reaches zero or after STALL_RESTARTS in a row fail to lower the best
    by more than STEP_TOLERANCE.  Restarts run one at a time (_restart,
    whose polishes all run inside it), each deriving its sub-seed only
    when it runs (_restart_seed); the rule is checked after each, and
    restarts_used counts those that ran.  Each sweep runs the row pairs
    one at a time in the order of _rounds(m).  A state is NPT when its
    partial transpose over the split has an eigenvalue below -1e-10.
    Every roof's value is checked against the eigendecomposition
    ensemble's average and its own ensemble's, which must reconstruct
    rho.  The split names subsystems of rho.sig.dims.
    """
    if direction != "min":
        raise ValueError(f"direction must be 'min', got {direction!r}")
    if not isinstance(functional, PureStateFunctional):
        raise TypeError("convex_roof needs a PureStateFunctional such as "
                        f"concurrence_functional(split), got {functional!r}")
    cfg = cfg or RoofConfig()
    dims, d = rho.sig.dims, rho.dim
    split = _check_split(functional.split, dims)
    if d & (d - 1):  # the ensemble's PureState members are qubit registers
        raise MeasureError(f"roof optimizer requires qubit registers, dim {d}")

    evals, vecs = np.linalg.eigh(rho.mat)
    idx = np.where(evals > RANK_TOL)[0]
    rank = len(idx)
    if rank == 0:
        raise MeasureError("state has no support above rank tolerance")
    m = rank * rank

    scaled = (vecs[:, idx] * np.sqrt(evals[idx])).T  # rows are sqrt(ev) * eigvec

    if rank == 1:
        ens = Ensemble(((1.0, PureState(scaled[0] / np.linalg.norm(scaled[0]))),))
        ens.validate_against(rho)
        value = _ensemble_average(ens.members, dims, split)
        return RoofResult(value, ens, 0, True, value)

    qf = _minor_form(scaled, dims, split).reshape(rank, -1)
    u0 = np.eye(m, rank, dtype=complex)
    eigen_avg = float(_weights(_member_minors(u0, qf)[1]).sum())

    if dims == (2, 2):
        # Wootters' ensemble is the roof's minimum and the Wootters value
        # its lower end, rounded down by 64 ulp of sum mu: rounding put
        # the ensemble's value below it by up to 4.9 ulp of sum mu on
        # 1,947 states, the acceptance-7 and roof-min inputs among them.
        # Both read the RANK_TOL support: the closed form's own 1e-14 cut
        # counts eigenvalues the ensemble drops, which can lift the lower
        # end above the value
        mu = _wootters_spectrum(evals[idx], vecs[:, idx])
        lower = max(0.0, float(2.0 * mu[0] - mu.sum()
                               - 64 * np.finfo(float).eps * mu.sum()))
        best_u = _wootters_isometry(scaled)
        best_total = _weights(_member_minors(best_u, qf)[1]).sum()
        restarts_used, best_conv = 1, True
    else:
        best_total = best_u = lower = None
        best_conv = False
        stalled = 0
        ppt = bool(np.linalg.eigvalsh(_transpose_split(rho, split))[0] > -1e-10)
        for j in range(cfg.restarts):
            if j == 0:
                u = u0
            else:
                rng = np.random.Generator(
                    np.random.PCG64(_restart_seed(cfg.seed, j)))
                gauss = (rng.standard_normal((m, rank))
                         + 1j * rng.standard_normal((m, rank)))
                u = np.linalg.qr(gauss)[0][:, :rank]
            # a rank-2 state is certified at restart 0
            if j == 0 and rank == 2:
                total, u, conv, lower = _rank2_restart(
                    u, qf, ppt, evals[idx], vecs[:, idx], dims, split)
            else:
                total, u, conv = _restart(u, qf, ppt)
            restarts_used = j + 1
            if best_total is None or total < best_total - STEP_TOLERANCE:
                stalled = 0
            else:
                stalled += 1
            if best_total is None or total < best_total:
                best_total, best_u, best_conv = total, u, conv
            if ((lower is not None and best_total - lower <= STEP_TOLERANCE)
                    or best_total <= 1e-12 or stalled >= STALL_RESTARTS):
                break

    value = float(best_total)
    # one-sidedness guard: restart 0 only ever improves on the
    # eigendecomposition ensemble, and Wootters' ensemble is the minimum,
    # so this holds by construction
    if value > eigen_avg + 1e-9:
        raise RuntimeError("roof minimum exceeded eigendecomposition average")

    members = []
    for row in best_u @ scaled:
        p = float(np.vdot(row, row).real)
        if p < 1e-12:
            continue
        members.append((p, PureState(row / np.sqrt(p))))
    ens = Ensemble(tuple(members))
    ens.validate_against(rho)
    # the reported value must be the returned ensemble's own average
    avg = _ensemble_average(members, dims, split)
    if abs(value - avg) > 1e-10:
        raise RuntimeError(f"roof value {value!r} differs from its ensemble "
                           f"average {avg!r}")
    return RoofResult(value, ens, restarts_used, best_conv, lower)


def scren(rho: DensityMatrix) -> float:
    """Square of convex-roof extended negativity, cren(rho)^2 (exact)."""
    return cren(rho) ** 2


def screnoa(rho: DensityMatrix, cfg: RoofConfig | None = None) -> float:
    """Square of convex-roof extended negativity of assistance,
    crenoa(rho)^2 (exact).  cfg is accepted for call compatibility and
    ignored.
    """
    return crenoa(rho) ** 2


def cren(rho: DensityMatrix) -> float:
    """Convex-roof extended negativity of a two-qubit state.

    Equal to the Wootters concurrence (Lee, Kim, Park, Lee, PRA 68,
    062304, 2003), so the value is exact rather than a one-sided roof
    estimate.
    """
    return concurrence_wootters(rho)


def crenoa(rho: DensityMatrix) -> float:
    """Convex-roof extended negativity of assistance of a two-qubit state.

    Equal to the concurrence of assistance sum_i mu_i over the Wootters
    spectrum (Laustsen, Verstraete, van Enk, QIC 3, 64, 2003), so the
    value is exact rather than a one-sided roof estimate.
    """
    _require_two_qubit(rho)
    return float(_wootters_mu(rho.mat).sum())
