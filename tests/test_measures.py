import hashlib
import zlib

import numpy as np
import pytest

from entbounds import measures as msr
from entbounds.linalg import (DensityMatrix, LinalgError, SystemSignature,
                              partial_trace, transpose_subsystem)
from entbounds.measures import (
    Ensemble,
    MeasureError,
    RoofConfig,
    concurrence_functional,
    concurrence_pure,
    concurrence_wootters,
    convex_roof,
    cren,
    crenoa,
    negativity_mixed,
    negativity_pure,
    scren,
    screnoa,
)
from entbounds.states import (
    PureState,
    SchmidtParams,
    generalized_schmidt_state,
    haar_random_from,
    haar_random_pure,
    reduce_pair,
    to_density,
    w_class_state,
)

from conftest import bell_state, rand_density, rand_product_mixture, rand_pure

S6 = np.sqrt(6.0) / 6.0


def example1_state():
    return generalized_schmidt_state(SchmidtParams((0.5, S6, S6, 0.5, S6)))


def product_state():
    v = np.zeros(4)
    v[0] = 1.0
    return PureState(v, 2)


# -- pure-state measures ----------------------------------------------------

def test_concurrence_pure_basics():
    assert concurrence_pure(bell_state(), (0,)) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_pure(product_state(), (0,)) == pytest.approx(0.0, abs=1e-12)
    assert concurrence_pure(example1_state(), (0,)) == pytest.approx(
        np.sqrt(21) / 6, abs=1e-12)


def test_concurrence_pure_relabeling_invariance(rng):
    # value over a bipartition does not depend on which block is "first"
    # nor on qubit ordering inside the blocks
    for _ in range(20):
        psi = rand_pure(rng, 3)
        a = concurrence_pure(psi, (0,))
        b = concurrence_pure(psi, (1, 2))
        assert a == pytest.approx(b, abs=1e-10)
        c = concurrence_pure(psi, (2, 1))
        assert b == pytest.approx(c, abs=1e-12)


def test_concurrence_pure_split_errors():
    with pytest.raises(MeasureError):
        concurrence_pure(bell_state(), ())
    with pytest.raises(MeasureError):
        concurrence_pure(bell_state(), (0, 1))
    with pytest.raises(MeasureError):
        concurrence_pure(bell_state(), (3,))


def test_wootters_basics():
    assert concurrence_wootters(to_density(product_state())) == pytest.approx(
        0.0, abs=1e-12)
    assert concurrence_wootters(to_density(bell_state())) == pytest.approx(
        1.0, abs=1e-12)
    rho = reduce_pair(to_density(example1_state()), 1)
    assert concurrence_wootters(rho) == pytest.approx(S6, abs=1e-10)


def test_wootters_matches_pure_formula(rng):
    for _ in range(20):
        psi = rand_pure(rng, 2)
        assert concurrence_wootters(to_density(psi)) == pytest.approx(
            concurrence_pure(psi, (0,)), abs=1e-10)


def test_wootters_signature_check(rng):
    rho = rand_density(rng, (2, 2, 2))
    with pytest.raises(MeasureError):
        concurrence_wootters(rho)


def test_negativity_pure_basics():
    assert negativity_pure(bell_state(), (0,)) == pytest.approx(1.0, abs=1e-12)
    assert negativity_pure(product_state(), (0,)) == pytest.approx(0.0, abs=1e-12)
    w = w_class_state(0.5, 0.5, np.sqrt(2) / 2)
    n = negativity_pure(w, (0,))
    assert n == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert n ** 2 == pytest.approx(0.75, abs=1e-12)


def test_negativity_mixed_basics(rng):
    diag = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]), SystemSignature((2, 2)))
    assert negativity_mixed(diag, (0,)) == pytest.approx(0.0, abs=1e-12)

    assert negativity_mixed(to_density(bell_state()), (0,)) == pytest.approx(
        1.0, abs=1e-12)

    mix = DensityMatrix(np.diag([0.5, 0, 0, 0.5]), SystemSignature((2, 2)))
    assert negativity_mixed(mix, (0,)) == pytest.approx(0.0, abs=1e-12)


def test_negativity_mixed_rejects_degenerate_splits():
    # a repeated index transposes its block twice and a split of the whole
    # register transposes everything: either would read 0 on this NPT state
    rho = partial_trace(to_density(haar_random_pure(3, 1)), (0, 1))
    assert negativity_mixed(rho, (0,)) > 0.2
    with pytest.raises(MeasureError, match="duplicate"):
        negativity_mixed(rho, (0, 0))
    with pytest.raises(MeasureError, match="second block"):
        negativity_mixed(rho, (0, 1))
    with pytest.raises(LinalgError):
        negativity_mixed(rho, (2,))


def test_negativity_equals_wootters_on_pure_two_qubit(rng):
    for _ in range(20):
        psi = rand_pure(rng, 2)
        rho = to_density(psi)
        assert negativity_mixed(rho, (0,)) == pytest.approx(
            concurrence_wootters(rho), abs=1e-10)


# -- convex roof ------------------------------------------------------------

def test_roof_pure_state_single_member():
    # at rank 1 the value is exact, so it is its own certified lower end,
    # on two qubits and on larger registers
    rho = to_density(bell_state())
    res = convex_roof(rho, concurrence_functional((0,)), "min", RoofConfig(seed=1))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert len(res.ensemble.members) == 1
    assert res.converged
    assert res.lower == res.value
    res = convex_roof(to_density(example1_state()), concurrence_functional((0,)),
                      "min", RoofConfig(seed=1))
    assert res.lower == res.value


def test_roof_maximally_mixed_concurrence_zero():
    rho = DensityMatrix(np.eye(4) / 4, SystemSignature((2, 2)))
    res = convex_roof(rho, concurrence_functional((0,)), "min",
                      RoofConfig(restarts=8, seed=3))
    assert res.value <= 1e-6


def test_roof_min_matches_wootters(rng):
    cfg = RoofConfig(restarts=16, seed=5)
    for k in range(10):
        psi = haar_random_pure(3, 300 + k)
        rho = reduce_pair(to_density(psi), 1)
        exact = concurrence_wootters(rho)
        res = convex_roof(rho, concurrence_functional((0,)), "min", cfg)
        assert res.value == pytest.approx(exact, abs=1e-3)


def test_roof_ensemble_reconstructs(rng):
    rho = rand_density(rng, (2, 2), rank=2)
    res = convex_roof(rho, concurrence_functional((0,)), "min",
                      RoofConfig(restarts=4, seed=9))
    res.ensemble.validate_against(rho)  # raises on failure
    probs = res.ensemble.probabilities()
    assert probs.sum() == pytest.approx(1.0, abs=1e-8)
    # reported value is the ensemble average of the functional
    avg = res.ensemble.average(lambda s: concurrence_pure(s, (0,)))
    assert res.value == pytest.approx(avg, abs=1e-8)


def test_roof_rank_budget_error(rng):
    rho = rand_density(rng, (2, 2), rank=3)
    with pytest.raises(MeasureError):
        convex_roof(rho, concurrence_functional((0,)), "min",
                    RoofConfig(max_ensemble_size=2, seed=1))


def test_roof_direction_validation(rng):
    rho = rand_density(rng, (2, 2), rank=2)
    with pytest.raises(ValueError):
        convex_roof(rho, concurrence_functional((0,)), "best", RoofConfig(seed=1))


def test_roof_rejects_plain_callable():
    # the roof evaluates its functional through the minor form, so a bare
    # python functional has nothing for it to use
    rho = reduce_pair(to_density(haar_random_pure(3, 77)), 1)
    with pytest.raises(TypeError):
        convex_roof(rho, lambda s: concurrence_pure(s, (0,)), "min",
                    RoofConfig(restarts=4, seed=4))


def test_roof_config_validation():
    with pytest.raises(ValueError):
        RoofConfig(restarts=0)


def test_ensemble_validation_rejects_mismatch():
    rho = to_density(bell_state())
    other = to_density(product_state())
    ens = Ensemble(((1.0, product_state()),))
    ens.validate_against(other)
    with pytest.raises(MeasureError):
        ens.validate_against(rho)


# -- SCREN / SCRENoA --------------------------------------------------------

def test_screnoa_wclass_marginals():
    rho = to_density(w_class_state(0.5, 0.5, np.sqrt(2) / 2))
    assert screnoa(reduce_pair(rho, 1)) == pytest.approx(0.25, abs=2e-3)
    assert screnoa(reduce_pair(rho, 2)) == pytest.approx(0.50, abs=2e-3)


def test_screnoa_pure_input_exact():
    rho = to_density(bell_state())
    assert screnoa(rho) == pytest.approx(
        negativity_pure(bell_state(), (0,)) ** 2, abs=1e-14)


def test_scren_pure_and_separable(rng):
    assert scren(to_density(bell_state())) == pytest.approx(1.0, abs=1e-12)
    sep = rand_product_mixture(rng, 3)
    assert scren(sep) <= 1e-6


def test_scren_matches_wootters_squared():
    for k in range(5):
        rho = reduce_pair(to_density(haar_random_pure(3, 40 + k)), 1)
        target = concurrence_wootters(rho) ** 2
        assert scren(rho) == pytest.approx(
            target, abs=2e-3)


def test_crenoa_matches_assisted_value_oracle():
    # independent closed form: the maximal ensemble-averaged two-qubit
    # negativity equals the sum of the Wootters spectrum, computable as
    # singular values of Psi^T (sy x sy) Psi with rho = Psi Psi^dag
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy).real

    def assisted_value(mat):
        evals, vecs = np.linalg.eigh(mat)
        idx = evals > 1e-14
        psi = vecs[:, idx] * np.sqrt(evals[idx])
        tau = psi.T @ yy @ psi
        return float(np.linalg.svd(tau, compute_uv=False).sum())

    for k in range(8):
        rho = reduce_pair(to_density(haar_random_pure(3, 7000 + k)), 1)
        oracle = assisted_value(rho.mat)
        got = crenoa(rho)
        assert got <= oracle + 1e-9
        assert got >= oracle - 1e-6


def test_cren_crenoa_are_roots():
    rho = reduce_pair(to_density(haar_random_pure(3, 60)), 1)
    assert cren(rho) ** 2 == pytest.approx(scren(rho), abs=1e-10)
    assert crenoa(rho) ** 2 == pytest.approx(screnoa(rho), abs=1e-10)


def test_scren_requires_two_qubits(rng):
    rho = rand_density(rng, (2, 2, 2), rank=2)
    with pytest.raises(MeasureError):
        scren(rho)


def test_separable_states_have_zero_min_measures(rng):
    # min-roof measures vanish on separable mixtures; the assisted (max)
    # measures need not, so they are only checked on pure product states
    cfg = RoofConfig(restarts=4, max_iters=150, seed=31)
    for _ in range(100):
        sep = rand_product_mixture(rng, 3)
        assert negativity_mixed(sep, (0,)) <= 1e-9
        res = convex_roof(sep, concurrence_functional((0,)), "min", cfg)
        assert res.value <= 1e-6

    prod = to_density(product_state())
    assert screnoa(prod) <= 1e-12
    assert scren(prod) <= 1e-12


# -- closed forms ------------------------------------------------------------

def assisted_sq(mat):
    """(sum mu_i)^2 from the singular values of Psi^T (sy x sy) Psi."""
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]).real
    evals, vecs = np.linalg.eigh(mat)
    keep = evals > 1e-14
    psi = vecs[:, keep] * np.sqrt(evals[keep])
    return float(np.linalg.svd(psi.T @ yy @ psi, compute_uv=False).sum()) ** 2


def werner_state(p):
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    mat = p * np.outer(singlet, singlet) + (1 - p) * np.eye(4) / 4
    return DensityMatrix(mat.astype(complex), SystemSignature((2, 2)))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_closed_forms_consistent_by_rank(rng, rank):
    for _ in range(10):
        rho = rand_density(rng, (2, 2), rank=rank)
        c, ca = cren(rho), crenoa(rho)
        assert scren(rho) == pytest.approx(concurrence_wootters(rho) ** 2,
                                           abs=1e-14)
        assert screnoa(rho) == pytest.approx(ca ** 2, abs=1e-14)
        assert screnoa(rho) == pytest.approx(assisted_sq(rho.mat), abs=1e-12)
        assert c <= ca + 1e-12
        # the roof budget is accepted and has no effect
        assert screnoa(rho, RoofConfig(restarts=1, seed=3)) == screnoa(rho)
        if rank == 1:
            assert c == pytest.approx(ca, abs=1e-12)


@pytest.mark.parametrize("p", [0.2, 1 / 3, 0.6, 0.9])
def test_closed_forms_on_werner_states(p):
    # full rank; rho_tilde = rho, so the assisted value is the fidelity 1
    rho = werner_state(p)
    assert cren(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)
    assert crenoa(rho) == pytest.approx(1.0, abs=1e-12)
    assert screnoa(rho) == pytest.approx(1.0, abs=1e-12)
    assert cren(rho) <= crenoa(rho)


def test_closed_forms_require_two_qubits(rng):
    rho = rand_density(rng, (2, 2, 2), rank=2)
    for fn in (cren, crenoa, scren, screnoa):
        with pytest.raises(MeasureError):
            fn(rho)


# -- the minor-form kernel against row-space evaluation ----------------------------

def row_weights(rows, n_qubits, split):
    """p * C(psi / sqrt(p)) of each unnormalized row, as sqrt(2 (p^2 - tr
    rho_A^2)) from the reduced matrix of the split block: the row-space
    evaluation the kernel replaced, kept as its oracle."""
    rest = [i for i in range(n_qubits) if i not in split]
    tensor = rows.reshape((len(rows),) + (2,) * n_qubits)
    axes = [0] + [i + 1 for i in split] + [i + 1 for i in rest]
    mats = tensor.transpose(axes).reshape(len(rows), 2 ** len(split), -1)
    gram = mats @ mats.conj().transpose(0, 2, 1)
    p = np.einsum("nii->n", gram).real
    purity = np.einsum("nij,nji->n", gram, gram).real
    return np.sqrt(np.clip(2.0 * (p * p - purity), 0.0, None))


def rotated_row_values(row_a, row_b, thetas, phis, n_qubits, split):
    """Pair objective of a Givens grid from the rotated state rows."""
    ca = np.repeat(np.cos(thetas), len(phis))[:, None]
    sa = (np.sin(thetas)[:, None] * np.exp(1j * phis)[None, :]).reshape(-1, 1)
    new_a = ca * row_a[None, :] + sa * row_b[None, :]
    new_b = -sa.conj() * row_a[None, :] + ca * row_b[None, :]
    return (row_weights(new_a, n_qubits, split)
            + row_weights(new_b, n_qubits, split))


def kernel_inputs(rng, n_qubits, split, rank, m):
    """Scaled eigenvectors, minor form and a random m x rank isometry."""
    rho = rand_density(rng, (2,) * n_qubits, rank=rank)
    evals, vecs = np.linalg.eigh(rho.mat)
    keep = evals > 1e-10
    scaled = (vecs[:, keep] * np.sqrt(evals[keep])).T
    qf = msr._minor_form(scaled, n_qubits, split).reshape(len(scaled), -1)
    gauss = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    return scaled, qf, np.linalg.qr(gauss)[0]


KERNEL_SPLITS = [(2, (0,)), (2, (1,)), (3, (0,)), (3, (2,)), (3, (0, 2)),
                 (4, (0,)), (4, (1,)), (4, (0, 1)), (4, (1, 3))]


@pytest.mark.parametrize("n_qubits,split", KERNEL_SPLITS)
def test_minor_form_objective_is_weighted_concurrence(rng, n_qubits, split):
    scaled, qf, u = kernel_inputs(rng, n_qubits, split, rank=2, m=4)
    _, mu = msr._member_minors(u, qf)
    got = msr._weights(mu)
    for row, w in zip(u @ scaled, got):
        p = float(np.vdot(row, row).real)
        want = p * concurrence_pure(PureState(row / np.sqrt(p), n_qubits), split)
        assert w == pytest.approx(want, rel=1e-10, abs=1e-12)
    assert got == pytest.approx(row_weights(u @ scaled, n_qubits, split),
                                rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n_qubits,split", KERNEL_SPLITS)
def test_givens_grid_matches_rotated_rows(rng, n_qubits, split):
    scaled, qf, u = kernel_inputs(rng, n_qubits, split, rank=3, m=9)
    qu, mu = msr._member_minors(u, qf)
    rows = u @ scaled
    zoom = (np.linspace(0.3, 0.5, 7), np.linspace(1.0, 1.8, 7))
    for a, b in ((0, 1), (2, 7), (4, 8)):
        coef = np.array([mu[a], 2.0 * (u[a] @ qu[b]), mu[b]])
        for thetas, phis in ((msr._THETAS, msr._PHIS), zoom):
            got = msr._givens_values(coef, msr._givens_grid(thetas, phis))
            want = rotated_row_values(rows[a], rows[b], thetas, phis,
                                      n_qubits, split)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-15)
    coarse = msr._givens_values(coef, msr._COARSE_GRID)
    assert np.array_equal(
        coarse, msr._givens_values(coef, msr._givens_grid(msr._THETAS, msr._PHIS)))


def ensemble_rows(res):
    return np.array([np.sqrt(p) * psi.amps for p, psi in res.ensemble.members])


def test_roof_value_is_its_ensemble_average(rng):
    # checked from the ensemble's own amplitudes, for two-qubit marginals
    # and for a chain-residual shape (qubit x 2 qubits)
    cases = [(reduce_pair(to_density(haar_random_pure(3, 600 + k)), 1), 2)
             for k in range(3)]
    cases += [(partial_trace(to_density(haar_random_pure(4, 610 + k)),
                             (0, 1, 2)), 3) for k in range(2)]
    for rho, n_qubits in cases:
        res = convex_roof(rho, concurrence_functional((0,)), "min",
                          RoofConfig(restarts=4, seed=3))
        avg = float(row_weights(ensemble_rows(res), n_qubits, (0,)).sum())
        assert res.value == pytest.approx(avg, abs=1e-10)
        assert res.value == pytest.approx(
            res.ensemble.average(concurrence_functional((0,))), abs=1e-8)


@pytest.mark.parametrize("direction", ["min"])
def test_roof_guard_rejects_a_value_off_its_ensemble(monkeypatch, direction):
    # a total that no longer belongs to its isometry must raise; moving it
    # towards the optimum keeps the one-sidedness guard from seeing it
    optimize = msr._optimize_ensemble

    def stale(*args):
        # every restart of the stacked block gets a stale total
        totals, us, convs = optimize(*args)
        return totals - 0.1, us, convs

    monkeypatch.setattr(msr, "_optimize_ensemble", stale)
    rho = reduce_pair(to_density(haar_random_pure(3, 620)), 1)
    with pytest.raises(RuntimeError, match="ensemble average"):
        convex_roof(rho, concurrence_functional((0,)), direction,
                    RoofConfig(restarts=2, seed=1))


def test_stopping_rule_on_roof_oracle_inputs(monkeypatch):
    # the acceptance-7 inputs: each roof stops well below the 32-restart
    # cap and still meets the Wootters value to 1e-12 (the 32-restart runs
    # the stopping rule replaced were within 1e-14 of it).  The roof carries
    # the Wootters value as its certified lower end and stops within
    # step_tolerance of it; restart 0 runs alone, so the roof keeps one
    # restart exactly when restart 0 meets the certificate
    restart_block, first_totals = msr._restart_block, []

    def recorded(u, *args):
        totals, us, convs = restart_block(u, *args)
        first_totals.append(totals[0])
        return totals, us, convs

    monkeypatch.setattr(msr, "_restart_block", recorded)
    root = np.random.SeedSequence(20240817)
    alone = 0
    for child in root.spawn(50):
        rng = np.random.Generator(np.random.PCG64(child))
        rho = reduce_pair(to_density(haar_random_from(rng, 3)), 1)
        cfg = RoofConfig(restarts=32, seed=int(child.generate_state(1)[0]))
        first_totals.clear()
        res = convex_roof(rho, concurrence_functional((0,)), "min", cfg)
        assert res.restarts_used < cfg.restarts
        assert res.value == pytest.approx(concurrence_wootters(rho), abs=1e-12)
        assert res.lower == concurrence_wootters(rho)
        assert res.value - res.lower <= cfg.step_tolerance
        met = first_totals[0] - res.lower <= cfg.step_tolerance
        assert (res.restarts_used == 1) == met
        alone += met
    assert alone > 0


def test_certificate_on_a_flat_two_qubit_signature():
    # a 4 x 4 state with signature (4,) is a two-qubit register to the roof,
    # though concurrence_wootters rejects it; the roof takes the certificate
    # from the matrix, stops at restart 0 and returns its value as float.hex
    rho = reduce_pair(to_density(haar_random_pure(3, 700)), 1)
    flat = DensityMatrix(rho.mat, SystemSignature((4,)))
    with pytest.raises(MeasureError):
        concurrence_wootters(flat)
    res = convex_roof(flat, concurrence_functional((0,)), "min", RoofConfig(seed=1))
    assert res.value.hex() == "0x1.94807f61aad5ap-3"
    assert res.lower == concurrence_wootters(rho)
    assert res.restarts_used == 1


# -- the sequential restart loop, kept as the stacked optimizer's oracle -------
#
# convex_roof runs its restarts in stacked blocks; this is the one-restart-at-
# a-time optimizer it replaced, which the stacked one must match bit for bit.

def seq_member_minors(u, qf):
    qu = (u @ qf).reshape(u.shape[0], u.shape[1], -1)
    return qu, np.einsum("il,ilk->ik", u, qu)


def seq_givens_grid(thetas, phis):
    c = np.repeat(np.cos(thetas), len(phis))
    s = np.outer(np.sin(thetas), np.exp(1j * phis)).ravel()
    sc = s.conj()
    grid = np.empty((2, len(c), 3), dtype=complex)
    grid[0, :, 0] = grid[1, :, 2] = c * c
    grid[0, :, 1], grid[0, :, 2] = c * s, s * s
    grid[1, :, 0], grid[1, :, 1] = sc * sc, -c * sc
    return grid


def seq_givens_values(coef, grid):
    w = msr._weights(grid @ coef)
    return w[0] + w[1]


SEQ_COARSE_GRID = seq_givens_grid(msr._THETAS, msr._PHIS)


def seq_optimize_ensemble(u, qf, max_iters, tol):
    u = u.copy()
    qu, mu = seq_member_minors(u, qf)
    w = msr._weights(mu)
    # the pairs one at a time, in the order of the stacked rounds
    order = [(int(a), int(b)) for rnd in msr._rounds(u.shape[0])
             for a, b in zip(*rnd)]
    converged = False
    for _ in range(max_iters):
        improvement = 0.0
        for a, b in order:
            cur = float(w[a] + w[b])
            coef = np.array([mu[a], 2.0 * (u[a] @ qu[b]), mu[b]])
            grid, thetas, phis = SEQ_COARSE_GRID, msr._THETAS, msr._PHIS
            dt = np.pi / 18
            dp = 2 * np.pi / len(phis)
            best = cur
            found = False
            for _round in range(6):
                vals = seq_givens_values(coef, grid)
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
                thetas, phis = t0 + dt * msr._ZOOM, p0 + dp * msr._ZOOM
                grid = seq_givens_grid(thetas, phis)
                dp /= 3.0
            if not found:
                continue
            c, s = np.cos(t0), np.sin(t0) * np.exp(1j * p0)
            rows = np.array([c * u[a] + s * u[b], c * u[b] - s.conj() * u[a]])
            qu_ab, mu_ab = seq_member_minors(rows, qf)
            w_ab = msr._weights(mu_ab)
            new = float(w_ab[0] + w_ab[1])
            if new < cur:
                u[[a, b]], qu[[a, b]], mu[[a, b]], w[[a, b]] = (
                    rows, qu_ab, mu_ab, w_ab)
                improvement += cur - new
        if improvement < tol:
            converged = True
            break
    return float(w.sum()), u, converged


def seq_qr_retract(x):
    q, r = np.linalg.qr(x)
    d = np.diagonal(r)
    phase = np.where(np.abs(d) > 1e-300, d / np.abs(d), 1.0)
    return q * phase


def seq_tangent_basis(u):
    m, r = u.shape
    basis = u @ msr._skew_basis(r)
    if m > r:
        full, _, _ = np.linalg.svd(u, full_matrices=True)
        perp = np.einsum("ac,lk->clak", full[:, r:], np.eye(r))
        perp = np.stack([perp, 1j * perp], axis=2).reshape(-1, m, r)
        basis = np.concatenate([basis, perp])
    return basis


def seq_product_polish(u, qf, iters=40):
    qu, mu = seq_member_minors(u, qf)
    cost = float(np.sum(mu.real ** 2 + mu.imag ** 2))
    lam = 1e-4
    for _ in range(iters):
        if cost < 1e-30:
            break
        basis = seq_tangent_basis(u)
        flat = basis.reshape(len(basis), -1)
        dz = 2.0 * np.einsum("nil,ilk->nik", basis, qu).reshape(len(basis), -1)
        jt = np.concatenate([dz.real, dz.imag], axis=1).T
        rvec = np.concatenate([mu.real.ravel(), mu.imag.ravel()])
        gram = jt.T @ jt
        grad = jt.T @ rvec
        moved = False
        for _try in range(8):
            y = np.linalg.solve(gram + lam * np.eye(len(gram)), -grad)
            cand = seq_qr_retract(u + (y @ flat).reshape(u.shape))
            qu_c, mu_c = seq_member_minors(cand, qf)
            cost_c = float(np.sum(mu_c.real ** 2 + mu_c.imag ** 2))
            if cost_c < cost:
                flat_step = cost - cost_c <= msr.POLISH_MIN_REDUCTION * cost
                u, qu, mu, cost = cand, qu_c, mu_c, cost_c
                lam = max(lam * 0.25, 1e-14)
                moved = True
                break
            lam = min(lam * 8.0, 1e8)
        if not moved or flat_step:
            break
    return u


def sequential_convex_roof(rho, cfg):
    """(value, ensemble rows sqrt(p_i) psi_i, restarts_used, converged) of
    the concurrence roof over split (0,), restarts run one at a time."""
    n_qubits = int(round(np.log2(rho.dim)))
    evals, vecs = np.linalg.eigh(rho.mat)
    idx = np.where(evals > msr.RANK_TOL)[0]
    rank = len(idx)
    m = cfg.max_ensemble_size if cfg.max_ensemble_size is not None else rank * rank
    scaled = (vecs[:, idx] * np.sqrt(evals[idx])).T
    qf = msr._minor_form(scaled, n_qubits, (0,)).reshape(rank, -1)
    # an NPT state (Peres: entangled) polishes only the winning restart,
    # and only on two qubits
    npt = np.linalg.eigvalsh(
        transpose_subsystem(rho.mat, rho.sig.dims, 0))[0] <= -1e-10

    def try_polish(total, u, conv):
        cand = seq_product_polish(u, qf)
        total_c = float(msr._weights(seq_member_minors(cand, qf)[1]).sum())
        if total_c < total:
            return total_c, cand, True
        return total, u, conv

    # on two qubits the Wootters concurrence certifies the roof from below
    lower = msr._wootters_concurrence(rho.mat) if n_qubits == 2 else None
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best_total = best_u = None
    best_conv = False
    restarts_used = stalled = 0
    for j in range(cfg.restarts):
        restarts_used = j + 1
        if j == 0:
            u = np.eye(m, rank, dtype=complex)
        else:
            rng = np.random.Generator(np.random.PCG64(seeds[j]))
            gauss = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
            u = np.linalg.qr(gauss)[0][:, :rank]
        stage1 = cfg.max_iters if npt else min(15, cfg.max_iters)
        total, u, conv = seq_optimize_ensemble(u, qf, stage1, cfg.step_tolerance)
        if not npt:
            t2, u2, c2 = try_polish(total, u, conv)
            if t2 < total:
                total, u, conv = t2, u2, c2
                if total > 1e-12:
                    t3, u3, c3 = seq_optimize_ensemble(u, qf, 10,
                                                       cfg.step_tolerance)
                    if t3 < total:
                        total, u, conv = t3, u3, c3
                    total, u, conv = try_polish(total, u, conv)
            elif cfg.max_iters > stage1:
                t3, u3, c3 = seq_optimize_ensemble(
                    u, qf, cfg.max_iters - stage1, cfg.step_tolerance)
                if t3 < total:
                    total, u, conv = t3, u3, c3
                total, u, conv = try_polish(total, u, conv)
        if best_total is None or total < best_total - cfg.step_tolerance:
            stalled = 0
        else:
            stalled += 1
        if best_total is None or total < best_total:
            best_total, best_u, best_conv = total, u, conv
        if lower is not None and best_total - lower <= cfg.step_tolerance:
            break
        if best_total <= 1e-12 or stalled >= msr.STALL_RESTARTS:
            break
    if npt and lower is not None:
        best_total, best_u, best_conv = try_polish(best_total, best_u, best_conv)
    rows = []
    for row in best_u @ scaled:
        p = float(np.vdot(row, row).real)
        if p >= 1e-12:
            rows.append(np.sqrt(p) * PureState(row / np.sqrt(p), n_qubits).amps)
    return float(best_total), np.array(rows), restarts_used, best_conv


def horodecki_state(b):
    """Horodecki's 2 x 4 state (PLA 232, 333, 1997): entangled with a
    positive partial transpose for 0 < b < 1."""
    mat = np.zeros((8, 8))
    for i in range(3):
        mat[i, i] = mat[i + 5, i + 5] = mat[i, i + 5] = mat[i + 5, i] = b
    mat[3, 3] = b
    mat[4, 4] = mat[7, 7] = (1 + b) / 2
    mat[4, 7] = mat[7, 4] = np.sqrt(1 - b * b) / 2
    return DensityMatrix(mat / (7 * b + 1), SystemSignature((2, 2, 2)))


def oracle_states():
    rng = np.random.default_rng(20240818)
    return {
        "d4": partial_trace(to_density(haar_random_pure(3, 700)), (0, 1)),
        "d8": partial_trace(to_density(haar_random_pure(4, 701)), (0, 1, 2)),
        "q2r3": rand_density(rng, (2, 2), rank=3),
        "q2r4": rand_density(rng, (2, 2), rank=4),
        "q3r3": rand_density(rng, (2, 2, 2), rank=3),
        "q3r4": rand_density(rng, (2, 2, 2), rank=4),
        "sep": rand_product_mixture(rng, 3),
        "ppt": horodecki_state(0.3),
    }


# (state, direction, restarts, max_iters, max_ensemble_size = rank); every
# value of each knob appears.  "min" is the only direction; it stays in the
# case ids
ORACLE_CASES = [
    ("d4", "min", 32, 500, False), ("d4", "min", 1, 1, False),
    ("d8", "min", 32, 500, False), ("d8", "min", 4, 16, True),
    ("q2r3", "min", 4, 16, False), ("q2r4", "min", 2, 1, True),
    # an ensemble of 16 members: 15 stacked rounds of 8 disjoint pairs
    ("q2r4", "min", 2, 16, False),
    # restart 0 misses the Wootters certificate; the next block meets it
    # at restart 1, so the rule drops that block's later restarts
    ("q2r3", "min", 8, 500, False),
    ("q3r3", "min", 1, 15, False), ("q3r4", "min", 4, 500, True),
    ("sep", "min", 32, 500, False), ("sep", "min", 2, 16, True),
    # a nonzero min roof behind a positive partial transpose: restart 0
    # runs on its own, then blocks of the restarts the rule still needs
    ("ppt", "min", 8, 15, True),
]


@pytest.mark.parametrize("name,direction,restarts,max_iters,by_rank", ORACLE_CASES)
def test_stacked_roof_matches_sequential_oracle(name, direction, restarts,
                                                max_iters, by_rank):
    rho = oracle_states()[name]
    rank = int(np.sum(np.linalg.eigvalsh(rho.mat) > msr.RANK_TOL))
    cfg = RoofConfig(restarts=restarts, max_iters=max_iters, seed=11,
                     max_ensemble_size=rank if by_rank else None)
    res = convex_roof(rho, concurrence_functional((0,)), direction, cfg)
    value, rows, restarts_used, converged = sequential_convex_roof(rho, cfg)
    assert res.value == value
    assert np.array_equal(ensemble_rows(res).view(np.int64), rows.view(np.int64))
    assert (res.restarts_used, res.converged) == (restarts_used, converged)
    assert type(res.converged) is bool
    # a certified lower end on two qubits only
    assert res.lower == (concurrence_wootters(rho) if rho.dim == 4 else None)


def test_sweep_block_matches_lone_restarts_when_moves_are_rejected(monkeypatch):
    # a move whose recomputed pair objective is not lower is dropped for
    # its restart alone; rejecting by the rotated rows' own bytes makes the
    # decision the same whether a restart sweeps in a block or by itself
    weights, rejected = msr._weights, []

    def rejecting(mu):
        w = weights(mu)
        if mu.ndim == 3 and mu.shape[1] == 2:  # a rotated pair's minors
            for i in range(len(mu)):
                if zlib.crc32(mu[i].tobytes()) % 3 == 0:
                    w[i] += 1.0
                    rejected.append(i)
        return w

    monkeypatch.setattr(msr, "_weights", rejecting)
    rho = oracle_states()["d8"]
    evals, vecs = np.linalg.eigh(rho.mat)
    idx = evals > msr.RANK_TOL
    scaled = (vecs[:, idx] * np.sqrt(evals[idx])).T
    qf = msr._minor_form(scaled, 3, (0,)).reshape(len(scaled), -1)
    rng = np.random.default_rng(5)
    gauss = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    u = np.linalg.qr(gauss)[0]
    qu, mu = msr._member_minors(u, qf)
    block = [u.copy(), qu, mu, msr._weights(mu)]
    lone = [[x[i:i + 1].copy() for x in block] for i in range(3)]
    for _ in range(3):
        gains = msr._sweep(*block, qf)
        for i, state in enumerate(lone):
            assert gains[i] == msr._sweep(*state, qf)[0]
            for x, y in zip(block, state):
                assert np.array_equal(x[i:i + 1].view(np.int64), y.view(np.int64))
    assert rejected
    assert not any(np.array_equal(block[0][i], u[i]) for i in range(3))


def test_npt_min_roof_polishes_only_the_winner(monkeypatch):
    # an NPT state has no split-product ensemble: its restarts only sweep,
    # and on two qubits one polish of the winning isometry runs after the
    # stopping rule; on more qubits no polish runs at all.  PPT states
    # (separable, or Horodecki's) still polish every restart.  On two
    # qubits the Wootters certificate stops d4 at restart 0 and q2r3 at
    # restart 1; d8 has no certificate and stops on the stall rule
    calls = []
    optimize, polish = msr._optimize_ensemble, msr._product_polish

    def counted_optimize(u, *args):
        calls.append(("sweep", len(u)))
        return optimize(u, *args)

    def counted_polish(u, *args):
        calls.append(("polish", 1))  # each call polishes one isometry
        return polish(u, *args)

    monkeypatch.setattr(msr, "_optimize_ensemble", counted_optimize)
    monkeypatch.setattr(msr, "_product_polish", counted_polish)
    states = oracle_states()
    used = {}
    for name in ("d4", "d8", "q2r3"):
        calls.clear()
        res = convex_roof(states[name], concurrence_functional((0,)), "min",
                          RoofConfig(restarts=8, seed=11))
        used[name] = res.restarts_used
        if name == "d8":
            assert "polish" not in [kind for kind, _ in calls]
            continue
        assert [c for c in calls if c[0] == "polish"] == [("polish", 1)]
        assert calls[-1] == ("polish", 1)
    assert used["d4"] == 1 and used["q2r3"] == 2 and used["d8"] > 1
    for name in ("sep", "ppt"):  # with the knobs of the PPT oracle cases
        calls.clear()
        rank = int(np.sum(np.linalg.eigvalsh(states[name].mat) > msr.RANK_TOL))
        res = convex_roof(states[name], concurrence_functional((0,)), "min",
                          RoofConfig(restarts=8, max_iters=15, seed=11,
                                     max_ensemble_size=rank))
        kinds = [kind for kind, _ in calls]
        assert sum(n for kind, n in calls if kind == "polish") >= res.restarts_used
        assert "sweep" in kinds[kinds.index("polish"):]  # polished mid-restart


@pytest.mark.parametrize("m", range(2, 26))
def test_rounds_cover_every_pair_once_in_disjoint_rounds(m):
    rounds = msr._rounds(m)
    assert len(rounds) == (m - 1 if m % 2 == 0 else m)
    seen = []
    for a, b in rounds:
        assert len(a) == m // 2
        assert np.all(a < b) and b.max() < m
        assert len(set(a.tolist()) | set(b.tolist())) == 2 * len(a)  # disjoint
        seen += zip(a.tolist(), b.tolist())
    assert sorted(seen) == [(a, b) for a in range(m) for b in range(a + 1, m)]


# chain-residual min roofs, A|BC of haar_random_pure(4, s) with verify
# chain's 8 restarts: the value as float.hex and the SHA-256 of the
# ensemble rows, recorded with round-ordered sweeps and no winner polish
D8_RESIDUAL_BITS = {
    9: ("0x1.90a575b96dd0dp-1",
        "94da98ac80d1ee4cf40c4204590ce37292cd71e455432dc3860d7995c587acb7"),
    21: ("0x1.8748b1fc5ab42p-1",
         "338f373fc93cb319aaadec997ed88457c63befa76e71e4bdae7030b7b696a820"),
    33: ("0x1.69a3916be1200p-1",
         "7044e97474a5af5cbdf5a21e94a645137643ea5c637197260bb25d2bc2fbf5e5"),
}


@pytest.mark.parametrize("s", list(D8_RESIDUAL_BITS))
def test_chain_residual_roofs_keep_their_bits(s):
    rho = partial_trace(to_density(haar_random_pure(4, s)), (0, 1, 2))
    res = convex_roof(rho, concurrence_functional((0,)), "min",
                      RoofConfig(restarts=8, seed=s))
    digest = hashlib.sha256(ensemble_rows(res).tobytes()).hexdigest()
    assert (res.value.hex(), digest) == D8_RESIDUAL_BITS[s]


def npt_restart_starts(rho, cfg):
    """Scaled-eigenvector minor form and the first block of restart
    isometries of an NPT min roof, built as convex_roof builds them."""
    n_qubits = int(round(np.log2(rho.dim)))
    evals, vecs = np.linalg.eigh(rho.mat)
    idx = evals > msr.RANK_TOL
    scaled = (vecs[:, idx] * np.sqrt(evals[idx])).T
    rank = len(scaled)
    qf = msr._minor_form(scaled, n_qubits, (0,)).reshape(rank, -1)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    starts = [np.eye(rank * rank, rank, dtype=complex)]
    for j in range(1, 1 + msr.STALL_RESTARTS):
        rng = np.random.Generator(np.random.PCG64(seeds[j]))
        gauss = (rng.standard_normal((rank * rank, rank))
                 + 1j * rng.standard_normal((rank * rank, rank)))
        starts.append(np.linalg.qr(gauss)[0][:, :rank])
    return qf, np.array(starts)


def multi_qubit_npt_input(name):
    """An oracle state at 8 restarts, or the D8_RESIDUAL_BITS residual of
    "chain<s>" with its own knobs."""
    if name.startswith("chain"):
        s = int(name[len("chain"):])
        rho = partial_trace(to_density(haar_random_pure(4, s)), (0, 1, 2))
        return rho, RoofConfig(restarts=8, seed=s)
    return oracle_states()[name], RoofConfig(restarts=8, seed=11)


@pytest.mark.parametrize("name", ["d8", "q3r3", "q3r4"]
                         + [f"chain{s}" for s in D8_RESIDUAL_BITS])
def test_multi_qubit_npt_winner_polish_is_not_kept(name):
    # why convex_roof polishes an NPT winner on two qubits only: with more
    # than one minor per member the polish's sum of |minor|^2 does not
    # share the roof's minimizers, and on these residuals and oracle states
    # polishing the best swept restart never lowers its total
    rho, cfg = multi_qubit_npt_input(name)
    assert np.linalg.eigvalsh(transpose_subsystem(
        rho.mat, rho.sig.dims, 0))[0] <= -1e-10  # NPT
    qf, starts = npt_restart_starts(rho, cfg)
    totals, us, convs = msr._restart_block(starts, qf, cfg, False)
    best = int(np.argmin(totals))
    total, u, kept = msr._try_polish(totals[best], us[best], qf)
    assert not kept
    assert total == totals[best]
    assert np.array_equal(u, us[best])


def test_npt_restart_converges_on_its_first_sweep_without_gain(monkeypatch):
    # an NPT restart is one run of max_iters sweeps, as in the sequential
    # oracle: a restart whose 16th sweep gains nothing has converged
    sweeps = []

    def stub(u, qu, mu, w, qf):
        sweeps.append(len(u))
        return np.full(len(u), 1.0 if len(sweeps) <= 15 else 0.0)

    monkeypatch.setattr(msr, "_sweep", stub)
    cfg = RoofConfig(restarts=4, seed=11)
    qf, starts = npt_restart_starts(oracle_states()["d4"], cfg)
    totals, us, convs = msr._restart_block(starts[:1], qf, cfg, False)
    assert convs.tolist() == [True]
    assert sweeps == [1] * 16
