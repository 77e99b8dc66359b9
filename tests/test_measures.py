import hashlib
import zlib

import numpy as np
import pytest

from entbounds import measures as msr
from entbounds.linalg import (DensityMatrix, SystemSignature, partial_trace,
                              transpose_subsystem)
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


def test_negativity_pure_reads_one_cut_from_either_side():
    # (1, 2) and (0,) name the same cut of three qubits; the larger block's
    # spectrum has two zero values, which rounding puts near 1e-17, and
    # their square roots once moved the sum by up to 4.8e-8
    for s in range(200):
        psi = haar_random_pure(3, 2000 + s)
        assert abs(negativity_pure(psi, (1, 2))
                   - negativity_pure(psi, (0,))) <= 1e-14


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
    with pytest.raises(MeasureError, match="out of range"):
        negativity_mixed(rho, (2,))


def test_convex_roof_needs_qubit_registers():
    # the ensemble's members are PureState qubit registers
    rho = DensityMatrix(np.eye(6) / 6, (2, 3))
    with pytest.raises(MeasureError, match="requires qubit registers"):
        convex_roof(rho, concurrence_functional((0,)), "min")


BAD_SPLITS = {"empty": (), "repeated": (1, 1), "out-of-range": (3,),
              "whole-register": (2, 0, 1)}


@pytest.mark.parametrize("split", BAD_SPLITS.values(), ids=BAD_SPLITS)
def test_a_bad_split_is_one_error_from_every_entry_point(split):
    # one validator over the signature: the pure-state measures read the
    # qubits of psi, negativity_mixed and the roof the dims of its projector
    psi = haar_random_pure(3, 5)
    rho = to_density(psi)
    calls = (lambda: concurrence_pure(psi, split),
             lambda: negativity_pure(psi, split),
             lambda: negativity_mixed(rho, split),
             lambda: convex_roof(rho, concurrence_functional(split), "min"))
    messages = set()
    for call in calls:
        with pytest.raises(MeasureError) as exc:
            call()
        messages.add(str(exc.value))
    assert len(messages) == 1


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
    avg = sum(p * concurrence_pure(psi, (0,)) for p, psi in res.ensemble.members)
    assert res.value == pytest.approx(avg, abs=1e-8)


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


def test_separable_states_have_zero_min_measures(rng, max_sweeps):
    # min-roof measures vanish on separable mixtures; the assisted (max)
    # measures need not, so they are only checked on pure product states
    max_sweeps(150)
    cfg = RoofConfig(restarts=4, seed=31)
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
    qf = msr._minor_form(scaled, (2,) * n_qubits, split).reshape(len(scaled), -1)
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
            sum(p * concurrence_pure(psi, (0,)) for p, psi in res.ensemble.members),
            abs=1e-8)


@pytest.mark.parametrize("direction", ["min"])
def test_roof_guard_rejects_a_value_off_its_ensemble(monkeypatch, direction):
    # a total that no longer belongs to its isometry must raise; moving it
    # towards the optimum keeps the one-sidedness guard from seeing it
    optimize = msr._optimize_ensemble

    def stale(*args):
        # every restart gets a stale total
        total, u, conv = optimize(*args)
        return total - 0.1, u, conv

    monkeypatch.setattr(msr, "_optimize_ensemble", stale)
    rho = oracle_states()["q3r3"]
    with pytest.raises(RuntimeError, match="ensemble average"):
        convex_roof(rho, concurrence_functional((0,)), direction,
                    RoofConfig(restarts=2, seed=1))


def wootters_lower(rho):
    """The roof's certified lower end on two qubits: the Wootters value
    rounded down by 64 ulp of the concurrence of assistance sum mu."""
    return max(0.0, concurrence_wootters(rho) - 64 * np.finfo(float).eps * crenoa(rho))


@pytest.mark.parametrize("seed", [0, 11, 2 ** 40 + 3])
def test_restart_seeds_are_the_spawned_children(seed):
    # convex_roof derives restart j's sub-seed alone, when restart j runs;
    # it must be the child that spawning them all at once gives
    for j, child in enumerate(np.random.SeedSequence(seed).spawn(32)):
        alone = msr._restart_seed(seed, j)
        assert np.array_equal(alone.generate_state(8), child.generate_state(8))


def test_certificate_needs_a_two_qubit_signature():
    # the certificate is concurrence_wootters on a (2, 2) signature, where
    # the roof is Wootters' ensemble with its value pinned as float.hex
    # (recorded when that ensemble replaced the restarts, 1.7e-16 above the
    # Wootters value); the same matrix with signature (4,) has one
    # subsystem and so no split
    rho = reduce_pair(to_density(haar_random_pure(3, 700)), 1)
    res = convex_roof(rho, concurrence_functional((0,)), "min", RoofConfig(seed=1))
    assert res.value.hex() == "0x1.94807f61aad5ep-3"
    assert res.lower == wootters_lower(rho)
    assert res.restarts_used == 1
    flat = DensityMatrix(rho.mat, SystemSignature((4,)))
    with pytest.raises(MeasureError):
        concurrence_wootters(flat)
    with pytest.raises(MeasureError, match="second block"):
        convex_roof(flat, concurrence_functional((0,)), "min", RoofConfig(seed=1))


# -- the rank-2 certificate -----------------------------------------------------

def support(rho):
    """Support eigenvalues and eigenvectors of a rank-2 state, as
    convex_roof takes them."""
    evals, vecs = np.linalg.eigh(rho.mat)
    idx = evals > msr.RANK_TOL
    assert np.count_nonzero(idx) == 2
    return evals[idx], vecs[:, idx]


def rank2_lower(rho, rows):
    """The rank-2 certificate of rho over split (0,), fitted to the
    decomposition with rows sqrt(p_i) psi_i."""
    evals, vecs = support(rho)
    return msr._rank2_fit(evals, vecs, rows @ vecs.conj(), rho.sig.dims, (0,))[0]


def d8_plane(s):
    """(Bloch quadratic, a, beta, support eigenvectors) of the plane fitted
    to restart 0 of the A,B,C marginal of haar_random_pure(4, s)."""
    rho = partial_trace(to_density(haar_random_pure(4, s)), (0, 1, 2))
    res = convex_roof(rho, concurrence_functional((0,)), "min",
                      RoofConfig(restarts=1, seed=s))
    evals, vecs = support(rho)
    quad = msr._bloch_quadratic(vecs, (2, 2, 2), (0,))
    p, r = msr._bloch_points(ensemble_rows(res) @ vecs.conj())
    a, beta = msr._kkt_fit(quad, p, r, np.array(
        [evals.sum(), 0.0, 0.0, evals[0] - evals[1]]))[1:3]
    return quad, a, beta, vecs


def test_bloch_quadratic_is_the_squared_concurrence(rng):
    rho = partial_trace(to_density(haar_random_pure(4, 5)), (0, 1, 2))
    evals, vecs = support(rho)
    quad = msr._bloch_quadratic(vecs, (2, 2, 2), (0,))
    coef = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    p, r = msr._bloch_points(coef)
    h = np.einsum("ij,jk,ik->i", r, quad[0], r) + 2 * r @ quad[1] + quad[2]
    want = [concurrence_pure(PureState(c @ vecs.T / np.sqrt(w), 3)) ** 2
            for c, w in zip(coef, p)]
    assert np.allclose(h, want, rtol=0, atol=1e-13)


def test_rank2_certificate_under_wootters_on_oracle_inputs():
    # the acceptance-7 inputs, rank-2 two-qubit marginals: the certificate
    # fitted to the roof's own ensemble stays under the Wootters value, the
    # exact roof, and within STEP_TOLERANCE of it; the roof's value may
    # undercut Wootters by rounding, by up to 4.4e-16 on 20 of the 50
    root = np.random.SeedSequence(20240817)
    for child in root.spawn(50):
        rng = np.random.Generator(np.random.PCG64(child))
        rho = reduce_pair(to_density(haar_random_from(rng, 3)), 1)
        res = convex_roof(rho, concurrence_functional((0,)), "min",
                          RoofConfig(seed=int(child.generate_state(1)[0])))
        lower = rank2_lower(rho, ensemble_rows(res))
        exact = concurrence_wootters(rho)
        assert lower <= exact <= res.value + 1e-12
        assert exact - lower <= 1e-9


def w_class_marginal(c):
    """A,B,C marginal of c_0|1000> + c_1|0100> + c_2|0010> + c_3|0001>."""
    amps = np.zeros(16, dtype=complex)
    amps[[8, 4, 2, 1]] = c
    return partial_trace(to_density(PureState(amps, 4)), (0, 1, 2))


def test_rank2_certificate_brackets_w_class_residuals(rng):
    # tr_D |W> is rank 2 with the exact residual 2 |c_0| sqrt(|c_1|^2 +
    # |c_2|^2), its roof flat: every decomposition has that average.  The
    # certificate is met at restart 0 and brackets the exact value
    for k in range(10):
        c = np.abs(rng.standard_normal(4)) * np.exp(2j * np.pi * rng.random(4))
        c /= np.linalg.norm(c)
        rho = w_class_marginal(c)
        exact = 2 * abs(c[0]) * np.hypot(abs(c[1]), abs(c[2]))
        res = convex_roof(rho, concurrence_functional((0,)), "min",
                          RoofConfig(restarts=8, seed=k))
        assert res.lower <= exact <= res.value + 1e-12
        assert res.restarts_used == 1
        assert rank2_lower(rho, ensemble_rows(res)) == res.lower


def chain_marginal(s):
    """The A,B,C marginal of haar_random_pure(4, s), whose A | BC roof is
    verify chain's residual."""
    return partial_trace(to_density(haar_random_pure(4, s)), (0, 1, 2))


def chain_roof(s):
    return convex_roof(chain_marginal(s), concurrence_functional((0,)), "min",
                       RoofConfig(restarts=8, seed=s))


def test_rank2_roofs_end_at_restart_0_on_the_fitted_ensemble():
    # restart 0 sweeps once and the KKT fit to that ensemble is accepted:
    # the fitted ensemble closes the bracket to the rounding margin and the
    # roof stops there
    for s in range(1, 41):
        res = chain_roof(s)
        assert (res.restarts_used, res.converged) == (1, True)
        assert 0.0 < res.value - res.lower <= 1e-12


@pytest.mark.parametrize("s", [3, 8, 9, 21, 33])
def test_rank2_roof_agrees_across_splits_of_one_cut(s):
    # (0,) and (1, 2) name the same A | BC cut; both roofs end on the
    # fitted ensemble, within the rounding margin of the same roof (swept
    # to a 1e-9 stop, seed 9's values differed by 2.1e-10)
    rho = chain_marginal(s)
    a, b = (convex_roof(rho, concurrence_functional(split), "min",
                        RoofConfig(restarts=8, seed=1)).value
            for split in ((0,), (1, 2)))
    assert abs(a - b) <= 2e-12


@pytest.mark.parametrize("keep", [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
def test_rank2_roof_meets_the_w_class_closed_form(keep, rng):
    # the marginal on qubits keep of c_0|1000> + c_1|0100> + c_2|0010> +
    # c_3|0001> has the exact residual 2 |c_0| sqrt(sum_{j in K} |c_j|^2)
    # across qubit 0, K the other kept qubits
    for k in range(5):
        c = np.abs(rng.standard_normal(4)) * np.exp(2j * np.pi * rng.random(4))
        c /= np.linalg.norm(c)
        amps = np.zeros(16, dtype=complex)
        amps[[8, 4, 2, 1]] = c
        rho = partial_trace(to_density(PureState(amps, 4)), keep)
        exact = 2 * abs(c[0]) * np.linalg.norm(c[list(keep[1:])])
        res = convex_roof(rho, concurrence_functional((0,)), "min",
                          RoofConfig(restarts=8, seed=k))
        assert abs(res.value - exact) <= 1e-12
        assert 0.0 < res.value - res.lower <= 1e-12
        assert res.restarts_used == 1


def force_fit_failure(monkeypatch, how):
    """Makes every KKT fit report a residual of 1 ("residual") or its
    first weight negated ("weight"), its plane unchanged."""
    fit = msr._kkt_fit

    def failed(*args):
        err, a, beta, p, r = fit(*args)
        if how == "residual":
            return 1.0, a, beta, p, r
        return err, a, beta, np.concatenate([-p[:1], p[1:]]), r

    monkeypatch.setattr(msr, "_kkt_fit", failed)


def test_fitted_roof_is_never_above_its_fallback(monkeypatch):
    fitted = [chain_roof(s).value for s in range(1, 41)]
    force_fit_failure(monkeypatch, "residual")
    swept = [chain_roof(s).value for s in range(1, 41)]
    assert all(f <= v for f, v in zip(fitted, swept))
    assert sum(f < v for f, v in zip(fitted, swept)) > 30


# the chain-residual roofs of D8_RESIDUAL_BITS when restart 0 keeps its
# swept ensemble, as every rank-2 roof did before the KKT fit's ensemble
# was kept: the value as float.hex, the SHA-256 of the ensemble rows and
# restarts_used.  9 is certified at restart 2 and 21 and 33 at restart 0;
# 8 is not certified (value - lower = 1.1e-9), so it runs the stall rule
D8_FALLBACK_BITS = {
    8: ("0x1.4a155f699155ap-1",
        "55a53e7af4cc946f2e72be3068a7ecb52fe43dec1e8630446bbe9c90c8424a74", 4),
    9: ("0x1.90a575bb16bdcp-1",
        "d7cebad4161c681e18df3b22b5aa2548d520a91ba4324ba3b33544a0427423d6", 2),
    21: ("0x1.8748b1fd55d42p-1",
         "df3aaedcf4b7127343b3f837c4cd3bee2ac04d597bd4fd7a162e894b5e35f458", 1),
    33: ("0x1.69a3916be1200p-1",
         "7044e97474a5af5cbdf5a21e94a645137643ea5c637197260bb25d2bc2fbf5e5", 1),
}


@pytest.mark.parametrize("how", ["residual", "weight"])
@pytest.mark.parametrize("s", list(D8_FALLBACK_BITS))
def test_failed_fit_falls_back_to_the_swept_restart(monkeypatch, s, how):
    force_fit_failure(monkeypatch, how)
    res = chain_roof(s)
    digest = hashlib.sha256(ensemble_rows(res).tobytes()).hexdigest()
    assert (res.value.hex(), digest, res.restarts_used) == D8_FALLBACK_BITS[s]


def test_a_lifted_plane_fails_the_exact_check():
    for s in (9, 21, 33):
        quad, a, beta, _ = d8_plane(s)
        eps = msr._plane_excess(quad, a, beta) + msr.RANK2_MARGIN
        assert msr._plane_holds(quad, a, beta, eps)
        assert not msr._plane_holds(quad, a + 1e-6, beta, eps)


def test_rank2_margin_grows_16_fold_per_failed_check(monkeypatch):
    # two failed exact checks raise the margin from RANK2_MARGIN to 256
    # times it, and the lower end drops by the growth times tr rho
    rho = oracle_states()["d8"]
    res = convex_roof(rho, concurrence_functional((0,)), "min",
                      RoofConfig(restarts=1, seed=11))
    holds, checked = msr._plane_holds, []

    def failing_first(fails):
        def check(quad, a, beta, eps):
            checked.append(eps)
            return len(checked) > fails and holds(quad, a, beta, eps)
        return check

    monkeypatch.setattr(msr, "_plane_holds", failing_first(0))
    plain = rank2_lower(rho, ensemble_rows(res))
    assert len(checked) == 1
    checked.clear()
    monkeypatch.setattr(msr, "_plane_holds", failing_first(2))
    grown = rank2_lower(rho, ensemble_rows(res))
    assert len(checked) == 3
    growth = 255 * msr.RANK2_MARGIN
    assert checked[2] - checked[0] == pytest.approx(growth, rel=1e-6)
    assert plain - grown == pytest.approx(growth * support(rho)[0].sum(),
                                          abs=1e-15)


def test_rank2_roof_without_a_certificate_runs_the_stall_rule(monkeypatch):
    # no margin up to 1e-6 passes after six checks (2^-40 ... 2^-20): no
    # lower end, and the roof stops on the stall rule instead, the
    # STALL_RESTARTS after its best restart, restart 0, which keeps the
    # KKT fit's ensemble whether or not its plane passes the check
    rho = oracle_states()["d8"]
    cfg = RoofConfig(restarts=8, seed=11)
    certified = convex_roof(rho, concurrence_functional((0,)), "min", cfg)
    checked = []

    def never(quad, a, beta, eps):
        checked.append(eps)
        return False

    monkeypatch.setattr(msr, "_plane_holds", never)
    assert rank2_lower(rho, ensemble_rows(certified)) is None
    assert len(checked) == 6
    res = convex_roof(rho, concurrence_functional((0,)), "min", cfg)
    assert res.lower is None and certified.lower is not None
    assert certified.restarts_used == 1
    assert res.restarts_used == certified.restarts_used + msr.STALL_RESTARTS
    assert res.value == certified.value


def fibonacci_sphere(n):
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack([np.sqrt(1 - z * z) * np.cos(phi),
                     np.sqrt(1 - z * z) * np.sin(phi), z], axis=1)


def concurrence_on_sphere(vecs):
    """sqrt(h) at Bloch points: the concurrence across qubit 0 of the unit
    vector c_0 phi_0 + c_1 phi_1 at each, from the 2 x 2 minors of its
    amplitudes, so that it stays accurate where h, a quadratic with O(1)
    terms, would round near its zeros."""
    def sqrt_h(r):
        theta, phi = np.arccos(np.clip(r[..., 2], -1, 1)), np.arctan2(r[..., 1], r[..., 0])
        c = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], -1)
        m = (c @ vecs.T).reshape(r.shape[:-1] + (2, -1))
        minors = (m[..., 0, :, None] * m[..., 1, None, :]
                  - m[..., 0, None, :] * m[..., 1, :, None])
        return np.sqrt(2 * (np.abs(minors) ** 2).sum(axis=(-2, -1)))
    return sqrt_h


def grid_excess(sqrt_h, a, beta):
    """max(0, max of l - sqrt(h)) from a 20,000-point Fibonacci grid, its
    8 best points refined by pattern search in their tangent planes."""
    def excess(r):
        return a + r @ beta - sqrt_h(r)

    grid = fibonacci_sphere(20000)
    vals = excess(grid)
    pts = grid[np.argsort(vals)[-8:]]
    best = excess(pts)
    e = msr._tangent_bases(pts)
    stencil = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], float)
    step = np.full(len(pts), 0.02)
    for _ in range(150):
        cand = pts[:, None, :] + step[:, None, None] * np.einsum(
            "kip,sp->ksi", e, stencil)
        cand /= np.linalg.norm(cand, axis=2)[:, :, None]
        vals = excess(cand)
        k = vals.argmax(axis=1)
        moved = vals[np.arange(len(pts)), k] > best
        pts = np.where(moved[:, None], cand[np.arange(len(pts)), k], pts)
        best = np.maximum(best, vals[np.arange(len(pts)), k])
        step = np.where(moved, step, step / 2)
        e = msr._tangent_bases(pts)
    return max(0.0, float(best.max()))


def test_plane_excess_matches_a_refined_grid(rng):
    # planes off the fit, lifted by up to 1e-2 and tilted, so that the
    # excess is well above zero, and the fitted planes themselves
    for s in range(20):
        quad, a, beta, vecs = d8_plane(100 + s)
        sqrt_h = concurrence_on_sphere(vecs)
        a_off = a + 10 ** rng.uniform(-4, -2)
        beta_off = beta + 1e-3 * rng.standard_normal(3)
        for plane in ((a, beta), (a_off, beta_off)):
            assert msr._plane_excess(quad, *plane) == pytest.approx(
                grid_excess(sqrt_h, *plane), abs=1e-10)


def test_plane_excess_finds_cone_points(rng):
    # a two-qubit support holds product states, zeros of h where sqrt(h)
    # has a cone point and l - sqrt(h) can peak; random planes put the
    # excess there on about half of these inputs.  h's rounding blurs
    # sqrt(h) near its zeros by up to sqrt(machine epsilon), so the excess
    # may fall short by that much, and the exact check must then fail
    for _ in range(20):
        vecs = np.linalg.qr(rng.standard_normal((4, 2))
                            + 1j * rng.standard_normal((4, 2)))[0]
        quad = msr._bloch_quadratic(vecs, (2, 2), (0,))
        a, beta = rng.uniform(-0.5, 0.5), rng.standard_normal(3) * rng.uniform(0, 0.5)
        excess = msr._plane_excess(quad, a, beta)
        want = grid_excess(concurrence_on_sphere(vecs), a, beta)
        assert excess == pytest.approx(want, abs=2e-8)
        if excess < want - 1e-14:
            assert not msr._plane_holds(quad, a, beta, excess)


def sphere_quadratic(m, g, pts):
    return np.einsum("ij,jk,ik->i", pts, m, pts) + 2 * pts @ g


def multistart_extremes(m, g, starts=24, seed=0):
    """(min, max) of r^T m r + 2 g^T r on S^2 from Newton on the sphere,
    started at random points: gradient steps where the tangent Hessian is
    not positive definite, steps of at most 0.2, each kept only when it
    does not raise the value."""
    out = []
    for sign in (1.0, -1.0):
        ms, gs = sign * m, sign * g
        r = np.random.default_rng(seed).standard_normal((starts, 3))
        r /= np.linalg.norm(r, axis=1)[:, None]
        for _ in range(60):
            grad = 2 * (r @ ms + gs)
            lam = np.einsum("ij,ij->i", r, grad) / 2
            e = msr._tangent_bases(r)
            gt = np.einsum("kip,ki->kp", e, grad)
            hess = (2 * np.einsum("kip,ij,kjq->kpq", e, ms, e)
                    - 2 * lam[:, None, None] * np.eye(2))
            pd = np.linalg.eigvalsh(hess)[:, 0] > 1e-14
            newton = -np.linalg.solve(hess + (~pd)[:, None, None] * np.eye(2),
                                      gt[..., None])[..., 0]
            step = np.where(pd[:, None], newton, -0.1 * gt)
            size = np.linalg.norm(step, axis=1)
            step *= np.minimum(1.0, 0.2 / np.maximum(size, 1e-300))[:, None]
            cand = r + np.einsum("kip,kp->ki", e, step)
            cand /= np.linalg.norm(cand, axis=1)[:, None]
            keep = (sphere_quadratic(ms, gs, cand)
                    <= sphere_quadratic(ms, gs, r) + 1e-18)
            r = np.where(keep[:, None], cand, r)
        out.append(sign * sphere_quadratic(ms, gs, r).min())
    return tuple(out)


def dual_extremes(m, g):
    """(min, max) of r^T m r + 2 g^T r on S^2 from its Lagrangian dual: for
    lam below every eigenvalue mu_i of m, lam - sum_i g~_i^2 / (mu_i - lam)
    is at most the minimum, with equality at its maximum (strong duality
    of the trust-region subproblem), and the dual is concave in lam.  The
    maximum is found on a log grid of offsets below the least eigenvalue,
    then by golden-section search."""
    out = []
    for sign in (1.0, -1.0):
        mu, q = np.linalg.eigh(sign * m)
        w2, d = (q.T @ (sign * g)) ** 2, mu - mu[0]

        def dual(x):  # x = mu_0 - lam > 0
            return mu[0] - x - np.sum(w2 / (d + np.atleast_1d(x)[:, None]), axis=1)

        grid = np.logspace(-20, 1, 2000)
        k = int(np.argmax(dual(grid)))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
        for _ in range(100):
            a, b = hi - 0.618 * (hi - lo), lo + 0.618 * (hi - lo)
            if dual(a)[0] >= dual(b)[0]:
                hi = b
            else:
                lo = a
        out.append(sign * max(dual(grid).max(), dual(0.5 * (lo + hi))[0]))
    return tuple(out)


def test_sphere_stationary_points_near_a_double_eigenvalue():
    # eigenvalues 1e-12 to 1e-4 apart with g's components along their
    # eigenvectors 1e-10 to 1e-5, and the repro where the returned points
    # missed the minimum by 6.8e-2: the extremes over the returned points
    # meet the dual bounds within 1e-12, and Newton from random starts
    # finds nothing beyond them
    rng = np.random.default_rng(3)
    cases = [(np.diag([-0.5481250002175433, -0.5481250002118575,
                       0.8165114466047447]),
              np.array([2.356e-10, -2.816e-10, 0.33402928900005446]))]
    for _ in range(40):
        mu = rng.uniform(-1, 1, 3)
        mu[1] = mu[0] + 10 ** rng.uniform(-12, -4)
        gt = np.append(rng.choice([-1, 1], 2) * 10 ** rng.uniform(-10, -5, 2),
                       rng.uniform(-1, 1))
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        cases.append((q @ np.diag(mu) @ q.T, q @ gt))
    for m, g in cases:
        vals = sphere_quadratic(m, g, msr._sphere_stationary(m, g))
        low, high = dual_extremes(m, g)
        assert low - 1e-12 <= vals.min() <= low + 1e-12
        assert high - 1e-12 <= vals.max() <= high + 1e-12
        low, high = multistart_extremes(m, g)
        assert vals.min() <= low + 1e-14 and vals.max() >= high - 1e-14


# -- the sequential optimizer, kept as convex_roof's oracle --------------------
#
# An independent pair-at-a-time optimizer, with the restarts one at a time
# as convex_roof runs them; convex_roof must match it bit for bit.

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


def seq_optimize_ensemble(u, qf, max_iters):
    u = u.copy()
    qu, mu = seq_member_minors(u, qf)
    w = msr._weights(mu)
    # the pairs one at a time, in the order of the rounds of _rounds(m)
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
        if improvement < msr.STEP_TOLERANCE:
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
    full, _, _ = np.linalg.svd(u, full_matrices=True)
    perp = np.einsum("ac,lk->clak", full[:, r:], np.eye(r))
    perp = np.stack([perp, 1j * perp], axis=2).reshape(-1, m, r)
    return np.concatenate([basis, perp])


def seq_product_polish(u, qf):
    qu, mu = seq_member_minors(u, qf)
    cost = float(np.sum(mu.real ** 2 + mu.imag ** 2))
    lam = 1e-4
    for _ in range(40):
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


def seq_bloch_coef(p, r):
    """Rows sqrt(p_i) (c_0, c_1) of the members at Bloch points r_i, each
    in the chart of its nearer pole."""
    rows = np.zeros((len(p), 2), dtype=complex)
    for i, (x, y, z) in enumerate(r):
        if z >= 0:
            c0 = np.sqrt((1.0 + z) / 2.0)
            rows[i] = [c0, (x + 1j * y) / (2.0 * c0)]
        else:
            c1 = np.sqrt((1.0 - z) / 2.0)
            rows[i] = [(x - 1j * y) / (2.0 * c1), c1]
    return np.sqrt(p)[:, None] * rows


def sequential_convex_roof(rho, cfg):
    """(value, ensemble rows sqrt(p_i) psi_i, restarts_used, converged,
    lower) of the concurrence roof over split (0,) of a state on more than
    two qubits, restarts run one at a time."""
    n_qubits = int(round(np.log2(rho.dim)))
    evals, vecs = np.linalg.eigh(rho.mat)
    idx = np.where(evals > msr.RANK_TOL)[0]
    rank = len(idx)
    m = rank * rank
    scaled = (vecs[:, idx] * np.sqrt(evals[idx])).T
    qf = msr._minor_form(scaled, (2,) * n_qubits, (0,)).reshape(rank, -1)
    # an NPT state (Peres: entangled) never polishes
    npt = np.linalg.eigvalsh(
        transpose_subsystem(rho.mat, rho.sig.dims, 0))[0] <= -1e-10

    def try_polish(total, u, conv):
        cand = seq_product_polish(u, qf)
        total_c = float(msr._weights(seq_member_minors(cand, qf)[1]).sum())
        if total_c < total:
            return total_c, cand, True
        return total, u, conv

    def swept_restart(u):
        """Total, isometry and converged flag of a restart from u."""
        stage1 = msr.MAX_SWEEPS if npt else 15
        total, u, conv = seq_optimize_ensemble(u, qf, stage1)
        if not npt:
            t2, u2, c2 = try_polish(total, u, conv)
            if t2 < total:
                total, u, conv = t2, u2, c2
                if total > 1e-12:
                    t3, u3, c3 = seq_optimize_ensemble(u, qf, 10)
                    if t3 < total:
                        total, u, conv = t3, u3, c3
                    total, u, conv = try_polish(total, u, conv)
            elif msr.MAX_SWEEPS > stage1:
                t3, u3, c3 = seq_optimize_ensemble(u, qf, msr.MAX_SWEEPS - stage1)
                if t3 < total:
                    total, u, conv = t3, u3, c3
                total, u, conv = try_polish(total, u, conv)
        return total, u, conv

    # at rank 2 the plane fitted to restart 0's ensemble certifies the roof
    # from below
    lower = None
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
        certified_here = j == 0 and rank == 2
        fitted = None
        if certified_here and npt:
            # one sweep, then the KKT fit to that ensemble; a converged fit
            # with positive weights gives the ensemble when it is no worse
            swept_total, swept, _ = seq_optimize_ensemble(u, qf, 1)
            lower, (err, _, _, p, r) = msr._rank2_fit(
                evals[idx], vecs[:, idx], swept * np.sqrt(evals[idx]),
                (2,) * n_qubits, (0,))
            if err <= 1e-13 and np.all(p > 0):
                fitted = np.zeros_like(u)
                fitted[:len(p)] = seq_bloch_coef(p, r) / np.sqrt(evals[idx])
                total = float(msr._weights(seq_member_minors(fitted, qf)[1]).sum())
                if total > swept_total:
                    fitted = None
        if fitted is not None:
            u, conv = fitted, True
        else:
            total, u, conv = swept_restart(u)
            if certified_here:
                lower = msr._rank2_fit(evals[idx], vecs[:, idx],
                                       u * np.sqrt(evals[idx]),
                                       (2,) * n_qubits, (0,))[0]
        if best_total is None or total < best_total - msr.STEP_TOLERANCE:
            stalled = 0
        else:
            stalled += 1
        if best_total is None or total < best_total:
            best_total, best_u, best_conv = total, u, conv
        if lower is not None and best_total - lower <= msr.STEP_TOLERANCE:
            break
        if best_total <= 1e-12 or stalled >= msr.STALL_RESTARTS:
            break
    rows = []
    for row in best_u @ scaled:
        p = float(np.vdot(row, row).real)
        if p >= 1e-12:
            rows.append(np.sqrt(p) * PureState(row / np.sqrt(p), n_qubits).amps)
    return float(best_total), np.array(rows), restarts_used, best_conv, lower


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
        # drawn after the others, which keep their bits
        "sep3": rand_product_mixture(rng, 3, n_qubits=3),
    }


# (state, direction, restarts, MAX_SWEEPS) of the states off (2, 2), the
# signatures the optimizer runs on.  "min" is the only direction; it stays
# in the case ids
ORACLE_CASES = [
    ("d8", "min", 32, 500), ("d8", "min", 4, 16),
    # restart 0 of q3r4 converges; a random start of its 16-member
    # ensemble runs hundreds of sweeps
    ("q3r3", "min", 1, 15), ("q3r4", "min", 1, 500),
    # a separable rank-3 state, whose restart 0 polish reaches the zero roof
    ("sep3", "min", 32, 500), ("sep3", "min", 2, 16),
    # a nonzero min roof behind a positive partial transpose, where every
    # restart polishes; a 25-member ensemble, so two restarts
    ("ppt", "min", 2, 15),
]


@pytest.mark.parametrize("name,direction,restarts,sweeps", ORACLE_CASES)
def test_stacked_roof_matches_sequential_oracle(name, direction, restarts,
                                                sweeps, max_sweeps):
    rho = oracle_states()[name]
    rank = int(np.sum(np.linalg.eigvalsh(rho.mat) > msr.RANK_TOL))
    max_sweeps(sweeps)
    cfg = RoofConfig(restarts=restarts, seed=11)
    res = convex_roof(rho, concurrence_functional((0,)), direction, cfg)
    value, rows, restarts_used, converged, lower = sequential_convex_roof(rho, cfg)
    assert res.value == value
    assert np.array_equal(ensemble_rows(res).view(np.int64), rows.view(np.int64))
    assert (res.restarts_used, res.converged) == (restarts_used, converged)
    assert type(res.converged) is bool
    # a certified lower end at rank 2
    assert res.lower == lower
    assert (lower is None) == (rank > 2)


def test_sweeps_match_the_oracle_when_moves_are_rejected(monkeypatch):
    # a move whose recomputed pair objective is not lower is dropped;
    # rejecting by the rotated rows' own bytes forces that path, and the
    # sweep must drop the same moves as the oracle
    weights, rejected = msr._weights, []

    def rejecting(mu):
        w = weights(mu)
        if mu.shape[-2] == 2:  # a rotated pair's minors
            for i, pair in enumerate(mu.reshape(-1, 2, mu.shape[-1])):
                if zlib.crc32(pair.tobytes()) % 3 == 0:
                    w.reshape(-1, 2)[i] += 1.0
                    rejected.append(i)
        return w

    monkeypatch.setattr(msr, "_weights", rejecting)
    rho = oracle_states()["d8"]
    evals, vecs = np.linalg.eigh(rho.mat)
    idx = evals > msr.RANK_TOL
    scaled = (vecs[:, idx] * np.sqrt(evals[idx])).T
    qf = msr._minor_form(scaled, (2, 2, 2), (0,)).reshape(len(scaled), -1)
    rng = np.random.default_rng(5)
    gauss = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    for u in np.linalg.qr(gauss)[0]:
        for sweeps in (1, 3):
            total, got, conv = msr._optimize_ensemble(u, qf, sweeps)
            want_total, want, want_conv = seq_optimize_ensemble(u, qf, sweeps)
            assert (total, conv) == (want_total, want_conv)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert not np.array_equal(got, u)
    assert rejected


def test_min_roof_polishes_inside_each_restart(monkeypatch, max_sweeps):
    # an NPT state has no split-product ensemble: each restart is one run
    # of sweeps and no polish, so the stopping rule judges swept totals;
    # d8's restart 0 sweeps once and keeps the KKT fit's ensemble, which
    # meets its rank-2 certificate.  PPT states (separable, or
    # Horodecki's) still polish every restart
    calls = []
    optimize, polish = msr._optimize_ensemble, msr._product_polish

    def counted_optimize(*args):
        calls.append("sweep")
        return optimize(*args)

    def counted_polish(*args):
        calls.append("polish")
        return polish(*args)

    monkeypatch.setattr(msr, "_optimize_ensemble", counted_optimize)
    monkeypatch.setattr(msr, "_product_polish", counted_polish)
    states = oracle_states()
    res = convex_roof(states["d8"], concurrence_functional((0,)), "min",
                      RoofConfig(restarts=8, seed=11))
    assert res.restarts_used == 1
    assert calls == ["sweep"]
    max_sweeps(15)  # the budget of the PPT oracle cases
    for name in ("sep3", "ppt"):
        calls.clear()
        res = convex_roof(states[name], concurrence_functional((0,)), "min",
                          RoofConfig(restarts=2, seed=11))
        if name == "sep3":
            # restart 0's polish reaches the zero roof, which ends the
            # restart and the roof
            assert res.value <= 1e-12 and res.restarts_used == 1
            assert calls == ["sweep", "polish"]
            continue
        assert calls.count("polish") >= res.restarts_used
        assert "sweep" in calls[calls.index("polish"):]  # polished mid-restart


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
# chain's 8 restarts: the value as float.hex, the SHA-256 of the ensemble
# rows and restarts_used, recorded when restart 0 came to keep the KKT
# fit's ensemble.  Each roof is certified at restart 0, 9.1e-13 above its
# lower end, and each value is 3.5e-13 to 1.1e-9 below its swept one
# (D8_FALLBACK_BITS), of which 8 was not certified and 9 only at restart 2
D8_RESIDUAL_BITS = {
    8: ("0x1.4a155f60286c4p-1",
        "791b6c1a87e5c1138ddcac18c696cb4bc386133a4cd934453b238658386a7329", 1),
    9: ("0x1.90a575b550acap-1",
        "c003b64db9686b39e789b1147c21f4c8dea852e038e1271fcd3ab7812e45bbbf", 1),
    21: ("0x1.8748b1fb72ca0p-1",
         "fd7e8de140a9e0b1037033d316a54682d8ec2f2f733766379a8c7e8af5abb3eb", 1),
    33: ("0x1.69a3916bdff9cp-1",
         "cc496a1201a0c3a2470ace19d2a8255e1a3017c6f84b50e29bc444d6e2bf4f0d", 1),
}


@pytest.mark.parametrize("s", list(D8_RESIDUAL_BITS))
def test_chain_residual_roofs_keep_their_bits(s):
    rho = partial_trace(to_density(haar_random_pure(4, s)), (0, 1, 2))
    cfg = RoofConfig(restarts=8, seed=s)
    res = convex_roof(rho, concurrence_functional((0,)), "min", cfg)
    digest = hashlib.sha256(ensemble_rows(res).tobytes()).hexdigest()
    assert (res.value.hex(), digest, res.restarts_used) == D8_RESIDUAL_BITS[s]
    assert 0.0 < res.lower <= res.value
    # certified to the rounding margin by the fitted ensemble
    assert res.value - res.lower <= 1e-12


def npt_restart_starts(rho, cfg):
    """Scaled-eigenvector minor form and the starting isometries of restart
    0 and the STALL_RESTARTS after it, which the stall rule always runs, of
    an NPT min roof, built as convex_roof builds them."""
    n_qubits = int(round(np.log2(rho.dim)))
    evals, vecs = np.linalg.eigh(rho.mat)
    idx = evals > msr.RANK_TOL
    scaled = (vecs[:, idx] * np.sqrt(evals[idx])).T
    rank = len(scaled)
    qf = msr._minor_form(scaled, (2,) * n_qubits, (0,)).reshape(rank, -1)
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
    # why convex_roof never polishes an NPT restart: with more than one
    # minor per member the polish's sum of |minor|^2 does not
    # share the roof's minimizers, and on these residuals and oracle states
    # polishing the best swept restart never lowers its total
    rho, cfg = multi_qubit_npt_input(name)
    assert np.linalg.eigvalsh(transpose_subsystem(
        rho.mat, rho.sig.dims, 0))[0] <= -1e-10  # NPT
    qf, starts = npt_restart_starts(rho, cfg)
    totals, us, _ = zip(*(msr._restart(u, qf, False) for u in starts))
    best = int(np.argmin(totals))
    total, u, kept = msr._try_polish(totals[best], us[best], qf)
    assert not kept
    assert total == totals[best]
    assert np.array_equal(u, us[best])


def test_npt_restart_converges_on_its_first_sweep_without_gain(monkeypatch):
    # an NPT restart is one run of up to MAX_SWEEPS sweeps, as in the
    # sequential oracle: a restart whose 16th sweep gains nothing has
    # converged
    sweeps = []

    def stub(u, qu, mu, w, qf):
        sweeps.append(u)
        return 1.0 if len(sweeps) <= 15 else 0.0

    monkeypatch.setattr(msr, "_sweep", stub)
    cfg = RoofConfig(restarts=4, seed=11)
    rho = oracle_states()["d4"]
    qf, starts = npt_restart_starts(rho, cfg)
    total, u, conv = msr._restart(starts[0], qf, False)
    assert conv is True
    assert len(sweeps) == 16


@pytest.mark.parametrize("name", ["q2r3", "q2r4"])
def test_two_qubit_npt_roof_stops_at_its_polished_first_restart(name):
    # these coupled states once took restart 0's sweeps and a polish to come
    # within STEP_TOLERANCE of the Wootters value; Wootters' constructed
    # ensemble now counts as that one restart and meets the same bound
    cfg = RoofConfig(restarts=8, seed=11)
    res = convex_roof(oracle_states()[name], concurrence_functional((0,)),
                      "min", cfg)
    assert res.restarts_used == 1
    assert 0.0 <= res.value - res.lower <= msr.STEP_TOLERANCE


def roof_min_pool_pairs(seeds):
    """The two-qubit marginals of the benchmark's roof-min pools of the
    given seeds, with their roof seeds: per seed, 16 Haar states, three in
    four of three qubits, each followed by its roof seed draw."""
    for seed in seeds:
        rng = np.random.Generator(np.random.PCG64(seed))
        for k in range(16):
            psi = haar_random_from(rng, 4 if k % 4 == 0 else 3)
            roof_seed = int(rng.integers(2 ** 32))
            if k % 4:
                yield partial_trace(to_density(psi), (0, 1)), roof_seed


def acceptance_7_inputs():
    root = np.random.SeedSequence(20240817)
    for child in root.spawn(50):
        rng = np.random.Generator(np.random.PCG64(child))
        yield (reduce_pair(to_density(haar_random_from(rng, 3)), 1),
               int(child.generate_state(1)[0]))


# -- two-qubit roofs: Wootters' optimal ensemble -------------------------------

def near_werner_state(p, eps, rng):
    """werner_state(p) moved by eps times a random positive matrix: a
    Wootters spectrum that is degenerate up to eps."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mat = werner_state(p).mat + eps * (g @ g.conj().T)
    return DensityMatrix(mat / np.trace(mat).real, SystemSignature((2, 2)))


def two_qubit_inputs(family):
    """The two-qubit states of one family.  rank-1 ... rank-4 and product
    are drawn in that order from one generator, as are the near-Werner
    states from another; werner has the degenerate Wootters spectra and
    the C = 0 edge at p = 1/3."""
    if family == "oracle":
        return [oracle_states()[k] for k in ("d4", "q2r3", "q2r4", "sep")]
    if family == "acceptance-7":
        return [rho for rho, _ in acceptance_7_inputs()]
    if family == "roof-min":
        return [rho for rho, _ in roof_min_pool_pairs(range(1, 11))]
    if family == "werner":
        return [werner_state(p) for p in (0.0, 1 / 3, 1.0)]
    if family == "diagonal":
        mats = [np.diag([0.4, 0.3, 0.2, 0.1]), np.diag([0.5, 0.0, 0.0, 0.5])]
        return [DensityMatrix(m.astype(complex), SystemSignature((2, 2)))
                for m in mats]
    if family == "near-werner":
        rng = np.random.default_rng(5)
        return [near_werner_state(p, eps, rng) for eps in 10.0 ** -np.arange(6, 16, 2)
                for p in (0.0, 1 / 3, 0.5)]
    rng = np.random.default_rng(99)
    drawn = {f"rank-{r}": [rand_density(rng, (2, 2), r) for _ in range(100)]
             for r in (1, 2, 3, 4)}
    drawn["product"] = [rand_product_mixture(rng, 3) for _ in range(50)]
    return drawn[family]


TWO_QUBIT_FAMILIES = ["oracle", "acceptance-7", "roof-min", "rank-1", "rank-2", "rank-3",
                      "rank-4", "product", "werner", "diagonal", "near-werner"]


@pytest.mark.parametrize("family", TWO_QUBIT_FAMILIES)
def test_two_qubit_roof_is_wootters_ensemble(family):
    # each member has the Wootters concurrence C, from its own amplitudes
    # (|psi^T Y psi|), the ensemble reconstructs rho and its average is C
    # to rounding, above the certified lower end; at rank >= 2 no restart
    # runs, and a rank-1 state is its own ensemble
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    for rho in two_qubit_inputs(family):
        exact = concurrence_wootters(rho)
        res = convex_roof(rho, concurrence_functional((0,)), "min",
                          RoofConfig(seed=1))
        assert abs(res.value - exact) <= 1e-13
        for _, psi in res.ensemble.members:
            assert abs(abs(psi.amps @ yy @ psi.amps) - exact) <= 1e-13
        res.ensemble.validate_against(rho, tol=1e-13)
        assert res.converged
        rank = np.count_nonzero(np.linalg.eigvalsh(rho.mat) > msr.RANK_TOL)
        if rank == 1:
            assert (res.restarts_used, res.lower) == (0, res.value)
            continue
        assert 0.0 <= res.value - res.lower
        assert res.lower == wootters_lower(rho)
        assert res.restarts_used == 1
        # r members of concurrence C; a separable state's rounding may
        # leave C a few ulp above 0 there, else it has 4 members
        assert len(res.ensemble.members) in ((rank,) if exact > 1e-9 else (rank, 4))


def test_two_qubit_lower_end_near_the_rank_tolerance():
    # rank-2 states with a third eigenvalue near RANK_TOL: the ensemble is
    # built on the support above RANK_TOL, and the lower end must be too
    # (from the closed form's 1e-14 support, one of these 1,000 roofs had
    # value - lower = -5.6e-13)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            rho = rand_density(rng, (2, 2), 2)
            phi = rand_pure(rng, 2).amps
            w = 10 ** rng.uniform(-13.5, -10.5)
            mat = (1 - w) * rho.mat + w * np.outer(phi, phi.conj())
            res = convex_roof(DensityMatrix(mat, rho.sig),
                              concurrence_functional((0,)), "min", RoofConfig(seed=1))
            assert res.lower <= res.value


def test_a_two_qubit_ensemble_that_misses_rho_raises(monkeypatch):
    # the reconstruction guard runs on the constructed ensemble too: one
    # member dropped lowers the value, so only that guard can see it
    build = msr._wootters_isometry
    monkeypatch.setattr(msr, "_wootters_isometry", lambda rows: build(rows)[:-1])
    rho = oracle_states()["q2r3"]
    with pytest.raises(MeasureError, match="ensemble probabilities"):
        convex_roof(rho, concurrence_functional((0,)), "min", RoofConfig(seed=1))
