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
    rho = reduce_pair(to_density(haar_random_pure(3, 620)), 1)
    with pytest.raises(RuntimeError, match="ensemble average"):
        convex_roof(rho, concurrence_functional((0,)), direction,
                    RoofConfig(restarts=2, seed=1))


def wootters_lower(rho):
    """The roof's certified lower end on two qubits: the Wootters value
    rounded down by 64 ulp of the concurrence of assistance sum mu."""
    return max(0.0, concurrence_wootters(rho) - 64 * np.finfo(float).eps * crenoa(rho))


def test_stopping_rule_on_roof_oracle_inputs(monkeypatch):
    # the acceptance-7 inputs: each roof stops well below the 32-restart
    # cap and still meets the Wootters value to 1e-12 (the 32-restart runs
    # the stopping rule replaced were within 1e-14 of it).  The roof carries
    # the Wootters value, rounded down, as its certified lower end, never
    # above the value, and stops within step_tolerance of it, so the roof
    # keeps one restart exactly when restart 0 meets the certificate
    restart, first_totals = msr._restart, []

    def recorded(u, *args):
        total, u, conv = restart(u, *args)
        first_totals.append(total)
        return total, u, conv

    monkeypatch.setattr(msr, "_restart", recorded)
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
        assert 0.0 <= res.value - res.lower <= cfg.step_tolerance
        assert res.lower == wootters_lower(rho)
        met = first_totals[0] - res.lower <= cfg.step_tolerance
        assert (res.restarts_used == 1) == met
        alone += met
    assert alone > 0


def test_certificate_needs_a_two_qubit_signature():
    # the certificate is concurrence_wootters on a (2, 2) signature, where
    # the roof stops at restart 0 with its value pinned as float.hex; the
    # same matrix with signature (4,) has one subsystem and so no split
    rho = reduce_pair(to_density(haar_random_pure(3, 700)), 1)
    res = convex_roof(rho, concurrence_functional((0,)), "min", RoofConfig(seed=1))
    assert res.value.hex() == "0x1.94807f61aad5ap-3"
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
    return msr._rank2_lower(evals, vecs, rows @ vecs.conj(), rho.sig.dims, (0,))


def d8_plane(s):
    """(Bloch quadratic, a, beta, support eigenvectors) of the plane fitted
    to restart 0 of the A,B,C marginal of haar_random_pure(4, s)."""
    rho = partial_trace(to_density(haar_random_pure(4, s)), (0, 1, 2))
    res = convex_roof(rho, concurrence_functional((0,)), "min",
                      RoofConfig(restarts=1, seed=s))
    evals, vecs = support(rho)
    quad = msr._bloch_quadratic(vecs, (2, 2, 2), (0,))
    p, r = msr._bloch_points(ensemble_rows(res) @ vecs.conj())
    a, beta = msr._fit_plane(quad, p, r, np.array(
        [evals.sum(), 0.0, 0.0, evals[0] - evals[1]]))
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
    # exact roof, and within step_tolerance of it; the roof's value may
    # undercut Wootters by rounding, by up to 5.6e-16 on 28 of the 50
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
    # STALL_RESTARTS after its best restart, the one the certificate met
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
    assert certified.restarts_used == 3
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


# -- the sequential optimizer, kept as convex_roof's oracle --------------------
#
# convex_roof's sweeps run the disjoint row pairs of each round as one stacked
# pass; this is the pair-at-a-time optimizer they replaced, with the restarts
# one at a time as convex_roof runs them, and convex_roof must match it bit
# for bit.

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
    """(value, ensemble rows sqrt(p_i) psi_i, restarts_used, converged,
    lower) of the concurrence roof over split (0,), restarts run one at a
    time."""
    n_qubits = int(round(np.log2(rho.dim)))
    evals, vecs = np.linalg.eigh(rho.mat)
    idx = np.where(evals > msr.RANK_TOL)[0]
    rank = len(idx)
    m = cfg.max_ensemble_size if cfg.max_ensemble_size is not None else rank * rank
    scaled = (vecs[:, idx] * np.sqrt(evals[idx])).T
    qf = msr._minor_form(scaled, (2,) * n_qubits, (0,)).reshape(rank, -1)
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

    # on two qubits the Wootters concurrence certifies the roof from below,
    # elsewhere at rank 2 the plane fitted to restart 0's ensemble does
    lower = wootters_lower(rho) if n_qubits == 2 else None
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
        if j == 0 and rank == 2 and n_qubits > 2:
            lower = msr._rank2_lower(evals[idx], vecs[:, idx],
                                     u * np.sqrt(evals[idx]),
                                     (2,) * n_qubits, (0,))
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
    # restart 0 misses the Wootters certificate and restart 1 meets it
    ("q2r3", "min", 8, 500, False),
    ("q3r3", "min", 1, 15, False), ("q3r4", "min", 4, 500, True),
    ("sep", "min", 32, 500, False), ("sep", "min", 2, 16, True),
    # a nonzero min roof behind a positive partial transpose, where every
    # restart polishes
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
    value, rows, restarts_used, converged, lower = sequential_convex_roof(rho, cfg)
    assert res.value == value
    assert np.array_equal(ensemble_rows(res).view(np.int64), rows.view(np.int64))
    assert (res.restarts_used, res.converged) == (restarts_used, converged)
    assert type(res.converged) is bool
    # a certified lower end on two qubits and, off them, at rank 2
    assert res.lower == lower
    assert (lower is None) == (rho.dim > 4 and rank > 2)


def test_sweeps_match_the_oracle_when_moves_are_rejected(monkeypatch):
    # a move whose recomputed pair objective is not lower is dropped;
    # rejecting by the rotated rows' own bytes forces that path, and a
    # stacked round must drop the same moves as the oracle's pairs one at a
    # time
    weights, rejected = msr._weights, []

    def rejecting(mu):
        w = weights(mu)
        if mu.shape[-2] == 2:  # a rotated pair's minors, stacked or alone
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
            total, got, conv = msr._optimize_ensemble(u, qf, sweeps, 1e-9)
            want_total, want, want_conv = seq_optimize_ensemble(u, qf, sweeps, 1e-9)
            assert (total, conv) == (want_total, want_conv)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert not np.array_equal(got, u)
    assert rejected


def test_npt_min_roof_polishes_only_the_winner(monkeypatch):
    # an NPT state has no split-product ensemble: its restarts only sweep,
    # and on two qubits one polish of the winning isometry runs after the
    # stopping rule; on more qubits no polish runs at all.  PPT states
    # (separable, or Horodecki's) still polish every restart.  On two
    # qubits the Wootters certificate stops d4 at restart 0 and q2r3 at
    # restart 1; d8's rank-2 certificate, missed at restart 0, is met at
    # restart 2
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
    used = {}
    for name in ("d4", "d8", "q2r3"):
        calls.clear()
        res = convex_roof(states[name], concurrence_functional((0,)), "min",
                          RoofConfig(restarts=8, seed=11))
        used[name] = res.restarts_used
        if name == "d8":
            assert "polish" not in calls
            continue
        assert calls.count("polish") == 1
        assert calls[-1] == "polish"
    assert used["d4"] == 1 and used["q2r3"] == 2 and used["d8"] == 3
    for name in ("sep", "ppt"):  # with the knobs of the PPT oracle cases
        calls.clear()
        rank = int(np.sum(np.linalg.eigvalsh(states[name].mat) > msr.RANK_TOL))
        res = convex_roof(states[name], concurrence_functional((0,)), "min",
                          RoofConfig(restarts=8, max_iters=15, seed=11,
                                     max_ensemble_size=rank))
        if name == "sep":
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
# rows and restarts_used, recorded with the rank-2 certificate.  9 is
# certified at restart 2 and 21 at restart 0, each within step_tolerance
# of its lower end and so at most that far above the earlier 4- and
# 5-restart values; 33 is certified at restart 0, which was already the
# best.  8 is not certified (value - lower = 1.1e-9), so it runs the stall
# rule and keeps the bits it had without the certificate
D8_RESIDUAL_BITS = {
    8: ("0x1.4a155f699155ap-1",
        "55a53e7af4cc946f2e72be3068a7ecb52fe43dec1e8630446bbe9c90c8424a74", 4),
    9: ("0x1.90a575bb16bdcp-1",
        "d7cebad4161c681e18df3b22b5aa2548d520a91ba4324ba3b33544a0427423d6", 2),
    21: ("0x1.8748b1fd55d42p-1",
         "df3aaedcf4b7127343b3f837c4cd3bee2ac04d597bd4fd7a162e894b5e35f458", 1),
    33: ("0x1.69a3916be1200p-1",
         "7044e97474a5af5cbdf5a21e94a645137643ea5c637197260bb25d2bc2fbf5e5", 1),
}


@pytest.mark.parametrize("s", list(D8_RESIDUAL_BITS))
def test_chain_residual_roofs_keep_their_bits(s):
    rho = partial_trace(to_density(haar_random_pure(4, s)), (0, 1, 2))
    cfg = RoofConfig(restarts=8, seed=s)
    res = convex_roof(rho, concurrence_functional((0,)), "min", cfg)
    digest = hashlib.sha256(ensemble_rows(res).tobytes()).hexdigest()
    assert (res.value.hex(), digest, res.restarts_used) == D8_RESIDUAL_BITS[s]
    assert 0.0 < res.lower <= res.value
    # certified exactly when the rule stopped on the lower end
    assert (res.value - res.lower <= cfg.step_tolerance) == (s != 8)


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
    # why convex_roof polishes an NPT winner on two qubits only: with more
    # than one minor per member the polish's sum of |minor|^2 does not
    # share the roof's minimizers, and on these residuals and oracle states
    # polishing the best swept restart never lowers its total
    rho, cfg = multi_qubit_npt_input(name)
    assert np.linalg.eigvalsh(transpose_subsystem(
        rho.mat, rho.sig.dims, 0))[0] <= -1e-10  # NPT
    qf, starts = npt_restart_starts(rho, cfg)
    totals, us, _ = zip(*(msr._restart(u, qf, cfg, False) for u in starts))
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
        sweeps.append(u)
        return 1.0 if len(sweeps) <= 15 else 0.0

    monkeypatch.setattr(msr, "_sweep", stub)
    cfg = RoofConfig(restarts=4, seed=11)
    qf, starts = npt_restart_starts(oracle_states()["d4"], cfg)
    total, u, conv = msr._restart(starts[0], qf, cfg, False)
    assert conv is True
    assert len(sweeps) == 16
