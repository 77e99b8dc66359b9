import numpy as np
import pytest

from entbounds.linalg import (
    DensityMatrix,
    LinalgError,
    SystemSignature,
    partial_trace,
    partial_transpose,
    schmidt_coefficients,
    trace_norm,
)
from entbounds.states import to_density, w_class_state

from conftest import bell_state, rand_density


def test_signature_invariants():
    sig = SystemSignature([2, 2, 4])
    assert sig.total_dim == 16
    with pytest.raises(LinalgError):
        SystemSignature([2, 0])
    with pytest.raises(LinalgError):
        SystemSignature([])


def test_density_matrix_validation():
    with pytest.raises(LinalgError):
        DensityMatrix(np.eye(4), SystemSignature([2, 2]))  # trace 4
    with pytest.raises(LinalgError):
        DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
    with pytest.raises(LinalgError):
        DensityMatrix(np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(LinalgError):
        DensityMatrix(np.eye(4) / 4, SystemSignature([2, 3]))  # wrong sig


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite_entries(bad):
    # a nan passes every tolerance test; an inf makes the Hermitian test
    # subtract inf - inf, which warns
    mat = np.diag([bad, 0.5, 0.5, 0.0]).astype(complex)
    with pytest.raises(LinalgError, match="finite"):
        DensityMatrix(mat, SystemSignature([2, 2]))
    off = np.eye(4, dtype=complex) / 4
    off[0, 1] = off[1, 0] = bad
    with pytest.raises(LinalgError, match="finite"):
        DensityMatrix(off, SystemSignature([2, 2]))


def test_partial_trace_bell():
    rho = to_density(bell_state())
    red = partial_trace(rho, (0,))
    assert np.allclose(red.mat, np.eye(2) / 2, atol=1e-12)
    assert red.sig.dims == (2,)


def test_partial_trace_product():
    v = np.zeros(4)
    v[0] = 1.0
    rho = DensityMatrix(np.outer(v, v), SystemSignature([2, 2]))
    red = partial_trace(rho, (0,))
    assert np.allclose(red.mat, np.diag([1.0, 0.0]), atol=1e-12)


def test_partial_trace_wclass_example():
    # first-qubit marginal of c1|100> + c2|010> + c3|001> is diag(1-c1^2, c1^2)
    rho = to_density(w_class_state(0.5, 0.5, np.sqrt(2) / 2))
    red = partial_trace(rho, (0,))
    assert np.allclose(red.mat, np.diag([0.75, 0.25]), atol=1e-12)


def test_partial_trace_order_commutes(rng):
    rho = rand_density(rng, (2, 2, 2))
    step = partial_trace(partial_trace(rho, (0, 2)), (0,))
    direct = partial_trace(rho, (0,))
    assert np.max(np.abs(step.mat - direct.mat)) <= 1e-12


def test_partial_trace_errors(rng):
    rho = rand_density(rng, (2, 2))
    with pytest.raises(LinalgError):
        partial_trace(rho, (0, 5))
    with pytest.raises(LinalgError):
        partial_trace(rho, ())
    with pytest.raises(LinalgError):
        partial_trace(rho, (1, 0))


def test_partial_transpose_product_invariant():
    v = np.zeros(4)
    v[0] = 1.0
    rho = DensityMatrix(np.outer(v, v), SystemSignature([2, 2]))
    assert np.allclose(partial_transpose(rho, 0), rho.mat, atol=1e-14)


def test_partial_transpose_bell_spectrum():
    rho = to_density(bell_state())
    pt = partial_transpose(rho, 0)
    evals = np.sort(np.linalg.eigvalsh(pt))
    assert np.allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution_and_hermiticity(rng):
    rho = rand_density(rng, (2, 2, 2))
    pt = partial_transpose(rho, 1)
    assert np.max(np.abs(pt - pt.conj().T)) <= 1e-12
    assert abs(np.trace(pt) - 1.0) <= 1e-12
    sig = rho.sig
    from entbounds.linalg import transpose_subsystem
    back = transpose_subsystem(pt, sig.dims, 1)
    assert np.max(np.abs(back - rho.mat)) <= 1e-14
    with pytest.raises(LinalgError):
        partial_transpose(rho, 3)


def test_trace_norm_basics():
    assert trace_norm(np.eye(2)) == pytest.approx(2.0, abs=1e-12)
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-12)
    pt = partial_transpose(to_density(bell_state()), 0)
    assert trace_norm(pt) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(LinalgError):
        trace_norm(np.array([[np.inf, 0], [0, 1]]))


def test_trace_norm_of_a_non_hermitian_matrix():
    # the M^dag M route: the singular values of a random complex matrix
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.abs(mat - mat.conj().T).max() > 1.0
    assert trace_norm(mat) == pytest.approx(
        np.linalg.svd(mat, compute_uv=False).sum(), rel=1e-13)
    assert trace_norm(mat) == pytest.approx(7.9661137455306, abs=1e-12)


def test_trace_norm_of_density_is_one(rng):
    for dims in [(2,), (2, 2), (2, 2, 2)]:
        rho = rand_density(rng, dims)
        assert trace_norm(rho.mat) == pytest.approx(1.0, abs=1e-10)


def test_schmidt_coefficients():
    psi = bell_state()
    lams = schmidt_coefficients(psi.amps, psi.dims, (0,))
    assert np.allclose(lams, [0.5, 0.5], atol=1e-12)

    v = np.zeros(4)
    v[0] = 1.0
    lams = schmidt_coefficients(v, (2, 2), (0,))
    assert np.allclose(lams, [1.0, 0.0], atol=1e-12)

    w = w_class_state(0.5, 0.5, np.sqrt(2) / 2)
    lams = schmidt_coefficients(w.amps, w.dims, (0,))
    assert np.allclose(lams, [0.75, 0.25], atol=1e-12)
    assert lams.sum() == pytest.approx(1.0, abs=1e-10)


def test_schmidt_coefficients_errors():
    psi = bell_state()
    with pytest.raises(LinalgError):
        schmidt_coefficients(psi.amps, psi.dims, ())
    with pytest.raises(LinalgError):
        schmidt_coefficients(psi.amps, psi.dims, (0, 1))
