import numpy as np
import pytest

from entbounds import measures
from entbounds.linalg import DensityMatrix, SystemSignature
from entbounds.states import PureState


def rand_density(rng, dims, rank=None):
    """Random density matrix of the given subsystem dimensions and rank."""
    d = int(np.prod(dims))
    r = rank or d
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(mat, SystemSignature(dims))


def rand_pure(rng, n_qubits):
    d = 2 ** n_qubits
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v), n_qubits)


def rand_product_mixture(rng, n_terms=3, n_qubits=2):
    """Separable state: convex mixture of random product states of
    n_qubits qubits."""
    d = 2 ** n_qubits
    mat = np.zeros((d, d), dtype=complex)
    probs = rng.uniform(0.1, 1.0, n_terms)
    probs /= probs.sum()
    for p in probs:
        v = np.ones(1)
        for _ in range(n_qubits):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = np.kron(v, a / np.linalg.norm(a))
        mat += p * np.outer(v, v.conj())
    return DensityMatrix(mat, SystemSignature((2,) * n_qubits))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def max_sweeps(monkeypatch):
    """Sets measures.MAX_SWEEPS, the sweep cap of one run of sweeps, for
    one test: the test budget of a roof whose full cap would be slow."""
    def cap(sweeps):
        monkeypatch.setattr(measures, "MAX_SWEEPS", sweeps)
    return cap


def bell_state():
    return PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), 2)
