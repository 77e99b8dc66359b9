import json

import numpy as np
import pytest

from entbounds.linalg import partial_trace
from entbounds.measures import (
    concurrence_pure,
    concurrence_wootters,
    negativity_pure,
    screnoa,
)
from entbounds.states import (
    PureState,
    SchmidtParams,
    StateError,
    density_from_json,
    density_to_json,
    generalized_schmidt_state,
    haar_random_from,
    haar_random_pure,
    load_state,
    make_rng,
    pure_state_from_json,
    pure_state_to_json,
    reduce_pair,
    save_state,
    to_density,
    w_class_state,
)

S6 = np.sqrt(6.0) / 6.0


def example1_state():
    return generalized_schmidt_state(SchmidtParams((0.5, S6, S6, 0.5, S6)))


def test_pure_state_validation():
    with pytest.raises(StateError):
        PureState(np.array([1.0, 1.0]), 1)
    with pytest.raises(StateError):
        PureState(np.array([1.0, 0.0, 0.0]), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    # a nan amplitude passes the norm test (nan > tol is false)
    with pytest.raises(StateError, match="finite"):
        PureState(np.array([bad, 0.0, 0.0, 0.0]), 2)


def test_schmidt_params_validation():
    with pytest.raises(StateError):
        SchmidtParams((1.0, 1.0, 0.0, 0.0, 0.0))
    with pytest.raises(StateError):
        SchmidtParams((1.0, -0.1, 0.0, 0.0, 0.0))
    with pytest.raises(StateError):
        SchmidtParams((1.0, 0.0, 0.0, 0.0))


def test_schmidt_basis_placement():
    psi = generalized_schmidt_state(SchmidtParams((1.0, 0, 0, 0, 0)))
    expect = np.zeros(8)
    expect[0] = 1.0
    assert np.allclose(psi.amps, expect)

    psi = example1_state()
    nz = sorted(np.nonzero(np.abs(psi.amps) > 0)[0])
    assert nz == [0b000, 0b100, 0b101, 0b110, 0b111]


def test_schmidt_phase_applied():
    p = SchmidtParams((0.6, 0.8, 0.0, 0.0, 0.0), phase=np.pi / 2)
    psi = generalized_schmidt_state(p)
    assert psi.amps[0b100] == pytest.approx(0.8j, abs=1e-12)


def test_example1_split_concurrence():
    psi = example1_state()
    assert concurrence_pure(psi, (0,)) == pytest.approx(np.sqrt(21) / 6, abs=1e-12)


def test_schmidt_bell_pair_case():
    psi = generalized_schmidt_state(
        SchmidtParams((1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0, 0)))
    assert concurrence_pure(psi, (0,)) == pytest.approx(1.0, abs=1e-12)


def test_schmidt_closed_forms_random_grid(rng):
    # C(A|BC) = 2 l0 sqrt(l2^2+l3^2+l4^2), C_AB = 2 l0 l2, C_AC = 2 l0 l3
    for _ in range(100):
        lams = rng.uniform(0.05, 1.0, 5)
        lams /= np.linalg.norm(lams)
        phase = rng.uniform(0, 2 * np.pi)
        psi = generalized_schmidt_state(SchmidtParams(tuple(lams), phase))
        rho = to_density(psi)
        l0, _, l2, l3, l4 = lams
        assert concurrence_pure(psi, (0,)) == pytest.approx(
            2 * l0 * np.sqrt(l2 ** 2 + l3 ** 2 + l4 ** 2), abs=1e-10)
        assert concurrence_wootters(reduce_pair(rho, 1)) == pytest.approx(
            2 * l0 * l2, abs=1e-10)
        assert concurrence_wootters(reduce_pair(rho, 2)) == pytest.approx(
            2 * l0 * l3, abs=1e-10)


def test_wclass_states():
    psi = w_class_state(0.5, 0.5, np.sqrt(2) / 2)
    assert negativity_pure(psi, (0,)) ** 2 == pytest.approx(0.75, abs=1e-12)

    prod = w_class_state(1.0, 0.0, 0.0)
    rho = to_density(prod)
    assert concurrence_wootters(reduce_pair(rho, 1)) == pytest.approx(0.0, abs=1e-12)
    assert concurrence_wootters(reduce_pair(rho, 2)) == pytest.approx(0.0, abs=1e-12)

    with pytest.raises(StateError):
        w_class_state(1.0, 1.0, 1.0)


def test_wclass_symmetric_screnoa_equal():
    c = 1 / np.sqrt(3)
    rho = to_density(w_class_state(c, c, c))
    ab = screnoa(reduce_pair(rho, 1))
    ac = screnoa(reduce_pair(rho, 2))
    assert ab == pytest.approx(4.0 / 9.0, abs=2e-3)
    assert ac == pytest.approx(4.0 / 9.0, abs=2e-3)
    assert ab == pytest.approx(ac, abs=2e-3)


def test_example1_pair_concurrences():
    rho = to_density(example1_state())
    assert concurrence_wootters(reduce_pair(rho, 1)) == pytest.approx(S6, abs=1e-10)
    assert concurrence_wootters(reduce_pair(rho, 2)) == pytest.approx(0.5, abs=1e-10)


def test_haar_determinism_and_norm():
    a = haar_random_pure(3, 123456789)
    b = haar_random_pure(3, 123456789)
    c = haar_random_pure(3, 987654321)
    assert np.array_equal(a.amps, b.amps)
    assert not np.array_equal(a.amps, c.amps)
    assert np.sum(np.abs(a.amps) ** 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(StateError):
        haar_random_pure(0, 1)
    with pytest.raises(StateError):
        haar_random_pure(11, 1)


def test_haar_marginal_purity_moment():
    # mean single-qubit marginal purity of two-qubit Haar states is
    # (dA + dB) / (dA dB + 1) = 4/5
    gen = make_rng(20240817)
    acc = 0.0
    n = 1000
    for _ in range(n):
        psi = haar_random_from(gen, 2)
        ra = partial_trace(to_density(psi), (0,)).mat
        acc += float(np.real(np.trace(ra @ ra)))
    assert acc / n == pytest.approx(0.8, abs=0.015)


def test_to_density_rank_one():
    psi = haar_random_pure(2, 5)
    rho = to_density(psi)
    evals = np.linalg.eigvalsh(rho.mat)
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(evals[:-1] < 1e-12)


def test_json_round_trip_pure(tmp_path):
    psi = haar_random_pure(2, 99)
    data = pure_state_to_json(psi)
    assert set(data) == {"n_qubits", "amps"}
    assert data["n_qubits"] == 2
    back = pure_state_from_json(data)
    assert np.allclose(back.amps, psi.amps, atol=1e-15)

    path = tmp_path / "state.json"
    save_state(psi, str(path))
    loaded = load_state(str(path))
    assert isinstance(loaded, PureState)
    assert np.allclose(loaded.amps, psi.amps, atol=1e-15)
    raw = json.loads(path.read_text())
    assert isinstance(raw["amps"][0], list) and len(raw["amps"][0]) == 2


def test_json_round_trip_density(tmp_path, rng):
    from conftest import rand_density
    rho = rand_density(rng, (2, 2))
    data = density_to_json(rho)
    assert set(data) == {"dims", "matrix"}
    back = density_from_json(data)
    assert np.allclose(back.mat, rho.mat, atol=1e-15)

    path = tmp_path / "rho.json"
    save_state(rho, str(path))
    loaded = load_state(str(path))
    assert np.allclose(loaded.mat, rho.mat, atol=1e-15)
    assert loaded.sig.dims == (2, 2)


def test_json_malformed():
    with pytest.raises(StateError):
        pure_state_from_json({"n_qubits": 1})
    with pytest.raises(StateError):
        density_from_json({"dims": [2]})


@pytest.mark.parametrize("text", ["7", "null", "[1, 2]", '"amps"'])
def test_load_state_needs_a_json_object(tmp_path, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    with pytest.raises(StateError, match="JSON object"):
        load_state(str(path))
