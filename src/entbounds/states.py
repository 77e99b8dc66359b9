"""Construction and sampling of qubit-register pure states.

Covers the five-amplitude three-qubit family in generalized Schmidt
decomposition, generalized W-class states, seeded Haar-random states, and
JSON serialization of pure states and density matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, LinalgError, SystemSignature, partial_trace

TOL_NORM = 1e-10

# Platform-independent seeded generator used for every random draw.
RNG_NAME = "pcg64"


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


class StateError(ValueError):
    """Invalid amplitudes, parameters, or serialized state data."""


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over a qubit register.

    Amplitude ordering is big-endian: qubit 0 (subsystem A) is the most
    significant bit of the basis index.
    """

    amps: np.ndarray
    n_qubits: int = 0

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex).ravel()
        # a nan amplitude would pass the norm test below
        if not np.isfinite(amps).all():
            raise StateError("amplitudes must be finite")
        if not len(amps):  # log2(0) below
            raise StateError("a state needs at least one amplitude")
        n = self.n_qubits or int(np.log2(len(amps)))
        if len(amps) != 2 ** n:
            raise StateError(f"amplitude count {len(amps)} is not 2^{n}")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > TOL_NORM:
            raise StateError(f"state not normalized: |amps|^2 = {norm2}")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "n_qubits", n)

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,) * self.n_qubits


@dataclass(frozen=True)
class SchmidtParams:
    """Five nonnegative amplitudes plus one phase, with sum of squares 1."""

    lams: tuple[float, float, float, float, float]
    phase: float = 0.0

    def __post_init__(self):
        lams = tuple(float(x) for x in self.lams)
        if len(lams) != 5:
            raise StateError("exactly five amplitude parameters required")
        if any(x < 0 for x in lams):
            raise StateError(f"amplitude parameters must be >= 0, got {lams}")
        if abs(sum(x * x for x in lams) - 1.0) > TOL_NORM:
            raise StateError("amplitude parameters must have unit sum of squares")
        object.__setattr__(self, "lams", lams)
        object.__setattr__(self, "phase", float(self.phase) % (2 * np.pi))


def generalized_schmidt_state(p: SchmidtParams) -> PureState:
    """Three-qubit state with amplitudes on |000>, |100>, |110>, |101>, |111>.

    l0|000> + l1 e^{i phase}|100> + l2|110> + l3|101> + l4|111>.  The
    placement makes the pairwise concurrences come out as C_AB = 2 l0 l2
    and C_AC = 2 l0 l3, with C(A|BC) = 2 l0 sqrt(l2^2 + l3^2 + l4^2).
    """
    l0, l1, l2, l3, l4 = p.lams
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = l0
    amps[0b100] = l1 * np.exp(1j * p.phase)
    amps[0b110] = l2
    amps[0b101] = l3
    amps[0b111] = l4
    return PureState(amps, 3)


def w_class_state(c1: float, c2: float, c3: float) -> PureState:
    """Generalized W-class state c1|100> + c2|010> + c3|001>."""
    if abs(c1 * c1 + c2 * c2 + c3 * c3 - 1.0) > TOL_NORM:
        raise StateError("coefficients must have unit sum of squares")
    amps = np.zeros(8, dtype=complex)
    amps[0b100] = c1
    amps[0b010] = c2
    amps[0b001] = c3
    return PureState(amps, 3)


def haar_random_pure(n_qubits: int, seed: int) -> PureState:
    """Haar-distributed pure state on `n_qubits` qubits, deterministic in seed.

    Independent standard complex Gaussians followed by normalization give
    exact unitary invariance.
    """
    # checked before make_rng, which rejects some seeds with its own error
    if not 1 <= n_qubits <= 10:
        raise StateError(f"n_qubits must be in [1, 10], got {n_qubits}")
    return haar_random_from(make_rng(seed), n_qubits)


def haar_random_from(rng: np.random.Generator, n_qubits: int) -> PureState:
    """Haar-random state drawn from an existing generator stream."""
    if not 1 <= n_qubits <= 10:
        raise StateError(f"n_qubits must be in [1, 10], got {n_qubits}")
    d = 2 ** n_qubits
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(vec / np.linalg.norm(vec), n_qubits)


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi| with per-qubit signature."""
    mat = np.outer(psi.amps, psi.amps.conj())
    return DensityMatrix(mat, SystemSignature(psi.dims))


def reduce_pair(rho: DensityMatrix, i: int) -> DensityMatrix:
    """Two-party marginal of subsystem A (index 0) and subsystem i."""
    rho.sig.check_index(i)
    if i == 0:
        raise LinalgError("pair partner must differ from subsystem 0")
    return partial_trace(rho, (0, i))


# ---------------------------------------------------------------------------
# JSON wire formats:
#   pure state:     {"n_qubits": N, "amps": [[re, im], ...]}
#   density matrix: {"dims": [...], "matrix": [[[re, im], ...], ...]}
# ---------------------------------------------------------------------------

def pure_state_to_json(psi: PureState) -> dict:
    return {
        "n_qubits": psi.n_qubits,
        "amps": [[float(a.real), float(a.imag)] for a in psi.amps],
    }


def pure_state_from_json(data: dict) -> PureState:
    try:
        n = int(data["n_qubits"])
        amps = np.array([complex(re, im) for re, im in data["amps"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise StateError(f"malformed pure-state JSON: {exc}") from exc
    return PureState(amps, n)


def density_to_json(rho: DensityMatrix) -> dict:
    return {
        "dims": list(rho.sig.dims),
        "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in rho.mat],
    }


def density_from_json(data: dict) -> DensityMatrix:
    try:
        dims = [int(d) for d in data["dims"]]
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in data["matrix"]]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StateError(f"malformed density-matrix JSON: {exc}") from exc
    return DensityMatrix(mat, SystemSignature(dims))


def load_state(path: str) -> PureState | DensityMatrix:
    """Load either wire format, detected by field names."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise StateError(f"{path}: a state file must hold a JSON object, "
                         f"got {type(data).__name__}")
    if "amps" in data:
        return pure_state_from_json(data)
    if "matrix" in data:
        return density_from_json(data)
    raise StateError(f"{path}: neither 'amps' nor 'matrix' field present")


def save_state(obj: PureState | DensityMatrix, path: str) -> None:
    data = pure_state_to_json(obj) if isinstance(obj, PureState) else density_to_json(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")
