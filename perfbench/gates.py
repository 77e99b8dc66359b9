"""Independent references and the correctness gates of the benchmark.

Every reference here is computed with numpy from the raw amplitudes the
benchmark generated, never through entbounds.  Two-qubit marginals are
read off the amplitudes as rho = F F^dag with F the amplitude tensor
reshaped to (pair, rest), so the Wootters spectrum comes from one small
SVD of F^T (sy x sy) F without an eigendecomposition of rho; that keeps
rank-deficient marginals exact to ~1e-16 where the sqrt-of-eigenvalue
route would lose half the digits.

A gate returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)

# Roof accuracy against the closed forms.  The verify suites allow 1e-3
# (min) and 2e-3 (max); today's values agree to <= 1e-11, so these keep
# several orders of margin while a change that loses digits still fails.
TOL_MIN_ROOF = 1e-8
TOL_MAX_ROOF = 1e-8
# A min roof may not undercut, nor a max roof exceed, the exact value by
# more than rounding: that would be an ensemble that cannot exist.
TOL_ONE_SIDED = 1e-12
# CKW (monogamy of squared concurrence) is a theorem; same slack as the
# monogamy verify suite.
TOL_CKW = 1e-9
# Closed-form measures and bound arithmetic against the references.
TOL_CLOSED = 1e-10
TOL_ENSEMBLE = 1e-8


def factor(amps: np.ndarray, n_qubits: int, keep) -> np.ndarray:
    """F with rho_keep = F F^dag: rows index the kept qubits, columns the rest."""
    rest = [i for i in range(n_qubits) if i not in keep]
    tensor = np.asarray(amps).reshape((2,) * n_qubits)
    return tensor.transpose(list(keep) + rest).reshape(2 ** len(keep), -1)


def wootters_mu(f: np.ndarray) -> np.ndarray:
    """Descending Wootters values of the two-qubit state F F^dag."""
    return np.linalg.svd(f.T @ _YY @ f, compute_uv=False)


def concurrence_ref(f: np.ndarray) -> float:
    mu = wootters_mu(f)
    return max(0.0, float(mu[0] - mu[1:].sum()))


def assisted_sq_ref(f: np.ndarray) -> float:
    """(sum mu_i)^2, the exact SCRENoA of a two-qubit state."""
    return float(wootters_mu(f).sum()) ** 2


def qubit_concurrence_sq(amps: np.ndarray) -> float:
    """C(A|rest)^2 = 4 det rho_A = 4 sum_{j<k} |M_0j M_1k - M_0k M_1j|^2.

    The minor sum (Cauchy-Binet) stays accurate on near-product states,
    where det rho_A would cancel to rounding noise.
    """
    m = np.asarray(amps).reshape(2, -1)
    minors = np.outer(m[0], m[1]) - np.outer(m[1], m[0])
    return 2.0 * float(np.sum(np.abs(minors) ** 2))


def negativity_ref(f: np.ndarray) -> float:
    """Trace norm of the partial transpose on the first qubit, minus 1."""
    rho = (f @ f.conj().T).reshape(2, 2, 2, 2)
    pt = rho.transpose(2, 1, 0, 3).reshape(4, 4)
    return float(np.abs(np.linalg.eigvalsh(pt)).sum()) - 1.0


def _power(base: float, exponent: float) -> float:
    if exponent == 0.0:
        return 1.0
    return 0.0 if base == 0.0 else base ** exponent


def two_term_ref(small: float, big: float, num: float, den: float,
                 t: float, q: float) -> float:
    """((1+t)^e - q^(e-1) t^e) small^num + q^(e-1) big^num, e = num/den."""
    e = num / den
    coeff = (1.0 + t) ** e - q ** (e - 1.0) * t ** e
    return coeff * _power(small, num) + q ** (e - 1.0) * _power(big, num)


def ref29_ref(small: float, big: float, num: float, den: float,
              a: float) -> float:
    e = num / den
    return ((1.0 + a) ** (e - 1.0) * _power(small, num)
            + (1.0 + 1.0 / a) ** (e - 1.0) * _power(big, num))


def ensemble_errors(members, amps_of_target: np.ndarray) -> tuple[float, float]:
    """(reconstruction error, qubit-A concurrence average) of an ensemble.

    members are (p, amps) pairs; the target is the mixed state F F^dag.
    """
    target = amps_of_target @ amps_of_target.conj().T
    acc = np.zeros_like(target)
    avg = 0.0
    for p, amps in members:
        acc += p * np.outer(amps, amps.conj())
        avg += p * math.sqrt(max(0.0, qubit_concurrence_sq(amps)))
    return float(np.linalg.norm(acc - target)), avg


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- gates -----------------------------------------------------------------

def close(label: str, value: float, ref: float, tol: float) -> list[str]:
    if abs(value - ref) <= tol:
        return []
    return [f"{label}: {value!r} vs reference {ref!r} (tol {tol})"]


def rel_close(label: str, value: float, ref: float, tol: float) -> list[str]:
    return close(label, value, ref, tol * max(1.0, abs(ref)))


def at_least(label: str, value: float, floor: float, tol: float) -> list[str]:
    if value >= floor - tol:
        return []
    return [f"{label}: {value!r} below {floor!r} (tol {tol})"]


def at_most(label: str, value: float, ceiling: float, tol: float) -> list[str]:
    if value <= ceiling + tol:
        return []
    return [f"{label}: {value!r} above {ceiling!r} (tol {tol})"]


def equal(label: str, value, expected) -> list[str]:
    return [] if value == expected else [f"{label}: {value!r} != {expected!r}"]
