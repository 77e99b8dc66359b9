"""Dense complex linear algebra on composite quantum systems.

Partial trace, partial transpose, trace norm and Schmidt spectra for
small (dimension <= ~2^10) density matrices with an attached
subsystem-dimension signature.  Everything here is a pure
function of immutable inputs (matrix buffers are frozen on construction),
so concurrent use needs no synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Double precision on matrices of dimension <= 16.
TOL_HERMITIAN = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9

# Row-major complex matrix; plain ndarray, no wrapper.
ComplexMatrix = np.ndarray


class LinalgError(ValueError):
    """Malformed signature, invalid index, or matrix outside tolerance."""


@dataclass(frozen=True)
class SystemSignature:
    """Ordered subsystem dimensions of a composite system.

    Index 0 is the leftmost tensor factor (big-endian ordering, subsystem
    A first, then B1, B2, ...).
    """

    dims: tuple[int, ...]

    def __init__(self, dims: Iterable[int]):
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        if not self.dims:
            raise LinalgError("signature needs at least one subsystem")
        if any(d < 1 for d in self.dims):
            raise LinalgError(f"subsystem dimensions must be >= 1, got {self.dims}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def check_index(self, i: int) -> None:
        if not 0 <= i < len(self.dims):
            raise LinalgError(f"subsystem index {i} out of range for {self.dims}")

    def restrict(self, keep: Sequence[int]) -> "SystemSignature":
        for i in keep:
            self.check_index(i)
        return SystemSignature(self.dims[i] for i in keep)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD unit-trace matrix with a subsystem signature."""

    mat: np.ndarray
    sig: SystemSignature = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise LinalgError(f"density matrix must be square, got shape {mat.shape}")
        sig = self.sig
        if sig is None:
            sig = SystemSignature([mat.shape[0]])
        elif not isinstance(sig, SystemSignature):
            sig = SystemSignature(sig)
        if sig.total_dim != mat.shape[0]:
            raise LinalgError(
                f"signature {sig.dims} implies dimension {sig.total_dim}, "
                f"matrix has {mat.shape[0]}"
            )
        if np.max(np.abs(mat - mat.conj().T)) > TOL_HERMITIAN:
            raise LinalgError("matrix is not Hermitian within tolerance")
        tr = np.trace(mat)
        if abs(tr - 1.0) > TOL_TRACE:
            raise LinalgError(f"trace must be 1, got {tr}")
        evals = np.linalg.eigvalsh(mat)
        if evals[0] < -TOL_PSD:
            raise LinalgError(f"matrix not PSD: min eigenvalue {evals[0]}")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "sig", sig)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every subsystem not listed in `keep`.

    `keep` must be strictly increasing subsystem indices.  The result keeps
    the signature restricted to those subsystems.
    """
    keep = tuple(keep)
    if not keep:
        raise LinalgError("must keep at least one subsystem")
    if list(keep) != sorted(set(keep)):
        raise LinalgError(f"keep indices must be strictly increasing, got {keep}")
    sig = rho.sig
    for i in keep:
        sig.check_index(i)
    n = len(sig)
    work = rho.mat.reshape(sig.dims + sig.dims)
    removed = 0
    for i in range(n):
        if i in keep:
            continue
        ax = i - removed
        cur = n - removed
        work = np.trace(work, axis1=ax, axis2=ax + cur)
        removed += 1
    new_sig = sig.restrict(keep)
    d = new_sig.total_dim
    return DensityMatrix(work.reshape(d, d), new_sig)


def transpose_subsystem(mat: ComplexMatrix, dims: Sequence[int],
                        subsystem: int) -> ComplexMatrix:
    """Partial transpose of a raw square matrix over one tensor factor."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if not 0 <= subsystem < n:
        raise LinalgError(f"subsystem index {subsystem} out of range for {dims}")
    d = math.prod(dims)
    work = np.asarray(mat, dtype=complex).reshape(dims + dims)
    axes = list(range(2 * n))
    axes[subsystem], axes[subsystem + n] = axes[subsystem + n], axes[subsystem]
    return np.ascontiguousarray(work.transpose(axes).reshape(d, d))


def partial_transpose(rho: DensityMatrix, subsystem: int) -> ComplexMatrix:
    """Transpose one tensor factor of rho; Hermiticity and trace preserved."""
    rho.sig.check_index(subsystem)
    return transpose_subsystem(rho.mat, rho.sig.dims, subsystem)


def trace_norm(mat: ComplexMatrix) -> float:
    """Sum of singular values.

    Hermitian matrices use the sum of absolute eigenvalues directly (the
    M^dag M route would turn eigenvalue noise into sqrt-scale errors);
    everything else goes through the spectrum of M^dag M.
    """
    mat = np.asarray(mat, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise LinalgError("trace norm of a matrix with non-finite entries")
    if mat.ndim == 2 and mat.shape[0] == mat.shape[1] and \
            np.max(np.abs(mat - mat.conj().T)) <= 1e-12:
        return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))
    gram = mat.conj().T @ mat
    evals = np.linalg.eigvalsh(gram)
    return float(np.sum(np.sqrt(np.clip(evals, 0.0, None))))


def schmidt_coefficients(amps: np.ndarray, dims: Sequence[int],
                         split: Sequence[int]) -> np.ndarray:
    """Spectrum of the reduced state of the first block of a pure state.

    `split` lists the subsystem indices of the first block; the complement
    (in ascending order) forms the second block.  Returns the descending
    eigenvalues of the first block's reduced density matrix; they sum to 1.
    """
    dims = tuple(int(d) for d in dims)
    split = tuple(split)
    n = len(dims)
    if not split:
        raise LinalgError("first block of the split is empty")
    for i in split:
        if not 0 <= i < n:
            raise LinalgError(f"split index {i} out of range for {dims}")
    if len(set(split)) != len(split):
        raise LinalgError(f"duplicate indices in split {split}")
    rest = tuple(i for i in range(n) if i not in split)
    if not rest:
        raise LinalgError("second block of the split is empty")
    amps = np.asarray(amps, dtype=complex).reshape(dims)
    d_first = math.prod(dims[i] for i in split)
    mat = amps.transpose(split + rest).reshape(d_first, -1)
    red = mat @ mat.conj().T
    evals = np.linalg.eigvalsh(red)[::-1]
    return np.clip(evals, 0.0, None)
