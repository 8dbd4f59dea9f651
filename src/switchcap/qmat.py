"""Dense complex linear algebra and entropy primitives.

Everything here operates on small dense matrices (joint systems up to
roughly 100x100). Matrices are plain complex numpy arrays in row-major
order; density matrices get a validating wrapper. All entropies are in
bits (base-2 logarithms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_PSD = 1e-9


class DimensionMismatchError(ValueError):
    """Operand dimensions are incompatible."""


class InvalidStateError(ValueError):
    """A matrix fails the density-matrix requirements."""


def _as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=complex)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive-semidefinite Hermitian matrix.

    Validation happens at construction: finite entries, Hermiticity within
    ``TOL_HERM``, unit trace within ``TOL_TRACE``, and eigenvalues >= -``TOL_PSD``.
    Those eigenvalues are kept as ``spectrum``, descending and read-only.
    Equality and hashing are by identity, since an array has no truth value.
    """

    matrix: np.ndarray
    dim: int = field(init=False)
    spectrum: np.ndarray = field(init=False)

    def __post_init__(self):
        m = _as_complex(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidStateError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise InvalidStateError("matrix has a non-finite entry")
        if np.abs(m - m.conj().T).max() > TOL_HERM:
            raise InvalidStateError("matrix is not Hermitian within tolerance")
        tr = m.trace()
        if abs(tr - 1.0) > TOL_TRACE:
            raise InvalidStateError(f"trace is {tr}, expected 1")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -TOL_PSD:
            raise InvalidStateError(
                f"matrix has negative eigenvalue {evals.min():.3e}"
            )
        m.setflags(write=False)
        evals.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "spectrum", evals[::-1])


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices; the left factor is the slow index block."""
    a, b = _as_complex(a), _as_complex(b)
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def partial_trace(m: DensityMatrix, dim_a: int, dim_b: int, keep: str) -> DensityMatrix:
    """Reduced state of subsystem ``keep`` ("A" or "B") of a bipartite state.

    ``m`` lives on A (slow index, dimension ``dim_a``) tensor B (fast index,
    dimension ``dim_b``).
    """
    if m.dim != dim_a * dim_b:
        raise DimensionMismatchError(
            f"state dimension {m.dim} != {dim_a} * {dim_b}"
        )
    t = m.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        reduced = np.einsum("ikjk->ij", t)
    elif keep == "B":
        reduced = np.einsum("kikj->ij", t)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return DensityMatrix(reduced)


def entropy_bits(eigenvalues) -> float | np.ndarray:
    """Shannon entropy (bits) of a spectrum, with 0 log 0 := 0.

    A stack gives one entropy per spectrum along its last axis, a 1-D
    spectrum a float. Eigenvalues in [-TOL_PSD, 0) are clipped to 0 before
    the log; a more negative or a non-finite one, in any spectrum, is invalid.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if not np.isfinite(lam).all():
        raise InvalidStateError("spectrum has a non-finite eigenvalue")
    if lam.size and lam.min() < -TOL_PSD:
        raise InvalidStateError(f"eigenvalue {lam.min():.3e} below -{TOL_PSD}")
    # a clipped eigenvalue becomes 1, whose term is 0; + 0.0 turns -0.0 into 0.0
    pos = np.where(lam > 0, lam, 1.0)
    h = -(pos * np.log2(pos)).sum(axis=-1) + 0.0
    return float(h) if lam.ndim == 1 else h
