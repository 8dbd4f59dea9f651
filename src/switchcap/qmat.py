"""Dense complex linear algebra and entropy primitives.

Everything here operates on small dense matrices (joint systems up to
roughly 100x100). Matrices are plain complex numpy arrays in row-major
order; density matrices get a validating wrapper. All entropies are in
bits (base-2 logarithms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9  # the round-off allowed on a validated state


class DimensionMismatchError(ValueError):
    """Operand dimensions are incompatible."""


class InvalidStateError(ValueError):
    """A matrix fails the density-matrix requirements."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive-semidefinite Hermitian matrix, or a stack of them.

    Validation happens at construction, on every member of a ``(..., n, n)``
    stack: finite entries, and Hermiticity, unit trace and eigenvalues >= 0
    within ``TOL``, from one stacked ``eigvalsh``. Those eigenvalues are kept as
    ``spectrum``, descending, and the matrix as a private copy, so that a write to
    the caller's array cannot leave them stale; both are read-only.
    Equality and hashing are by identity, since an array has no truth value.
    """

    matrix: np.ndarray
    dim: int = field(init=False)
    spectrum: np.ndarray = field(init=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim < 2 or m.shape[-2] != m.shape[-1] or m.size == 0:
            raise InvalidStateError(f"expected square matrices, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise InvalidStateError("matrix has a non-finite entry")
        herm = np.abs(m - m.conj().swapaxes(-1, -2)).max()
        if herm > TOL:
            raise InvalidStateError(f"matrix is not Hermitian within tolerance ({herm:.3e})")
        tr = np.trace(m, axis1=-2, axis2=-1).ravel()
        tr = tr[np.abs(tr - 1.0).argmax()]
        if abs(tr - 1.0) > TOL:
            raise InvalidStateError(f"trace is {tr}, expected 1")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -TOL:
            raise InvalidStateError(
                f"matrix has negative eigenvalue {evals.min():.3e}"
            )
        m.setflags(write=False)
        evals.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[-1])
        object.__setattr__(self, "spectrum", evals[..., ::-1])


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices, or of each pair of two broadcast
    stacks of them; the left factor is the slow index block."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (ra * rb, ca * cb))


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
    spectrum a float. Eigenvalues in [-TOL, 0) are clipped to 0 before
    the log; a more negative or a non-finite one, in any spectrum, is invalid.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if not np.isfinite(lam).all():
        raise InvalidStateError("spectrum has a non-finite eigenvalue")
    if lam.size and lam.min() < -TOL:
        raise InvalidStateError(f"eigenvalue {lam.min():.3e} below -{TOL}")
    # a clipped eigenvalue becomes 1, whose term is 0; + 0.0 turns -0.0 into 0.0
    pos = np.where(lam > 0, lam, 1.0)
    h = -(pos * np.log2(pos)).sum(axis=-1) + 0.0
    return float(h) if lam.ndim == 1 else h
