"""Dense complex linear algebra and entropy primitives.

Everything here operates on small dense matrices (joint systems up to
roughly 100x100). Matrices are plain complex numpy arrays in row-major
order; density matrices get a validating wrapper. All entropies are in
bits (base-2 logarithms).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TOL = 1e-9  # the round-off allowed on a validated state


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive-semidefinite Hermitian matrix, or a stack of them.

    Validation happens at construction, on every member of a ``(..., n, n)``
    stack: finite entries, and Hermiticity, unit trace and eigenvalues >= 0
    within ``TOL``, the last from one stacked Cholesky factorisation of
    m + TOL I, which exists exactly when every eigenvalue exceeds -TOL; only a
    failed one runs ``eigvalsh`` to decide the boundary and name the eigenvalue.
    The matrix is kept as a private read-only copy, so that a write to the
    caller's array cannot change it, and ``spectrum``, its eigenvalues descending
    and read-only, is computed from that copy on the first read.
    Equality and hashing are by identity, since an array has no truth value.
    """

    matrix: np.ndarray
    dim = property(lambda self: self.matrix.shape[-1])

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim < 2 or m.shape[-2] != m.shape[-1] or m.size == 0:
            raise ValueError(f"expected square matrices, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix has a non-finite entry")
        herm = np.abs(m - m.conj().swapaxes(-1, -2)).max()
        if herm > TOL:
            raise ValueError(f"matrix is not Hermitian within tolerance ({herm:.3e})")
        tr = np.trace(m, axis1=-2, axis2=-1).ravel()
        tr = tr[np.abs(tr - 1.0).argmax()]
        if abs(tr - 1.0) > TOL:
            raise ValueError(f"trace is {tr}, expected 1")
        try:
            np.linalg.cholesky(m + TOL * np.eye(m.shape[-1]))
        except np.linalg.LinAlgError:
            lam = np.linalg.eigvalsh(m).min()
            if lam < -TOL:
                raise ValueError(f"matrix has negative eigenvalue {lam:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @cached_property
    def spectrum(self) -> np.ndarray:
        evals = np.linalg.eigvalsh(self.matrix)
        evals.setflags(write=False)
        return evals[..., ::-1]


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices, or of each pair of two broadcast
    stacks of them; the left factor is the slow index block."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (ra * rb, ca * cb))


def entropy_bits(eigenvalues) -> float | np.ndarray:
    """Shannon entropy (bits) of a spectrum, with 0 log 0 := 0.

    A stack gives one entropy per spectrum along its last axis, a 1-D
    spectrum a float. Eigenvalues in [-TOL, 0) are clipped to 0 before
    the log; a more negative or a non-finite one, in any spectrum, is invalid.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if not np.isfinite(lam).all():
        raise ValueError("spectrum has a non-finite eigenvalue")
    if lam.size and lam.min() < -TOL:
        raise ValueError(f"eigenvalue {lam.min():.3e} below -{TOL}")
    # a clipped eigenvalue becomes 1, whose term is 0; + 0.0 turns -0.0 into 0.0
    pos = np.where(lam > 0, lam, 1.0)
    h = -(pos * np.log2(pos)).sum(axis=-1) + 0.0
    return float(h) if lam.ndim == 1 else h
