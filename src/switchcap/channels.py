"""Quantum channels in Kraus form.

Provides the generalized-Pauli (Heisenberg-Weyl) unitary basis and the
depolarizing family built on it.
Kraus lists are kept exactly as constructed; representations are never
minimized or canonicalized, so representation-independence stays testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPTP map given by a finite list of Kraus operators.

    ``ops`` is a sequence of ``dim_out x dim_in`` operators or one
    ``(n, dim_out, dim_in)`` array, kept as one read-only stack (a view of an
    array passed in); both dimensions and ``kraus_ops``, a tuple of one view per
    operator, are read from it. Completeness (sum K'K = I) is the caller's
    responsibility. Equality and hashing are by identity.
    """

    ops: np.ndarray
    dim_out = property(lambda self: self.ops.shape[1])
    dim_in = property(lambda self: self.ops.shape[2])
    kraus_ops = property(lambda self: tuple(self.ops))

    def __post_init__(self):
        if len(self.ops) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        # a view, so that an array passed in stays writeable for its owner; operators
        # of unequal shapes make numpy raise its own ValueError
        stack = np.asarray(self.ops, dtype=complex).view()
        if stack.ndim != 3:
            raise ValueError("Kraus operators must be matrices of one shape")
        stack.flags.writeable = False
        object.__setattr__(self, "ops", stack)


def weyl_basis(d: int) -> np.ndarray:
    """Generalized Pauli basis: X(i)|l> = |i+l mod d>, Z(j)|l> = w^{jl}|l>.

    The d^2 unitaries X(i) Z(j) are indexed by i*d + j; element 0 is I.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    omega = np.exp(2j * np.pi / d)
    shifts = np.stack([np.roll(np.eye(d, dtype=complex), i, axis=0) for i in range(d)])
    phases = np.stack([np.diag(omega ** (j * np.arange(d))) for j in range(d)])
    return (shifts[:, None] @ phases[None]).reshape(d * d, d, d)


def depolarizing_channel(d: int, q: float) -> KrausChannel:
    """rho -> q rho + (1-q) I/d, in the redundant (d^2 + 1)-operator form.

    The Kraus list is sqrt(q) I followed by sqrt(1-q)/d times each of the
    d^2 Weyl unitaries (identity included). The redundancy keeps the index
    structure of the double sum over operator pairs intact.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    identity = np.sqrt(q) * np.eye(d, dtype=complex)
    return KrausChannel(np.concatenate((identity[None], np.sqrt(1.0 - q) / d * weyl_basis(d))))
