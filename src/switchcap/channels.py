"""Quantum channels in Kraus form.

Provides the generalized-Pauli (Heisenberg-Weyl) unitary basis and the
depolarizing family built on it.
Kraus lists are kept exactly as constructed; representations are never
minimized or canonicalized, so representation-independence stays testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qmat import DimensionMismatchError


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPTP map given by a finite list of Kraus operators.

    ``kraus_ops`` is a sequence of ``dim_out x dim_in`` operators or one
    ``(n, dim_out, dim_in)`` array; it is kept as one read-only stack, with
    ``kraus_ops`` a tuple of views into it, and both dimensions are read from
    the stack's shape. Completeness (sum K'K = I) is the caller's
    responsibility. Equality and hashing are by identity.
    """

    kraus_ops: tuple[np.ndarray, ...]
    dim_in: int = field(init=False)
    dim_out: int = field(init=False)
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.kraus_ops) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        try:
            # a view, so that an array passed in stays writeable for its owner
            stack = np.asarray(self.kraus_ops, dtype=complex).view()
        except ValueError:  # operators of unequal shapes
            stack = None
        if stack is None or stack.ndim != 3:
            raise DimensionMismatchError("Kraus operators must be matrices of one shape")
        stack.flags.writeable = False
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "kraus_ops", tuple(stack))
        object.__setattr__(self, "dim_out", stack.shape[1])
        object.__setattr__(self, "dim_in", stack.shape[2])

    def stacked(self) -> np.ndarray:
        """All Kraus operators as one read-only (n, dim_out, dim_in) array."""
        return self._stack


def weyl_basis(d: int) -> tuple[np.ndarray, ...]:
    """Generalized Pauli basis: X(i)|l> = |i+l mod d>, Z(j)|l> = w^{jl}|l>.

    The d^2 unitaries X(i) Z(j) are indexed by i*d + j; element 0 is I.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    omega = np.exp(2j * np.pi / d)
    shifts = [np.roll(np.eye(d, dtype=complex), i, axis=0) for i in range(d)]
    phases = [np.diag(omega ** (j * np.arange(d))) for j in range(d)]
    return tuple(shifts[i] @ phases[j] for i in range(d) for j in range(d))


def depolarizing_channel(d: int, q: float) -> KrausChannel:
    """rho -> q rho + (1-q) I/d, in the redundant (d^2 + 1)-operator form.

    The Kraus list is sqrt(q) I followed by sqrt(1-q)/d times each of the
    d^2 Weyl unitaries (identity included). The redundancy keeps the index
    structure of the double sum over operator pairs intact.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    ops = [np.sqrt(q) * np.eye(d, dtype=complex)]
    ops.extend(np.sqrt(1.0 - q) / d * u for u in weyl_basis(d))
    return KrausChannel(tuple(ops))

