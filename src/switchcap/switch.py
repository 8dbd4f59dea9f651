"""The quantum SWITCH of two channels with a qubit control.

Ordering convention, used everywhere: the joint space is target (x) control,
with the target as the slower-varying index. Control value |0> means channel
1 acts first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .qmat import DensityMatrix, tensor


@dataclass(frozen=True)
class ControlState:
    """Qubit control with weight ``p`` on |0>.

    Coherent means the pure state sqrt(p)|0> + sqrt(1-p)|1>; otherwise the
    dephased mixture p|0><0| + (1-p)|1><1|.
    """

    p: float
    coherent: bool = True

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")

    def density(self) -> np.ndarray:
        rho = np.array([[self.p, 0.0], [0.0, 1.0 - self.p]], dtype=complex)
        if self.coherent:
            c = np.sqrt(self.p * (1.0 - self.p))
            rho[0, 1] = rho[1, 0] = c
        return rho


def switch_channel(n1: KrausChannel, n2: KrausChannel) -> KrausChannel:
    """Kraus operators K2_i K1_j (x) |0><0| + K1_j K2_i (x) |1><1|."""
    if not (n1.dim_in == n1.dim_out == n2.dim_in == n2.dim_out):
        raise ValueError("both channels must be square and equal-dimension")
    d = n1.dim_in
    k1, k2 = n1.ops, n2.ops
    # operator (i, j) pairs K2_i with K1_j; axes are (x, control, y, control')
    w = np.zeros((len(k2), len(k1), d, 2, d, 2), dtype=complex)
    # written in place: no (n, n, d, d) product temporaries
    np.matmul(k2[:, None], k1[None], out=w[:, :, :, 0, :, 0])
    np.matmul(k1[None], k2[:, None], out=w[:, :, :, 1, :, 1])
    return KrausChannel(w.reshape(-1, 2 * d, 2 * d))


def switch_with_fixed_control(
    n1: KrausChannel, n2: KrausChannel, ctrl: ControlState
) -> KrausChannel:
    """The d -> 2d channel rho -> S(n1, n2)(rho (x) rho_c) with rho_c fixed.

    For a coherent control the Kraus operators are W (I (x) |psi_c>); for a
    dephased one, each basis component contributes its own family with
    weight sqrt of its probability.

    W is block-diagonal in the control, so W (I (x) |v>) is W's control
    diagonal, entry ((x, c), y) = W[(x, c), (y, c)], times v_c: one
    broadcast product per entry, with no matmul over the zero blocks.
    """
    sw = switch_channel(n1, n2)
    d = n1.dim_in
    amps = np.sqrt([ctrl.p, 1.0 - ctrl.p])
    vecs = amps[None] if ctrl.coherent else np.diag(amps)[amps > 0]
    blocks = np.einsum("nxcyc->nxcy", sw.ops.reshape(-1, d, 2, d, 2))
    ops = blocks[:, None] * vecs[:, None, :, None]
    return KrausChannel(ops.reshape(-1, 2 * d, d))


def depolarizing_switch_terms(
    d: int, q: float, ctrl: ControlState
) -> tuple[int, np.ndarray, np.ndarray]:
    """The closed-form terms (d, A, B): where the closed form checks d and q.

    Two noise-q depolarizers in a SWITCH send rho (x) rho_c to I (x) A + rho (x) B,
    with A and B real 2x2, for a coherent or a dephased control rho_c. Each
    control block maps rho to alpha rho + beta Tr(rho) I/d, so, entrywise,
      A = rho_c * beta / d,  beta = [[1-q^2, 2q(1-q)], [2q(1-q), 1-q^2]]
      B = rho_c * alpha,     alpha = [[q^2, q^2 + (1-q)^2/d^2], [same, q^2]]
    """
    if d < 2 or not 0.0 <= q <= 1.0:
        raise ValueError(f"need d >= 2 and q in [0, 1], got d = {d}, q = {q}")
    q2, mix = q**2, 2.0 * q * (1.0 - q)
    twirl = q2 + (1.0 - q) ** 2 / d**2
    beta_alpha = np.array(
        [[[1.0 - q2, mix], [mix, 1.0 - q2]], [[q2, twirl], [twirl, q2]]]
    )
    rho_c_beta, b = ctrl.density().real * beta_alpha
    return d, rho_c_beta / d, b


def switched_depolarizing_analytic(terms, rho: DensityMatrix) -> DensityMatrix:
    """Closed-form SWITCH output I (x) A + rho (x) B, in target (x) control order;
    a stack of states gives the stack of their outputs, and A and B stacked as
    (k, 1, 2, 2) over k controls give a leading axis over them."""
    d, a, b = terms
    if rho.dim != d:
        raise ValueError(f"state dimension {rho.dim} != {d}")
    return DensityMatrix(tensor(np.eye(d), a) + tensor(rho.matrix, b))
