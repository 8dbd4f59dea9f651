"""The quantum SWITCH of two channels with a qubit control.

Ordering convention, used everywhere: the joint space is target (x) control,
with the target as the slower-varying index. Control value |0> means channel
1 acts first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, apply
from .qmat import DensityMatrix, DimensionMismatchError, tensor


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
        raise DimensionMismatchError("both channels must be square and equal-dimension")
    d = n1.dim_in
    k1, k2 = n1.stacked(), n2.stacked()
    # operator (i, j) pairs K2_i with K1_j; axes are (x, control, y, control')
    w = np.zeros((len(k2), len(k1), d, 2, d, 2), dtype=complex)
    w[:, :, :, 0, :, 0] = k2[:, None] @ k1[None]
    w[:, :, :, 1, :, 1] = k1[None] @ k2[:, None]
    return KrausChannel(2 * d, 2 * d, w.reshape(-1, 2 * d, 2 * d))


def switch_with_fixed_control(
    n1: KrausChannel, n2: KrausChannel, ctrl: ControlState
) -> KrausChannel:
    """The d -> 2d channel rho -> S(n1, n2)(rho (x) rho_c) with rho_c fixed.

    For a coherent control the Kraus operators are W (I (x) |psi_c>); for a
    dephased one, each basis component contributes its own family with
    weight sqrt of its probability.
    """
    sw = switch_channel(n1, n2)
    d = n1.dim_in
    amps = np.sqrt([ctrl.p, 1.0 - ctrl.p])
    vecs = [amps] if ctrl.coherent else np.diag(amps)[amps > 0]
    embeds = np.stack([tensor(np.eye(d), v.reshape(2, 1)) for v in vecs])
    ops = (sw.stacked()[:, None] @ embeds).reshape(-1, 2 * d, d)
    return KrausChannel(d, 2 * d, ops)


def switch_apply(
    n1: KrausChannel, n2: KrausChannel, rho: DensityMatrix, ctrl: ControlState
) -> DensityMatrix:
    """Sum over all Kraus pairs applied to rho (x) rho_c, on target (x) control."""
    d = n1.dim_in
    if rho.dim != d:
        raise DimensionMismatchError(f"state dimension {rho.dim} != channel {d}")
    sigma = DensityMatrix(tensor(rho.matrix, ctrl.density()))
    return apply(switch_channel(n1, n2), sigma)


def depolarizing_switch_terms(
    d: int, q: float, ctrl: ControlState
) -> tuple[np.ndarray, np.ndarray]:
    """The real 2x2 control operators (A, B) of the closed-form SWITCH output.

    Two noise-q depolarizers in a SWITCH send rho (x) rho_c to
    I (x) A + rho (x) B, with c = sqrt(p(1-p)) and X the Pauli flip:
      A = [(1-q)^2 diag(p, 1-p) + 2q(1-q) rho_c] / d
        = [(1-q^2) diag(p, 1-p) + 2q(1-q) c X] / d
      B = (1-q)^2 c/d^2 X + q^2 rho_c
    """
    if not ctrl.coherent:
        raise ValueError("the closed form assumes a coherent control")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    p = ctrl.p
    c = math.sqrt(p * (1.0 - p))
    q2, mix = q**2, 2.0 * q * (1.0 - q)
    a = np.array([[(1.0 - q2) * p, mix * c], [mix * c, (1.0 - q2) * (1.0 - p)]]) / d
    off = (1.0 - q) ** 2 * c / d**2 + q2 * c
    b = np.array([[q2 * p, off], [off, q2 * (1.0 - p)]])
    return a, b


def switched_depolarizing_analytic(
    d: int, q: float, ctrl: ControlState, rho: DensityMatrix
) -> DensityMatrix:
    """Closed-form SWITCH output I (x) A + rho (x) B, in target (x) control order."""
    if rho.dim != d:
        raise DimensionMismatchError(f"state dimension {rho.dim} != {d}")
    a, b = depolarizing_switch_terms(d, q, ctrl)
    return DensityMatrix(tensor(np.eye(d), a) + tensor(rho.matrix, b))
