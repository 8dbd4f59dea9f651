"""Holevo information of the switched depolarizing channel.

With the control state fixed, the switched channel is covariant under
target unitaries U (x) I, so by Holevo's covariant-channel theorem
chi = log2(d) + H(control marginal) - H_min at every control weight p, and
the uniform orthonormal ensemble attains it. H_min splits into one 2x2
control block per input eigenvalue, which gives it a closed form too.
A seeded random-restart search over ensembles is kept as an independent
check: it must reach the closed form and never exceed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import KrausChannel, apply
from .qmat import (
    DensityMatrix,
    DimensionMismatchError,
    Spectrum,
    TOL_TRACE,
    entropy_bits,
)
from .switch import ControlState


@dataclass(frozen=True)
class Ensemble:
    """Classical-quantum input: (probability, state) pairs of equal dimension."""

    entries: tuple[tuple[float, DensityMatrix], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("ensemble must be nonempty")
        probs = [p for p, _ in self.entries]
        if min(probs) < 0:
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > TOL_TRACE:
            raise ValueError(f"probabilities sum to {sum(probs)}, expected 1")
        dims = {rho.dim for _, rho in self.entries}
        if len(dims) > 1:
            raise DimensionMismatchError(f"mixed state dimensions {dims}")

    @property
    def dim(self) -> int:
        return self.entries[0][1].dim


class AnalyticCapacity(NamedTuple):
    chi: float
    entropy_control: float
    h_min: float


@dataclass(frozen=True)
class OptimizerResult:
    chi: float
    trials_run: int
    refine_steps: int  # always 0: there is no local refinement


@dataclass(frozen=True)
class CapacityReport:
    """One sweep row: analytic and numeric capacity at (d, q, p)."""

    d: int
    q: float
    p: float
    chi_analytic: float
    chi_numeric: float
    entropy_control: float
    h_min: float


def reduced_control_state(d: int, q: float, ctrl: ControlState) -> DensityMatrix:
    """2x2 control marginal of the switched depolarizing output.

    (1-q)^2 [ diag(p, 1-p) + sqrt(p(1-p))/d^2 offdiag ] + q(2-q) rho_c.
    """
    if not ctrl.coherent:
        raise ValueError("defined for a coherent control")
    p = ctrl.p
    coh = np.sqrt(p * (1.0 - p))
    m = (1.0 - q) ** 2 * np.array(
        [[p, coh / d**2], [coh / d**2, 1.0 - p]], dtype=complex
    )
    m += q * (2.0 - q) * ctrl.density()
    return DensityMatrix(m)


def control_entropy(d: int, q: float, ctrl: ControlState) -> float:
    """H of the control marginal, in bits, for any coherent control weight."""
    rc = reduced_control_state(d, q, ctrl)
    return entropy_bits(np.linalg.eigvalsh(rc.matrix))


def switched_spectrum(
    d: int, q: float, ctrl: ControlState, rho_spectrum: Spectrum
) -> Spectrum:
    """Eigenvalues of the joint output for a coherent control of weight p.

    Each input eigenvalue lam gives one 2x2 control block. In the
    {|+>, |->} basis, with r = 1-q, c = sqrt(p(1-p)) and
    u = (r^2 + 2qr)/d + q^2 lam:
      ++  (r^2 + 2qr(1+2c)) / 2d + (q^2 (1/2+c) + r^2 c / d^2) lam
      --  r^2 (d - 2c lam) / 2d^2 + qr(1-2c) / d + q^2 (1/2-c) lam
      +-  (p - 1/2) u
    At p = 1/2 the blocks are diagonal.
    """
    if not ctrl.coherent:
        raise ValueError("the closed form assumes a coherent control")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    lam = np.asarray(rho_spectrum.eigenvalues, dtype=float)
    if len(lam) != d:
        raise DimensionMismatchError(f"expected {d} eigenvalues, got {len(lam)}")
    p, r = ctrl.p, 1.0 - q
    c = np.sqrt(p * (1.0 - p))
    slope = q**2 * (0.5 + c) + r**2 * c / d**2
    u = (r**2 + 2.0 * q * r) / d + q**2 * lam
    blocks = np.empty((d, 2, 2))
    blocks[:, 0, 0] = (r**2 + 2.0 * q * r * (1.0 + 2.0 * c)) / (2.0 * d) + slope * lam
    blocks[:, 1, 1] = (
        r**2 * (d - 2.0 * c * lam) / (2.0 * d**2)
        + q * r * (1.0 - 2.0 * c) / d
        + q**2 * (0.5 - c) * lam
    )
    blocks[:, 0, 1] = blocks[:, 1, 0] = (p - 0.5) * u
    return Spectrum(tuple(np.linalg.eigvalsh(blocks).ravel()))


def h_min(d: int, q: float, ctrl: ControlState) -> float:
    """Minimum output entropy (bits); attained on pure target inputs."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    pure = Spectrum((1.0,) + (0.0,) * (d - 1))
    return entropy_bits(switched_spectrum(d, q, ctrl, pure).eigenvalues)


def holevo_analytic(d: int, q: float, ctrl: ControlState) -> AnalyticCapacity:
    """chi = log2(d) + H(control marginal) - H_min, for a coherent control."""
    hc = control_entropy(d, q, ctrl)
    hm = h_min(d, q, ctrl)
    return AnalyticCapacity(np.log2(d) + hc - hm, hc, hm)


def _holevo(probs: np.ndarray, outputs: np.ndarray) -> float:
    """H(sum_x p_x out_x) - sum_x p_x H(out_x) for an (m, n, n) output stack;
    the average joins the stack for one ``eigvalsh`` and one entropy call."""
    avg = (probs[:, None, None] * outputs).sum(axis=0)
    h = entropy_bits(np.linalg.eigvalsh(np.concatenate((outputs, avg[None]))))
    return float(h[-1] - probs @ h[:-1])


def holevo_of_ensemble(ch: KrausChannel, ens: Ensemble) -> float:
    """Mutual information H(sum_x p_x N(rho_x)) - sum_x p_x H(N(rho_x))."""
    if ens.dim != ch.dim_in:
        raise DimensionMismatchError(
            f"ensemble dimension {ens.dim} != channel input {ch.dim_in}"
        )
    probs, states = zip(*((p, rho) for p, rho in ens.entries if p != 0.0))
    outputs = np.stack([apply(ch, rho).matrix for rho in states])
    return _holevo(np.array(probs), outputs)


def orthonormal_ensemble(d: int) -> Ensemble:
    """d computational-basis pure states with uniform probabilities."""
    eye = np.eye(d, dtype=complex)
    return Ensemble(
        tuple((1.0 / d, DensityMatrix(np.outer(eye[i], eye[i]))) for i in range(d))
    )


def _transfer_matrix(ch: KrausChannel) -> np.ndarray:
    """Row-major superoperator: vec(N(rho)) = T vec(rho).

    Internal optimizer speedup only; applying T once replaces the sum over
    the (possibly large, redundant) Kraus list.
    """
    k = ch.stacked()
    n, r, c = k.shape
    flat = k.reshape(n, r * c)
    # entry ((a, x), (b, y)) is sum_k K[a, x] conj(K[b, y]) = kron(K, conj K)[ab, xy]
    gram = (flat.T @ flat.conj()).reshape(r, c, r, c)
    return gram.transpose(0, 2, 1, 3).reshape(r * r, c * c)


def _chi_pure(transfer: np.ndarray, dim_out: int, probs, vecs) -> float:
    """Holevo quantity of a pure-state ensemble via the transfer matrix.

    ``vecs`` is an (m, d) array of unit vectors and ``probs`` an array of m
    weights summing to 1; zero-weight vectors are dropped.
    """
    keep = probs != 0.0
    vecs = vecs[keep]
    projectors = (vecs[:, :, None] * vecs[:, None, :].conj()).reshape(len(vecs), -1)
    outputs = (projectors @ transfer.T).reshape(-1, dim_out, dim_out)
    return _holevo(probs[keep], outputs)


def optimize_ensemble(
    ch: KrausChannel, trials: int = 200, seed: int = 0
) -> OptimizerResult:
    """Best of the uniform orthonormal ensemble and ``trials`` random ones.

    Each random ensemble has up to d^2 pure states and Dirichlet weights,
    drawn from its own (seed, trial) stream, so the result is deterministic
    in ``seed``; each is evaluated as one stack. For a covariant channel the
    orthonormal ensemble already attains chi; the random restarts are a
    check that nothing beats it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = ch.dim_in
    transfer = _transfer_matrix(ch)
    uniform = np.full(d, 1.0 / d)
    best_chi = _chi_pure(transfer, ch.dim_out, uniform, np.eye(d, dtype=complex))

    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        m = int(rng.integers(2, d * d + 1))
        # each vector takes d real parts, then d imaginary parts, from the stream
        re_im = rng.standard_normal((m, 2, d))
        vecs = re_im[:, 0] + 1j * re_im[:, 1]
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        probs = rng.dirichlet(np.ones(m))
        best_chi = max(best_chi, _chi_pure(transfer, ch.dim_out, probs, vecs))

    return OptimizerResult(best_chi, trials, 0)
