"""Holevo information of the switched depolarizing channel.

The closed-form output is I (x) A + rho (x) B; the analytic functions read
the (d, A, B) of ``switch.depolarizing_switch_terms``. With the control fixed,
coherent or dephased, the channel is covariant under target unitaries U (x) I,
so by Holevo's covariant-channel theorem chi = log2(d) + H(d A + B) - H_min at
every control weight p, and the uniform orthonormal ensemble attains it. d A + B
is the control marginal; H_min is the entropy of A + lam B at a pure input.
A seeded random-restart search over ensembles is kept as an independent
check: it must reach the closed form and exceed it by no more than round-off.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from .channels import KrausChannel, depolarizing_channel
from .qmat import TOL, DensityMatrix, entropy_bits
from .switch import ControlState, switch_with_fixed_control

STACK_BYTES = 64 * 1024  # bytes of outputs per stack of equal-size restarts in optimize_ensemble


class AnalyticCapacity(NamedTuple):
    chi: float
    entropy_control: float
    h_min: float


class OptimizerResult(NamedTuple):
    chi: float
    trials_run: int
    refine_steps: int  # always 0: there is no local refinement


def reduced_control_state(terms) -> DensityMatrix:
    """2x2 control marginal of the switched depolarizing output: d A + B."""
    d, a, b = terms
    return DensityMatrix(d * a + b)


def switched_spectrum(terms, rho_spectrum) -> np.ndarray:
    """Eigenvalues of the joint output, descending, from those of the input.

    In the eigenbasis of rho the output I (x) A + rho (x) B splits into one
    2x2 control block A + lam B per input eigenvalue lam. A ``(..., d)`` stack
    of input spectra gives a ``(..., 2d)`` stack of output spectra.
    """
    d, a, b = terms
    lam = np.asarray(rho_spectrum, dtype=float)
    if lam.shape[-1:] != (d,):
        raise ValueError(f"expected {d} eigenvalues, got {lam.shape}")
    blocks = np.linalg.eigvalsh(a + lam[..., None, None] * b)
    return np.sort(blocks.reshape(lam.shape[:-1] + (2 * d,)), axis=-1)[..., ::-1]


def holevo_analytic(terms) -> AnalyticCapacity:
    """chi = log2(d) + H(control marginal) - H_min, for a coherent or dephased
    control. H_min, the minimum output entropy, is attained on pure inputs."""
    d = terms[0]
    hc = entropy_bits(reduced_control_state(terms).spectrum)
    # a pure input has eigenvalues 1, 0, ..., 0
    hm = entropy_bits(switched_spectrum(terms, np.eye(d)[0]))
    chi = np.log2(d) + hc - hm
    # a zero chi can cancel to a few ulps below 0: round-off in [-TOL, 0) is 0
    return AnalyticCapacity(0.0 if -TOL <= chi < 0 else chi, hc, hm)


def _transfer_matrix(ch: KrausChannel) -> np.ndarray:
    """Row-major superoperator: vec(N(rho)) = T vec(rho).

    Internal optimizer speedup only; applying T once replaces the sum over
    the (possibly large, redundant) Kraus list.

    The Gram matrix G = sum_k vec(K) vec(K)^T* is summed one nonzero pattern
    at a time: the operators that share a pattern add sub^T conj(sub) over
    that pattern's nonzero entries only. This is exact, since every product
    it skips has a zero factor. The fixed-control SWITCH of two Weyl-form
    depolarizers has at most 2d + 1 patterns, each with 2d of an operator's
    2d^2 entries; a dense list is one pattern and one GEMM.
    """
    k = ch.ops
    n, r, c = k.shape
    flat = k.reshape(n, r * c)
    # one byte-string key per row, sorted so that each pattern is one slice
    bits = np.packbits(flat != 0, axis=1)
    keys = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    bounds = np.flatnonzero(keys[order[1:]] != keys[order[:-1]]) + 1
    # G[(a, x), (b, y)] = sum_k K[a, x] conj(K[b, y]) = kron(K, conj K)[ab, xy]
    gram = np.zeros((r * c, r * c), dtype=complex)
    for rows in np.split(order, bounds):
        cols = np.flatnonzero(flat[rows[0]])
        sub = flat[np.ix_(rows, cols)]
        gram[np.ix_(cols, cols)] += sub.T @ sub.conj()
    return gram.reshape(r, c, r, c).transpose(0, 2, 1, 3).reshape(r * r, c * c)


def _output_entropies(transfer: np.ndarray, dim_out: int, probs, vecs) -> np.ndarray:
    """Output entropies of g pure-state ensembles: (g, m, d) unit vectors ``vecs``
    with (g, m) weights ``probs``, each row summing to 1. Each average output follows
    its m outputs, for one ``eigvalsh`` and one entropy call over (g, m + 1)."""
    g, m, d = vecs.shape
    projectors = (vecs[..., :, None] * vecs[..., None, :].conj()).reshape(g * m, d * d)
    outputs = (projectors @ transfer.T).reshape(g, m, dim_out, dim_out)
    avg = (probs[..., None, None] * outputs).sum(axis=1)
    return entropy_bits(np.linalg.eigvalsh(np.concatenate((outputs, avg[:, None]), axis=1)))


def _chi_pure(probs, h) -> float:
    """Holevo quantity of one ensemble from its m + 1 output entropies, average last."""
    return float(h[-1] - probs @ h[:-1])


def _uniforms(rng: random.Random, n: int) -> np.ndarray:
    """n uniforms in [0, 1): the top 53 bits of each little-endian uint64 in
    ``rng.randbytes(8 n)``, times 2^-53. Scaled in place: a uint64 times a float
    would cast through a buffer of up to 8192 entries."""
    u = (np.frombuffer(rng.randbytes(8 * n), "<u8") >> 11).astype(float)
    u *= 2.0**-53
    return u


def _restart_draws(d: int, trials: int, seed: int):
    """(sizes, vecs, weights) of ``trials`` random ensembles, from one ``random.Random(seed)``.

    First ``trials`` uniforms u give the sizes 2 + floor(u (d^2 - 1)), uniform on [2, d^2].
    Then one block of uniforms, each part in restart order: d per vector for the moduli
    sqrt(-log1p(-u)), d per vector for the phases 2 pi u, and one per vector for the
    weights. A vector's d complex Gaussians, normalised, are a Haar-random state; each
    restart's Exp(1) variates -log1p(-u), over their sum, are Dirichlet(1, ..., 1) weights.
    ``vecs`` is (sum(sizes), d) and ``weights`` (sum(sizes),). Each part is contiguous, so
    the in-place steps copy nothing, and neither output is a view of the block.
    """
    rng = random.Random(seed)
    sizes = 2 + (_uniforms(rng, trials) * (d * d - 1)).astype(int)
    n = int(sizes.sum())
    u = _uniforms(rng, n * (2 * d + 1))
    (radii, phases), tail = u[: 2 * n * d].reshape(2, n, d), u[2 * n * d :]
    for x in (radii, tail):  # -log1p(-u), in place: Exp(1), the |z|^2 of a complex Gaussian
        np.negative(np.log1p(np.negative(x, out=x), out=x), out=x)
    # |v_j| = sqrt(e_j / sum(e)) normalises v, since |z_j|^2 = e_j
    np.sqrt(np.divide(radii, radii.sum(axis=1, keepdims=True), out=radii), out=radii)
    phases *= 2 * np.pi
    vecs = np.empty((n, d), dtype=complex)
    np.cos(phases, out=vecs.real)
    np.sin(phases, out=vecs.imag)
    vecs.real *= radii  # not vecs *= radii, which would cast radii to complex through a buffer
    vecs.imag *= radii
    weights = tail / np.repeat(np.add.reduceat(tail, np.cumsum(sizes) - sizes), sizes)
    return sizes, vecs, weights


def optimize_ensemble(ch: KrausChannel, trials: int, seed: int) -> OptimizerResult:
    """Best of the uniform orthonormal ensemble and ``trials`` random ones.

    Each random ensemble has 2 to d^2 Haar-random pure states and Dirichlet(1, ..., 1)
    weights, all drawn up front by ``_restart_draws`` from one ``random.Random(seed)``, so
    the result is deterministic in ``seed`` and no call loads ``numpy.random``. The
    restarts of one size go in stacks of at most ``STACK_BYTES`` of outputs, or of one
    restart if larger, with one ``_chi_pure`` call per ensemble. For a covariant channel
    the orthonormal ensemble already attains chi; the random restarts are a check that
    none exceeds it by more than round-off.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d, n = ch.dim_in, ch.dim_out
    transfer = _transfer_matrix(ch)
    u = np.full((1, d), 1.0 / d)  # the orthonormal start
    best_chi = _chi_pure(u[0], _output_entropies(transfer, n, u, np.eye(d)[None])[0])

    sizes, vecs, weights = _restart_draws(d, trials, seed)
    starts = np.cumsum(sizes) - sizes
    for m in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma
        rows = starts[sizes == m, None] + np.arange(m)
        per = max(1, STACK_BYTES // ((m + 1) * n * n * 16))
        for r in np.split(rows, range(per, len(rows), per)):
            w = weights[r]
            for p, hx in zip(w, _output_entropies(transfer, n, w, vecs[r])):
                best_chi = max(best_chi, _chi_pure(p, hx))

    return OptimizerResult(best_chi, trials, 0)


def holevo_numeric(d: int, q: float, ctrl: ControlState,
                   trials: int, seed: int) -> OptimizerResult:
    """``optimize_ensemble`` on two noise-q depolarizers in a SWITCH with control
    ``ctrl``. The Kraus stacks are locals, freed on return before the next call."""
    dep = depolarizing_channel(d, q)
    return optimize_ensemble(switch_with_fixed_control(dep, dep, ctrl), trials, seed)


def holevo_numeric_bytes(d: int, trials: int) -> tuple[int, int]:
    """Estimated peak bytes of one ``holevo_numeric`` call: Kraus stacks, draws.
    The (d^2+1)^2 SWITCH Kraus operators are held twice, as a stack of 2d x 2d and one of 2d x d
    complex matrices: 290.7 MB at d = 12, where tracemalloc measured 291.3 MB. The optimizer
    draws up to d^2 vectors per restart up front, at a peak of at most 48 d + 16 bytes a
    vector: tracemalloc measured 91, 153 and 281 bytes at d = 2, 4 and 8 over 2000 restarts,
    most of it the bytes of ``randbytes`` and the int they come from. Its stacks of
    max(``STACK_BYTES``, one restart) of outputs are left out: 0.19 MB at d <= 4, 2.8% of the
    Kraus term at d = 8 and 0.6% at d = 16, by tracemalloc."""
    kraus = (d * d + 1) ** 2 * ((2 * d) ** 2 + 2 * d * d) * 16
    return kraus, trials * d * d * (48 * d + 16)
