"""Independent brute-force verification layer.

The brute-force path below rebuilds everything from raw operator sums: its
own Weyl unitaries and Kraus list, and per d the cached sums of W (x) conj(W)
over the switched operators W of three Kraus-pair classes, (I, I), (I, U)
with (U, I), and (U, U'). Each q weights them into a superoperator S, so the
sum of W sigma W' over all pairs is S vec(sigma).
From the library it takes only qmat's ``DensityMatrix`` and ``tensor`` and the
fields of a ``switch.ControlState``, and it has its own entropy, so agreement
between the two paths is meaningful. The suites call the library functions they certify.

Only ``reference_constants`` imports mpmath, on its first call: it evaluates
the capacity constants of ``chi-vs-reference`` and the tests to 50 digits.
The state suites draw their Ginibre states from the standard library's
``random.Random(seed)``, as the optimizer that ``chi-vs-brute`` runs draws its
restarts; only ``covariance``'s Haar unitaries load ``numpy.random``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from typing import NamedTuple

import numpy as np

from . import capacity, switch
from .qmat import DensityMatrix, tensor
from .switch import ControlState


class ComparisonReport(NamedTuple):
    description: str
    max_abs_deviation: float
    instances_tested: int
    worst_case_parameters: dict

    def to_json(self) -> str:
        fields = self._asdict()
        if not math.isfinite(self.max_abs_deviation):
            fields["max_abs_deviation"] = None
        return json.dumps(fields, indent=2, sort_keys=True, allow_nan=False)

    def __str__(self):
        worst = ", ".join(f"{k}={v}" for k, v in self.worst_case_parameters.items())
        return (
            f"{self.description}: max |dev| = {self.max_abs_deviation:.3e} "
            f"over {self.instances_tested} instances (worst at {worst})"
        )


def _ginibre(d: int, seed: int) -> np.ndarray:
    """G G' / Tr(G G') for Ginibre G, as a raw matrix: Hilbert-Schmidt distributed and
    full rank a.s. The real and imaginary parts of G, interleaved, are 2d^2 i.i.d. N(0, 1)
    draws of ``random.Random(seed)``, so that no state suite loads ``numpy.random``."""
    rng = random.Random(seed)
    g = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * d * d)]).view(complex).reshape(d, d)
    m = g @ g.conj().T
    return m / m.trace()


def _weyl_ops(d: int) -> list[np.ndarray]:
    omega = np.exp(2j * np.pi / d)
    ops = []
    for i in range(d):
        x = np.zeros((d, d), dtype=complex)
        for l in range(d):
            x[(i + l) % d, l] = 1.0
        for j in range(d):
            z = np.diag(omega ** (j * np.arange(d)))
            ops.append(x @ z)
    return ops


def _pair_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_W W (x) conj(W) over the pairs W = L R (x) |0><0| + R L (x) |1><1| of two
    stacks of d x d operators L and R. Entry ((a, b), (i, j)) is sum_W W[a, i]
    conj(W[b, j]), built as one GEMM over the stack of W."""
    d = left.shape[-1]
    w = np.zeros((len(left), len(right), d, 2, d, 2), dtype=complex)
    w[:, :, :, 0, :, 0] = left[:, None] @ right[None, :]
    w[:, :, :, 1, :, 1] = right[None, :] @ left[:, None]
    flat = w.reshape(-1, 4 * d * d)
    # rows (a, i) and columns (b, j), regrouped as rows (a, b) and columns (i, j)
    gram = (flat.T @ flat.conj()).reshape((2 * d,) * 4).transpose(0, 2, 1, 3)
    return gram.reshape(4 * d * d, 4 * d * d)


@functools.lru_cache(maxsize=None)
def _class_sums(d: int) -> np.ndarray:
    """The (3, 4d^2, 4d^2) pair sums of the unit Kraus operators I and Weyl U, by class
    (I, I); (I, U) and (U, I); (U, U'): built once per d, read-only, as callers share it."""
    eye, weyl = np.eye(d, dtype=complex)[None], np.array(_weyl_ops(d))
    sums = np.array([_pair_sum(eye, eye), _pair_sum(eye, weyl) + _pair_sum(weyl, eye),
                     _pair_sum(weyl, weyl)])
    sums.flags.writeable = False
    return sums


def _superoperator(d: int, q: float) -> np.ndarray:
    """The superoperator sum_W W (x) conj(W) of the SWITCH of two noise-q depolarizers, over
    its Kraus operators W = K_i K_j (x) |0><0| + K_j K_i (x) |1><1|, K = sqrt(q) I or
    sqrt(1-q)/d U: the class sums, weighted q^2, q(1-q)/d^2 and (1-q)^2/d^4."""
    s0, s1, s2 = _class_sums(d)
    return q**2 * s0 + q * (1.0 - q) / d**2 * s1 + (1.0 - q) ** 2 / d**4 * s2


def brute_force_switch_output(d: int, q: float, ctrl, rho: DensityMatrix) -> DensityMatrix:
    """Sum of W sigma W' over all (d^2+1)^2 Kraus pairs of the switched channel;
    a stack of states gives the stack of their outputs, and a sequence of
    ControlStates a leading axis over it, each row what its control gives alone."""
    ctrls = [ctrl] if isinstance(ctrl, ControlState) else ctrl
    offs = [np.sqrt(c.p * (1.0 - c.p)) if c.coherent else 0.0 for c in ctrls]
    rho_c = np.array([[[c.p, o], [o, 1.0 - c.p]] for c, o in zip(ctrls, offs)], dtype=complex)
    lead = (-1,) + (1,) * (rho.matrix.ndim - 2) if ctrls is ctrl else ()
    sigma = tensor(rho.matrix, rho_c.reshape(lead + (2, 2)))
    flat = sigma.reshape(sigma.shape[:-2] + (-1,))
    return DensityMatrix((flat @ _superoperator(d, q).T).reshape(sigma.shape))


def reference_constants() -> dict[str, float]:
    """Capacity reference values at q=0, from 50 significant digits, each rounded once."""
    import mpmath as mp  # here, so that no sweep or other verify run loads it
    with mp.workdps(50):
        lg2 = mp.log(2)

        def h(vals):
            return -sum(v * mp.log(v) / lg2 for v in vals if v != 0)

        out = {}
        for d in (2, 3, 4, 5, 6):
            dm = mp.mpf(d)
            hc = h([mp.mpf(1) / 2 + 1 / (2 * dm**2), mp.mpf(1) / 2 - 1 / (2 * dm**2)])
            plus = [1 / (2 * dm) + 1 / (2 * dm**2)] + [1 / (2 * dm)] * (d - 1)
            minus = [(dm - 1) / (2 * dm**2)] + [1 / (2 * dm)] * (d - 1)
            hm = h(plus + minus)
            out[f"entropy_control_d{d}"] = float(hc)
            out[f"h_min_d{d}"] = float(hm)
            out[f"chi_d{d}"] = float(mp.log(dm) / lg2 + hc - hm)
        return out


def _state_suite(dims, q_values, p_values, n_states, deviations):
    """Each state's (deviation, parameters) over a grid, in d, q, p, seed order: one
    ``deviations(d, q, ctrls, terms, states)`` call per (d, q) gives a row per control,
    an entry per state, with ``terms`` the library's (d, A, B) stacked over the controls.
    The Ginibre states of seeds 0 to n_states - 1 are one stack, validated once per d."""
    ctrls = [ControlState(p) for p in p_values]
    for d in dims:
        states = DensityMatrix(np.stack([_ginibre(d, seed) for seed in range(n_states)]))
        for q in q_values:
            _, a, b = zip(*(switch.depolarizing_switch_terms(d, q, c) for c in ctrls))
            terms = (d, np.array(a)[:, None], np.array(b)[:, None])
            for p, row in zip(p_values, deviations(d, q, ctrls, terms, states)):
                for seed, dev in enumerate(row):
                    yield float(dev), dict(d=d, q=q, p=p, seed=seed)


def _analytic_vs_brute(d, q, ctrls, terms, states):
    brute = brute_force_switch_output(d, q, ctrls, states)
    analytic = switch.switched_depolarizing_analytic(terms, states)
    return np.abs(brute.matrix - analytic.matrix).max(axis=(-2, -1))


def _spectrum_vs_eigensolver(d, q, ctrls, terms, states):
    _, a, b = terms
    lam = np.broadcast_to(states.spectrum, (len(ctrls),) + states.spectrum.shape)
    predicted = capacity.switched_spectrum((d, a[:, None], b[:, None]), lam)
    out = brute_force_switch_output(d, q, ctrls, states)
    return np.abs(predicted - out.spectrum).max(axis=-1)


def _marginals(d, q, ctrls, terms, states):
    target_ref = np.eye(d) / d
    # one oracle call per control and state, as perfbench's trace counts them
    for ctrl, control_ref in zip(ctrls, capacity.reduced_control_state(terms).matrix[:, 0]):
        outs = [brute_force_switch_output(d, q, ctrl, DensityMatrix(rho)).matrix
                for rho in states.matrix]
        yield [max(np.abs(np.einsum("ikjk->ij", out) - target_ref).max(),
                   np.abs(np.einsum("kikj->ij", out) - control_ref).max())
               for out in np.reshape(outs, (-1, d, 2, d, 2))]


def _chi_vs_reference():
    ref = reference_constants()
    for d in (2, 3, 4, 5, 6):
        terms = switch.depolarizing_switch_terms(d, 0.0, ControlState(0.5))
        for name, value in capacity.holevo_analytic(terms)._asdict().items():
            yield abs(value - ref[f"{name}_d{d}"]), dict(d=d, quantity=name)


def _entropy(spectra: np.ndarray) -> np.ndarray:
    """-sum lam log2(lam) over the positive eigenvalues of each spectrum (last axis)."""
    logs = np.log2(spectra, out=np.zeros_like(spectra), where=spectra > 0)
    return -(spectra * logs).sum(axis=-1)


def _chi_vs_brute():
    # by covariance under U (x) I, the basis |i><i| attains chi for either control,
    # and each of its outputs has entropy H_min and the same control marginal; the
    # entropy must keep q = 0.9's small eigenvalues and drop q = 1's exact zeros;
    # the optimizer runs the sweep's default 200 restarts
    for d, q, p, coherent in itertools.product(
            (2, 3), (0.0, 0.5, 0.9, 1.0), (0.0, 0.2, 0.5, 0.7, 1.0), (True, False)):
        ctrl = ControlState(p, coherent)
        outs = brute_force_switch_output(d, q, ctrl, DensityMatrix(np.eye(d) * np.eye(d)[:, None]))
        h_out = _entropy(outs.spectrum)
        chi = _entropy(DensityMatrix(outs.matrix.mean(axis=0)).spectrum) - h_out.mean()
        control = np.einsum("kikj->ij", outs.matrix[0].reshape(d, 2, d, 2))
        h_control = _entropy(DensityMatrix(control).spectrum)
        analytic = capacity.holevo_analytic(switch.depolarizing_switch_terms(d, q, ctrl))
        numeric = capacity.holevo_numeric(d, q, ctrl, trials=200, seed=0)
        grid = dict(d=d, q=q, p=p, coherent=coherent)
        yield abs(analytic.chi - chi), dict(grid, route="analytic")
        yield abs(numeric.chi - chi), dict(grid, route="numeric")
        yield abs(analytic.h_min - h_out[0]), dict(grid, quantity="h_min")
        yield abs(analytic.entropy_control - h_control), dict(grid, quantity="entropy_control")


def _cptp_deviation(superop: np.ndarray) -> float:
    """max(|Tr_out J - I|, -lambda_min(J)) for the Choi matrix J[(i, a), (j, b)] =
    S[(a, b), (i, j)] of a superoperator S on n x n matrices: 0 when S preserves
    the trace and is completely positive, J >= 0 (Choi, Linear Algebra Appl. 10,
    285 (1975))."""
    n = math.isqrt(len(superop))
    choi = superop.reshape(n, n, n, n).transpose(2, 0, 3, 1)
    traced = np.einsum("iaja->ij", choi)
    lam_min = np.linalg.eigvalsh(choi.reshape(n * n, n * n)).min()
    return max(float(np.abs(traced - np.eye(n)).max()), -float(lam_min))


def _cptp():
    for d, q in itertools.product((2, 3, 4), (0.0, 0.4, 1.0)):
        yield _cptp_deviation(_superoperator(d, q)), dict(d=d, q=q)


def _covariance_deviations(superop: np.ndarray, d: int) -> np.ndarray:
    """max |[S, V (x) conj(V)]| for each V = U (x) I_2, U first each of the d^2
    Weyl unitaries and then 5 Haar-random ones, as one stack.

    S acts on row-major vec(sigma) of target (x) control, where conjugation by
    V is V (x) conj(V), so every entry is 0 when the channel is U-covariant:
    the hypothesis of Holevo's covariant-channel theorem (quant-ph/0212025).
    """
    rng = np.random.default_rng(d)
    g = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    unitary, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=1, axis2=2)
    haar = unitary * (phases / np.abs(phases))[:, None, :]
    v = tensor(np.concatenate([_weyl_ops(d), haar]), np.eye(2))
    conj_v = tensor(v, v.conj())
    return np.abs(superop @ conj_v - conj_v @ superop).max(axis=(1, 2))


def _covariance():
    for d, q in itertools.product((2, 3, 4), (0.0, 0.4, 1.0)):
        for k, dev in enumerate(_covariance_deviations(_superoperator(d, q), d)):
            yield float(dev), dict(d=d, q=q, unitary=k)


# Each suite yields (deviation, parameters) over its fixed grid.
SUITES = {
    "analytic-vs-brute": functools.partial(
        _state_suite, (2, 3, 4), (0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.3, 0.5, 1.0), 20,
        _analytic_vs_brute),
    "spectrum-vs-eigensolver": functools.partial(
        _state_suite, (2, 3, 4, 5), (0.0, 0.3, 0.7, 1.0), (0.2, 0.5, 0.7), 10,
        _spectrum_vs_eigensolver),
    "chi-vs-reference": _chi_vs_reference,
    "chi-vs-brute": _chi_vs_brute,
    "marginals": functools.partial(_state_suite, (2, 3, 4), (0.0,), (0.5,), 10, _marginals),
    "cptp": _cptp,
    "covariance": _covariance,
}


def verify_equivalence(suite: str) -> ComparisonReport:
    """Run one named comparison family over its parameter grid."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    instances = list(SUITES[suite]())
    if not instances:
        raise ValueError(f"suite {suite!r} yielded no instances")
    devs, params = zip(*instances)
    # the first NaN, else the first maximum: an all-zero suite still names an
    # instance, and a NaN anywhere fails the verdict
    worst = np.argmax(devs)
    return ComparisonReport(suite, devs[worst], len(devs), params[worst])
