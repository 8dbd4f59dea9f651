"""Independent brute-force verification layer.

The brute-force path below rebuilds everything from raw operator sums: its
own Weyl unitaries, its own Kraus list, and one stacked array of all
(d^2 + 1)^2 switched operators W. The sum of W (x) conj(W) over every
pair is one cached superoperator, so the output, the sum of W sigma W'
over every pair, is one matrix-vector product with vec(sigma).
From the library it takes only the qmat primitives and the control density
rho_c from ``switch.ControlState.density()``, so agreement between the two
paths is meaningful. The suites call the library functions they certify.

Only ``reference_constants`` imports mpmath, on its first call: it evaluates
the capacity constants frozen into the test fixtures in extended precision.
"""

from __future__ import annotations

import functools
import json
import math
from typing import NamedTuple

import numpy as np

from . import capacity, switch
from .qmat import DensityMatrix, partial_trace, tensor
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
    """G G' / Tr(G G') for Gaussian G, as a raw matrix. Full rank a.s."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / m.trace()


def random_density_matrix(d: int, seed: int) -> DensityMatrix:
    """Ginibre state: normalize G G' for Gaussian G. Full rank a.s."""
    return DensityMatrix(_ginibre(d, seed))


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


# The suites call the oracle many times in a row at one (d, q), so the last
# stack and superoperator are kept; they are read-only because every caller
# shares them.
@functools.lru_cache(maxsize=1)
def _switch_kraus(d: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """The (d^2+1)^2 switched Kraus operators of two noise-q depolarizers.

    Operator (i, j) is K_i K_j (x) |0><0| + K_j K_i (x) |1><1|. Returns the
    read-only (n^2, 2d, 2d) stack W and the read-only (4d^2, 4d^2)
    superoperator sum_k W_k (x) conj(W_k), whose entry ((a, b), (i, j)) is
    sum_k W_k[a, i] conj(W_k[b, j]), built as one GEMM over the stack.
    """
    kraus = np.array(
        [np.sqrt(q) * np.eye(d, dtype=complex)]
        + [np.sqrt(1.0 - q) / d * u for u in _weyl_ops(d)]
    )
    n = len(kraus)
    w = np.zeros((n, n, d, 2, d, 2), dtype=complex)
    w[:, :, :, 0, :, 0] = kraus[:, None] @ kraus[None, :]
    w[:, :, :, 1, :, 1] = kraus[None, :] @ kraus[:, None]
    w.flags.writeable = False
    w = w.reshape(n * n, 2 * d, 2 * d)
    flat = w.reshape(n * n, -1)
    # rows (a, i) and columns (b, j), regrouped as rows (a, b) and columns (i, j)
    pairs = (flat.T @ flat.conj()).reshape((2 * d,) * 4).transpose(0, 2, 1, 3)
    pairs = pairs.reshape(4 * d * d, 4 * d * d)
    pairs.flags.writeable = False
    return w, pairs


def brute_force_switch_output(
    d: int, q: float, ctrl: ControlState, rho: DensityMatrix
) -> DensityMatrix:
    """Sum of W sigma W' over all (d^2+1)^2 Kraus pairs of the switched channel;
    a stack of states gives the stack of their outputs."""
    sigma = tensor(rho.matrix, ctrl.density())
    _, pairs = _switch_kraus(d, q)
    flat = sigma.reshape(sigma.shape[:-2] + (-1,))
    return DensityMatrix((flat @ pairs.T).reshape(sigma.shape))


def reference_constants() -> dict[str, float]:
    """Capacity reference values at q=0, evaluated to 50 significant digits."""
    import mpmath as mp  # here, so that no sweep or verify run loads it
    with mp.workdps(50):
        lg2 = mp.log(2)

        def h(vals):
            return float(-sum(v * mp.log(v) / lg2 for v in vals if v != 0))

        out = {}
        for d in (2, 3, 4, 5, 6):
            dm = mp.mpf(d)
            hc = h([mp.mpf(1) / 2 + 1 / (2 * dm**2), mp.mpf(1) / 2 - 1 / (2 * dm**2)])
            plus = [1 / (2 * dm) + 1 / (2 * dm**2)] + [1 / (2 * dm)] * (d - 1)
            minus = [(dm - 1) / (2 * dm**2)] + [1 / (2 * dm)] * (d - 1)
            hm = h(plus + minus)
            out[f"entropy_control_d{d}"] = hc
            out[f"h_min_d{d}"] = hm
            out[f"chi_d{d}"] = float(mp.log(dm) / lg2) + hc - hm
        return out


def _analytic_vs_brute():
    for d in (2, 3, 4):
        states = DensityMatrix(np.stack([_ginibre(d, seed) for seed in range(20)]))
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            for p in (0.0, 0.3, 0.5, 1.0):
                ctrl = ControlState(p)
                brute = brute_force_switch_output(d, q, ctrl, states)
                analytic = switch.switched_depolarizing_analytic(d, q, ctrl, states)
                devs = np.abs(brute.matrix - analytic.matrix).max(axis=(1, 2))
                for seed, dev in enumerate(devs):
                    yield float(dev), dict(d=d, q=q, p=p, seed=seed)


def _spectrum_vs_eigensolver():
    for d in (2, 3, 4, 5):
        states = DensityMatrix(np.stack([_ginibre(d, seed) for seed in range(10)]))
        for q in (0.0, 0.3, 0.7, 1.0):
            for p in (0.2, 0.5, 0.7):
                ctrl = ControlState(p)
                predicted = capacity.switched_spectrum(d, q, ctrl, states.spectrum)
                out = switch.switched_depolarizing_analytic(d, q, ctrl, states)
                devs = np.abs(predicted - out.spectrum).max(axis=1)
                for seed, dev in enumerate(devs):
                    yield float(dev), dict(d=d, q=q, p=p, seed=seed)


def _chi_vs_optimizer():
    for d in (2, 3):
        for p in (0.2, 0.5, 0.7):
            ctrl = ControlState(p)
            result = capacity.holevo_numeric(d, 0.0, ctrl, trials=200, seed=0)
            chi = capacity.holevo_analytic(d, 0.0, ctrl).chi
            yield abs(result.chi - chi), dict(d=d, q=0.0, p=p, seed=0)


def _marginals():
    ctrl = ControlState(0.5)
    for d in (2, 3, 4):
        target_ref = np.eye(d) / d
        control_ref = capacity.reduced_control_state(d, 0.0, ctrl).matrix
        for seed in range(10):
            rho = random_density_matrix(d, seed)
            out = brute_force_switch_output(d, 0.0, ctrl, rho)
            tmarg = partial_trace(out, d, 2, "A")
            cmarg = partial_trace(out, d, 2, "B")
            dev = max(
                float(np.abs(tmarg.matrix - target_ref).max()),
                float(np.abs(cmarg.matrix - control_ref).max()),
            )
            yield dev, dict(d=d, q=0.0, p=0.5, seed=seed)


def _cptp():
    for d in (2, 3, 4):
        for q in (0.0, 0.4, 1.0):
            w, pairs = _switch_kraus(d, q)
            total = (w.conj().transpose(0, 2, 1) @ w).sum(0)
            # the superoperator the oracle applies, traced over its output (a, a)
            traced = pairs.reshape(2 * d, 2 * d, -1).trace().reshape(2 * d, 2 * d)
            dev = float(np.abs(np.stack([total, traced]) - np.eye(2 * d)).max())
            yield dev, dict(d=d, q=q)


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
    for d in (2, 3, 4):
        for q in (0.0, 0.4, 1.0):
            devs = _covariance_deviations(_switch_kraus(d, q)[1], d)
            for k, dev in enumerate(devs):
                yield float(dev), dict(d=d, q=q, unitary=k)


# Each suite yields (deviation, parameters) over its fixed grid.
SUITES = {
    "analytic-vs-brute": _analytic_vs_brute,
    "spectrum-vs-eigensolver": _spectrum_vs_eigensolver,
    "chi-vs-optimizer": _chi_vs_optimizer,
    "marginals": _marginals,
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
