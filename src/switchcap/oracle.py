"""Independent brute-force verification layer.

The brute-force path below rebuilds everything from raw operator sums: its
own Weyl unitaries, its own Kraus list, and one stacked array of all
(d^2 + 1)^2 switched operators W. Its output, the sum of W sigma W' over
every pair, is contracted as two GEMMs: the stacked rows of W times sigma,
then, with the pairs moved into the columns, times the stacked adjoints.
It deliberately shares nothing with the channel/switch modules beyond the
qmat primitives, so agreement between the two paths is meaningful.

Reference constants for the capacity formulas are evaluated here in
extended precision (mpmath) and frozen into the test fixtures.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, asdict

import mpmath as mp
import numpy as np

from . import capacity, switch
from .channels import depolarizing_channel
from .qmat import DensityMatrix, hermitian_spectrum, partial_trace, tensor
from .switch import ControlState

@dataclass(frozen=True)
class ComparisonReport:
    description: str
    max_abs_deviation: float
    instances_tested: int
    worst_case_parameters: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def __str__(self):
        worst = ", ".join(f"{k}={v}" for k, v in self.worst_case_parameters.items())
        return (
            f"{self.description}: max |dev| = {self.max_abs_deviation:.3e} "
            f"over {self.instances_tested} instances (worst at {worst})"
        )


def random_density_matrix(d: int, seed: int) -> DensityMatrix:
    """Ginibre state: normalize G G' for Gaussian G. Full rank a.s."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())


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
# operator stacks are kept; they are read-only because every caller shares them.
@functools.lru_cache(maxsize=1)
def _switch_kraus(d: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """The (d^2+1)^2 switched Kraus operators of two noise-q depolarizers.

    Operator (i, j) is K_i K_j (x) |0><0| + K_j K_i (x) |1><1|. Returns the
    read-only (n^2, 2d, 2d) stack W and the read-only (n^2 * 2d, 2d) array
    of adjoints, with conj(W_k[b, j]) at row (k, j) and column b.
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
    adjoint = w.conj().transpose(0, 2, 1).reshape(-1, 2 * d)
    adjoint.flags.writeable = False
    return w, adjoint


def brute_force_switch_output(
    d: int, q: float, ctrl: ControlState, rho: DensityMatrix
) -> DensityMatrix:
    """Sum of W sigma W' over all (d^2+1)^2 Kraus pairs of the switched channel."""
    sigma = tensor(rho.matrix, ctrl.density())
    w, adjoint = _switch_kraus(d, q)
    # rows (k, a) of W_k sigma, regrouped as row a, column (k, j)
    left = (w.reshape(-1, 2 * d) @ sigma).reshape(-1, 2 * d, 2 * d)
    out = left.transpose(1, 0, 2).reshape(2 * d, -1) @ adjoint
    return DensityMatrix(out)


def reference_constants(dps: int = 50) -> dict[str, float]:
    """Capacity reference values at q=0, evaluated in extended precision."""
    with mp.workdps(dps):
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
        states = [random_density_matrix(d, seed) for seed in range(20)]
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            for p in (0.0, 0.3, 0.5, 1.0):
                ctrl = ControlState(p)
                for seed, rho in enumerate(states):
                    brute = brute_force_switch_output(d, q, ctrl, rho)
                    analytic = switch.switched_depolarizing_analytic(d, q, ctrl, rho)
                    dev = float(np.abs(brute.matrix - analytic.matrix).max())
                    yield dev, dict(d=d, q=q, p=p, seed=seed)


def _spectrum_vs_eigensolver():
    for d in (2, 3, 4, 5):
        states = [random_density_matrix(d, seed) for seed in range(10)]
        spectra = [hermitian_spectrum(rho.matrix) for rho in states]
        for q in (0.0, 0.3, 0.7, 1.0):
            for p in (0.2, 0.5, 0.7):
                ctrl = ControlState(p)
                for seed, (rho, rho_spec) in enumerate(zip(states, spectra)):
                    predicted = capacity.switched_spectrum(d, q, ctrl, rho_spec)
                    out = switch.switched_depolarizing_analytic(d, q, ctrl, rho)
                    solved = hermitian_spectrum(out.matrix)
                    dev = float(np.abs(predicted - solved).max())
                    yield dev, dict(d=d, q=q, p=p, seed=seed)


def _chi_vs_optimizer():
    for d in (2, 3):
        dep = depolarizing_channel(d, 0.0)
        for p in (0.2, 0.5, 0.7):
            ctrl = ControlState(p)
            ch = switch.switch_with_fixed_control(dep, dep, ctrl)
            result = capacity.optimize_ensemble(ch, trials=200, seed=0)
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
            w, _ = _switch_kraus(d, q)
            total = (w.conj().transpose(0, 2, 1) @ w).sum(0)
            dev = float(np.abs(total - np.eye(2 * d)).max())
            yield dev, dict(d=d, q=q, p=0.5, seed=0)


# Each suite yields (deviation, parameters) over its fixed grid.
SUITES = {
    "analytic-vs-brute": _analytic_vs_brute,
    "spectrum-vs-eigensolver": _spectrum_vs_eigensolver,
    "chi-vs-optimizer": _chi_vs_optimizer,
    "marginals": _marginals,
    "cptp": _cptp,
}


def verify_equivalence(suite: str) -> ComparisonReport:
    """Run one named comparison family over its parameter grid."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    worst, where, count = 0.0, {}, 0
    for count, (dev, params) in enumerate(SUITES[suite](), start=1):
        # the first NaN is kept as the worst case, so that the verdict fails
        if not (math.isnan(worst) or dev <= worst):
            worst, where = dev, params
    return ComparisonReport(suite, worst, count, where)
