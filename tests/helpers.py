"""Shared random instances, channel fixtures, the Kraus-sum reference route,
a partial trace and suite runs for the test suite."""

import functools

import numpy as np

from switchcap.channels import KrausChannel, depolarizing_channel
from switchcap.oracle import _ginibre, verify_equivalence
from switchcap.qmat import DensityMatrix, entropy_bits, tensor
from switchcap.switch import ControlState, switch_channel

# A suite's report is immutable and its grid fixed, so the tests that assert
# on the same suite share one run of it.
suite_report = functools.cache(verify_equivalence)


def ginibre(d, seed):
    """The oracle suites' Ginibre state of dimension d and seed, validated."""
    return DensityMatrix(_ginibre(d, seed))


def eigvalsh_calls(monkeypatch):
    """The shapes of the arrays passed to np.linalg.eigvalsh, appended to the
    returned list at each call for as long as ``monkeypatch`` holds."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def record(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    return calls


def haar_unitary(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sampled_ensemble(rng, d):
    """Dirichlet weights and an (m, d) array of 1 to d^2 random unit vectors, drawn
    from ``rng`` in this order: the size, each vector's real then imaginary parts,
    the weights. Each vector is normalised on its own."""
    m = int(rng.integers(1, d * d + 1))
    vecs = []
    for _ in range(m):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vecs.append(v / np.linalg.norm(v))
    return rng.dirichlet(np.ones(m)), np.array(vecs)


def pure_states(vecs):
    return [DensityMatrix(np.outer(v, v.conj())) for v in vecs]


def random_kraus(rng, n, dim_out, dim_in):
    """n Gaussian dim_out x dim_in operators, scaled so that entries stay O(1)."""
    shape = (n, dim_out, dim_in)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2 * n)


def identity_channel(d):
    return KrausChannel((np.eye(d, dtype=complex),))


def dephasing_channel(d):
    """Full dephasing in the computational basis; all Kraus operators commute."""
    projectors = tuple(
        np.outer(np.eye(d, dtype=complex)[k], np.eye(d)[k]) for k in range(d)
    )
    return KrausChannel(projectors)


def compose_serial(first, second):
    """second after first; Kraus set is all products K2 K1."""
    if second.dim_in != first.dim_out:
        raise ValueError(f"serial mismatch: {first.dim_out} -> {second.dim_in}")
    ops = tuple(k2 @ k1 for k2 in second.kraus_ops for k1 in first.kraus_ops)
    return KrausChannel(ops)


def cptp_deviation(ch):
    """Max-entry deviation of sum K'K from the identity; 0 for a CPTP channel."""
    k = ch.ops
    total = np.einsum("nji,njk->ik", k.conj(), k)
    return float(np.abs(total - np.eye(ch.dim_in)).max())


def partial_trace(m, dim_a, dim_b, keep):
    """The reduced state of subsystem ``keep`` ("A" or "B") of a DensityMatrix on
    A (x) B, with A the slow index of dimension ``dim_a``: a plain einsum."""
    t = m.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    return DensityMatrix(np.einsum({"A": "ikjk->ij", "B": "kikj->ij"}[keep], t))


# The Kraus route: each output is the plain sum over a channel's Kraus list,
# the reference that the closed forms and the transfer matrix are tested against.
def apply(ch, rho):
    """sum_i K_i rho K_i' for a DensityMatrix rho, as batched matrix products."""
    k = ch.ops
    return DensityMatrix((k @ rho.matrix @ k.conj().swapaxes(1, 2)).sum(axis=0))


def switch_apply(n1, n2, rho, ctrl):
    """The SWITCH of n1 and n2 applied to rho (x) rho_c, on target (x) control."""
    return apply(switch_channel(n1, n2), DensityMatrix(tensor(rho.matrix, ctrl.density())))


def representation_deviation(seed, rho):
    """Max-entry difference between the SWITCH outputs on rho (x) |+><+| of a
    noise-0.3 qubit depolarizer and of the same channel with its Kraus list mixed
    by a unitary drawn from ``seed``: 0 for a representation-independent SWITCH."""
    dep = depolarizing_channel(2, 0.3)
    rng = np.random.default_rng(seed)
    n = len(dep.ops)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v, _ = np.linalg.qr(g)
    mixed = KrausChannel(tuple(sum(v[i, j] * dep.ops[j] for j in range(n)) for i in range(n)))
    plus = ControlState(0.5)
    a = switch_apply(dep, dep, rho, plus).matrix
    b = switch_apply(mixed, mixed, rho, plus).matrix
    return float(np.abs(a - b).max())


def holevo_of_ensemble(ch, probs, states):
    """H(sum_x p_x N(rho_x)) - sum_x p_x H(N(rho_x)), in bits."""
    outputs = [apply(ch, rho).matrix for rho in states]
    average = sum(p * out for p, out in zip(probs, outputs))
    h_out = sum(p * entropy_bits(np.linalg.eigvalsh(out)) for p, out in zip(probs, outputs))
    return entropy_bits(np.linalg.eigvalsh(average)) - h_out
