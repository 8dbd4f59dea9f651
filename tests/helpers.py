"""Shared random instances, channel fixtures, the Kraus-sum reference route
and suite runs for the test suite."""

import functools

import numpy as np

from switchcap.channels import KrausChannel
from switchcap.oracle import random_density_matrix as ginibre, verify_equivalence
from switchcap.qmat import DensityMatrix, DimensionMismatchError, entropy_bits, tensor
from switchcap.switch import switch_channel

# A suite's report is immutable and its grid fixed, so the tests that assert
# on the same suite share one run of it.
suite_report = functools.cache(verify_equivalence)


def haar_unitary(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
        raise DimensionMismatchError(f"serial mismatch: {first.dim_out} -> {second.dim_in}")
    ops = tuple(k2 @ k1 for k2 in second.kraus_ops for k1 in first.kraus_ops)
    return KrausChannel(ops)


def cptp_deviation(ch):
    """Max-entry deviation of sum K'K from the identity; 0 for a CPTP channel."""
    k = ch.stacked()
    total = np.einsum("nji,njk->ik", k.conj(), k)
    return float(np.abs(total - np.eye(ch.dim_in)).max())


# The Kraus route: each output is the plain sum over a channel's Kraus list,
# the reference that the closed forms and the transfer matrix are tested against.
def apply(ch, rho):
    """sum_i K_i rho K_i' for a DensityMatrix rho."""
    k = ch.stacked()
    return DensityMatrix(np.einsum("nij,jk,nlk->il", k, rho.matrix, k.conj()))


def switch_apply(n1, n2, rho, ctrl):
    """The SWITCH of n1 and n2 applied to rho (x) rho_c, on target (x) control."""
    return apply(switch_channel(n1, n2), DensityMatrix(tensor(rho.matrix, ctrl.density())))


def holevo_of_ensemble(ch, probs, states):
    """H(sum_x p_x N(rho_x)) - sum_x p_x H(N(rho_x)), in bits."""
    outputs = [apply(ch, rho).matrix for rho in states]
    average = sum(p * out for p, out in zip(probs, outputs))
    h_out = sum(p * entropy_bits(np.linalg.eigvalsh(out)) for p, out in zip(probs, outputs))
    return entropy_bits(np.linalg.eigvalsh(average)) - h_out
