"""Shared random-instance generators and suite runs for the test suite."""

import functools

import numpy as np

from switchcap.oracle import random_density_matrix as ginibre, verify_equivalence

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
