"""Shared random-instance generators for the test suite."""

import numpy as np

from switchcap.oracle import random_density_matrix as ginibre


def haar_unitary(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
