import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from switchcap.qmat import (
    DensityMatrix,
    entropy_bits,
    tensor,
)

from helpers import ginibre, haar_unitary, partial_trace

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestTensor:
    @given(
        hnp.arrays(complex, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                   elements=st.complex_numbers(max_magnitude=1e6, allow_nan=False)),
        hnp.arrays(complex, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                   elements=st.complex_numbers(max_magnitude=1e6, allow_nan=False)),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_byte_identical_to_kron(self, a, b, transpose):
        # a transposed operand is a strided view, which takes another multiply loop
        if transpose:
            b = b.T
        assert tensor(a, b).tobytes() == np.kron(a, b).tobytes()

    @given(st.integers(0, 500), st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_stacks_broadcast_row_by_row(self, seed, d, m):
        rng = np.random.default_rng(seed)
        rhos = np.stack([ginibre(d, seed + i).matrix for i in range(m)])
        a, b = rng.standard_normal((2, 2, 2))
        stacked = tensor(np.eye(d), a) + tensor(rhos, b)
        assert stacked.shape == (m, 2 * d, 2 * d)
        for i in range(m):
            assert np.abs(stacked[i] - (tensor(np.eye(d), a) + tensor(rhos[i], b))).max() <= 1e-15


class TestPartialTrace:
    """The test helper's einsum partial trace, the reference the marginal tests use."""

    def test_product_state(self):
        rho, sigma = ginibre(2, 0), ginibre(3, 1)
        joint = DensityMatrix(tensor(rho.matrix, sigma.matrix))
        np.testing.assert_allclose(
            partial_trace(joint, 2, 3, "A").matrix, rho.matrix, atol=1e-10
        )
        np.testing.assert_allclose(
            partial_trace(joint, 2, 3, "B").matrix, sigma.matrix, atol=1e-10
        )

    def test_bell_state(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        bell = DensityMatrix(np.outer(v, v.conj()))
        np.testing.assert_allclose(
            partial_trace(bell, 2, 2, "A").matrix, np.eye(2) / 2, atol=1e-12
        )

    @given(st.integers(0, 500))
    @settings(max_examples=30)
    def test_trace_preserved(self, seed):
        joint = ginibre(6, seed)
        red = partial_trace(joint, 2, 3, "B")
        assert np.isclose(red.matrix.trace(), 1.0)


class TestSpectrum:
    """``DensityMatrix.spectrum``: the eigenvalues its PSD check computed."""

    def test_control_marginal_eigenvalues(self):
        # 1/2 I + (1/8) sigma_x has eigenvalues 5/8 and 3/8
        m = np.eye(2) / 2 + SX / 8
        np.testing.assert_allclose(DensityMatrix(m).spectrum, (5 / 8, 3 / 8), atol=1e-12)

    @given(st.integers(0, 500), st.integers(1, 6))
    @settings(max_examples=30)
    def test_sums_to_trace(self, seed, n):
        assert abs(ginibre(n, seed).spectrum.sum() - 1.0) < 1e-12

    @given(st.integers(0, 500), st.integers(1, 6))
    @settings(max_examples=30)
    def test_returns_descending_array(self, seed, n):
        spec = ginibre(n, seed).spectrum
        assert isinstance(spec, np.ndarray) and spec.shape == (n,)
        assert np.all(spec[:-1] >= spec[1:])

    @given(st.integers(0, 500), st.integers(1, 6))
    @settings(max_examples=30)
    def test_is_the_eigensolver_output(self, seed, n):
        rho = ginibre(n, seed)
        assert rho.spectrum.tobytes() == np.linalg.eigvalsh(rho.matrix)[::-1].tobytes()

    @given(st.integers(0, 500), st.integers(1, 6))
    @settings(max_examples=10)
    def test_is_read_only(self, seed, n):
        rho = ginibre(n, seed)
        for array in (rho.matrix, rho.spectrum):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_caller_array_stays_writeable(self):
        # the state keeps its own copy: a complex array passed in is not frozen,
        # and a later write to it moves neither the matrix nor the spectrum
        a = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix(a)
        a[0, 0] = 1
        np.testing.assert_array_equal(rho.matrix, np.eye(2) / 2)
        np.testing.assert_array_equal(rho.spectrum, (0.5, 0.5))


def entropy(m):
    return entropy_bits(np.linalg.eigvalsh(m))


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_pure_state(self):
        assert entropy(np.diag([1.0, 0.0])) == 0.0

    def test_five_eighths_three_eighths(self):
        assert entropy(np.diag([5 / 8, 3 / 8])) == pytest.approx(0.954434, abs=1e-6)

    def test_tiny_negative_eigenvalues_clipped(self):
        assert entropy_bits([1.0, -1e-12]) == 0.0

    def test_empty_spectrum(self):
        assert entropy_bits([]) == 0.0

    def test_rejects_strongly_negative(self):
        with pytest.raises(ValueError, match="below -"):
            entropy_bits([1.1, -0.1])

    def test_rejects_strongly_negative_in_one_row_of_a_stack(self):
        with pytest.raises(ValueError, match="below -"):
            entropy_bits([[0.5, 0.5], [1.0, 0.0], [1.1, -0.1]])

    def test_single_spectrum_gives_positive_zero_float(self):
        for spectrum in ([1.0], [1.0, 0.0], [1.0, -1e-12], []):
            h = entropy_bits(spectrum)
            assert type(h) is float
            assert math.copysign(1.0, h) == 1.0

    @given(hnp.arrays(
        float,
        hnp.array_shapes(min_dims=2, max_dims=3, max_side=8),
        elements=st.sampled_from([0.0, -1e-12, 1.0]) | st.floats(0.0, 1.0),
    ))
    @settings(max_examples=100, deadline=None)
    def test_stack_matches_each_row(self, spectra):
        stacked = entropy_bits(spectra)
        assert stacked.shape == spectra.shape[:-1]
        for idx in np.ndindex(*spectra.shape[:-1]):
            assert stacked[idx] == pytest.approx(entropy_bits(spectra[idx]), abs=1e-15)

    @given(st.integers(0, 500))
    @settings(max_examples=30)
    def test_unitary_invariance(self, seed):
        rho = ginibre(4, seed)
        u = haar_unitary(4, seed + 7)
        rotated = u @ rho.matrix @ u.conj().T
        assert abs(entropy(rotated) - entropy(rho.matrix)) <= 1e-9


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace is"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    @given(
        st.integers(2, 5),
        st.integers(0, 500),
        st.integers(0, 24),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rejects_non_finite_entry(self, d, seed, index, bad):
        m = np.array(ginibre(d, seed).matrix)
        m.flat[index % m.size] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m)

    @given(
        st.integers(0, 500),
        st.sampled_from([(3,), (4,), (2, 3), (3, 2, 4)]),
        st.integers(0, 100),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    @settings(max_examples=60, deadline=None)
    def test_entropy_rejects_non_finite_eigenvalue(self, seed, shape, index, bad):
        spectra = np.random.default_rng(seed).dirichlet(np.ones(shape[-1]), shape[:-1])
        spectra.flat[index % spectra.size] = bad
        with pytest.raises(ValueError, match="non-finite"):
            entropy_bits(spectra)

    def test_equality_and_hash_are_by_identity(self):
        a, b = ginibre(2, 0), ginibre(2, 0)
        assert (a == a) is True and (a == b) is False
        assert len({a, a, b}) == 2


def bad_state(kind, d, seed):
    """A d x d matrix that fails exactly one of the density-matrix checks."""
    if kind == "negative":
        u = haar_unitary(d, seed)
        return u @ np.diag([1.2, -0.2] + [0.0] * (d - 2)) @ u.conj().T
    m = np.array(ginibre(d, seed).matrix)
    if kind == "non-Hermitian":
        m[0, 1] += 0.1
    elif kind == "trace":
        m *= 1.1
    elif kind == "trace below one":
        m *= 0.9
    else:
        m[d - 1, 0] = math.nan
    return m


class TestDensityMatrixStack:
    @given(st.integers(0, 500), st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_each_row_is_its_own_state(self, seed, n, m):
        stack = np.stack([ginibre(n, seed + i).matrix for i in range(m)])
        states = DensityMatrix(stack)
        assert states.dim == n and states.spectrum.shape == (m, n)
        for i in range(m):
            assert states.spectrum[i].tobytes() == DensityMatrix(stack[i]).spectrum.tobytes()

    @given(
        st.integers(2, 5),
        st.integers(0, 500),
        st.integers(1, 8),
        st.integers(0, 7),
        st.sampled_from([
            ("non-Hermitian", "Hermitian"),
            ("trace", "trace is"),
            # among traces of 1: the check takes the one farthest from 1, not the largest
            ("trace below one", "trace is"),
            ("negative", "negative eigenvalue"),
            ("nan", "non-finite"),
        ]),
    )
    @example(2, 0, 2, 1, ("trace below one", "trace is"))
    @settings(max_examples=60, deadline=None)
    def test_one_bad_member_rejects_the_stack(self, d, seed, m, index, kind_and_message):
        kind, message = kind_and_message
        stack = np.stack([ginibre(d, seed + i).matrix for i in range(m)])
        stack[index % m] = bad_state(kind, d, seed)
        with pytest.raises(ValueError, match=message):
            DensityMatrix(stack)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 0), (0, 0), (3,), (2, 3), (4, 2, 3)])
    def test_rejects_empty_and_non_square_shapes(self, shape):
        with pytest.raises(ValueError, match="expected square matrices"):
            DensityMatrix(np.zeros(shape))

    def test_message_gives_the_worst_value(self):
        stack = np.stack([np.eye(2) / 2, np.eye(2) * 0.55, np.eye(2) * 0.6])
        with pytest.raises(ValueError, match=r"^trace is \(1\.2\+0j\), expected 1$"):
            DensityMatrix(stack)
