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
        hnp.arrays(complex, hnp.array_shapes(min_dims=2, max_dims=3, max_side=8),
                   elements=st.complex_numbers(max_magnitude=1e6, allow_nan=False)),
        hnp.arrays(complex, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                   elements=st.complex_numbers(max_magnitude=1e6, allow_nan=False)),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_byte_identical_to_kron(self, a, b, transpose):
        # a transposed operand is a strided view, which takes another multiply loop;
        # a left operand with a leading stack axis gives one product per row
        if transpose:
            b = b.T
        out = tensor(a, b)
        for i in np.ndindex(a.shape[:-2]):
            kron = np.kron(a[i], b)
            assert out.shape == a.shape[:-2] + kron.shape
            assert out[i].tobytes() == kron.tobytes()


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

    def test_five_eighths_three_eighths(self):
        assert entropy(np.diag([5 / 8, 3 / 8])) == pytest.approx(0.954434, abs=1e-6)

    def test_single_spectrum_gives_positive_zero_float(self):
        # [0.0, 1.0] is the spectrum eigvalsh gives for diag(1, 0); -1e-12 is clipped
        for spectrum in ([1.0], [1.0, 0.0], [0.0, 1.0], [1.0, -1e-12], []):
            h = entropy_bits(spectrum)
            assert type(h) is float and h == 0.0
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
    @given(
        hnp.arrays(float, st.sampled_from([(2,), (3,), (4,), (2, 3), (3, 2, 4)]),
                   elements=st.floats(0.0, 1.0)),
        st.integers(0, 100),
        st.sampled_from([(math.nan, "non-finite"), (math.inf, "non-finite"),
                         (-math.inf, "non-finite"), (-0.1, "below -")]),
    )
    @example(np.array([1.1, 0.0]), 1, (-0.1, "below -"))
    @example(np.array([[0.5, 0.5], [1.0, 0.0], [1.1, 0.0]]), 5, (-0.1, "below -"))
    @settings(max_examples=60, deadline=None)
    def test_entropy_rejects_one_bad_eigenvalue(self, spectra, index, bad_and_message):
        bad, message = bad_and_message
        spectra = spectra.copy()
        spectra.flat[index % spectra.size] = bad
        with pytest.raises(ValueError, match=message):
            entropy_bits(spectra)

    def test_equality_and_hash_are_by_identity(self):
        a, b = ginibre(2, 0), ginibre(2, 0)
        assert (a == a) is True and (a == b) is False
        assert len({a, a, b}) == 2


@st.composite
def bad_states(draw):
    """A d x d matrix, 2 <= d <= 5, that fails exactly one of the density-matrix
    checks, and the message that check raises."""
    d, seed = draw(st.integers(2, 5)), draw(st.integers(0, 500))
    kind = draw(st.sampled_from(["non-Hermitian", "trace", "trace below one", "negative",
                                 "non-finite"]))
    if kind == "negative":
        u = haar_unitary(d, seed)
        return u @ np.diag([1.2, -0.2] + [0.0] * (d - 2)) @ u.conj().T, "negative eigenvalue"
    m = np.array(ginibre(d, seed).matrix)
    if kind == "non-Hermitian":
        m[0, 1] += 0.1
        return m, "Hermitian"
    if kind == "non-finite":
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        m.flat[draw(st.integers(0, d * d - 1))] = value
        return m, "non-finite"
    return m * (1.1 if kind == "trace" else 0.9), "trace is"


class TestDensityMatrixStack:
    @given(st.integers(0, 500), st.integers(1, 6), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_each_row_is_its_own_state(self, seed, n, m):
        # m = 0 is one state, passed alone as a 2-D array
        rows = [ginibre(n, seed + i).matrix for i in range(max(m, 1))]
        stack = np.stack(rows) if m else rows[0]
        states = DensityMatrix(stack)
        assert states.dim == n and states.spectrum.shape == stack.shape[:-1]
        for i in np.ndindex(stack.shape[:-2]):
            spectrum = states.spectrum[i]
            assert spectrum.tobytes() == np.linalg.eigvalsh(stack[i])[::-1].tobytes()
            assert np.all(spectrum[:-1] >= spectrum[1:])
            assert abs(spectrum.sum() - 1.0) < 1e-12

    @given(bad_states(), st.integers(0, 500), st.integers(0, 8), st.integers(0, 7))
    # m = 0 passes the bad matrix alone, as a 2-D array: one example of each kind
    @example((np.array([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"), 0, 0, 0)
    @example((np.eye(2), "trace is"), 0, 0, 0)
    @example((np.eye(2) * 0.45, "trace is"), 0, 0, 0)
    @example((np.diag([1.5, -0.5]), "negative eigenvalue"), 0, 0, 0)
    @example((np.array([[0.5, 0.0], [math.nan, 0.5]]), "non-finite"), 0, 0, 0)
    # among traces of 1: the check takes the one farthest from 1, not the largest
    @example((0.9 * ginibre(2, 0).matrix, "trace is"), 0, 2, 1)
    @settings(max_examples=100, deadline=None)
    def test_one_bad_member_rejects_the_stack(self, bad, seed, m, index):
        matrix, message = bad
        stack = matrix
        if m:
            stack = np.stack([ginibre(len(matrix), seed + i).matrix for i in range(m)])
            stack[index % m] = matrix
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
