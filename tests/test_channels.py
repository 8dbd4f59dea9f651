import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from switchcap.channels import KrausChannel, depolarizing_channel, weyl_basis
from switchcap.qmat import DensityMatrix

from helpers import (
    apply,
    compose_serial,
    cptp_deviation,
    dephasing_channel,
    ginibre,
    identity_channel,
    random_kraus,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


class TestKrausChannel:
    @given(st.integers(0, 300), st.integers(1, 5), st.sampled_from([(2, 2), (3, 2), (2, 4)]))
    @settings(max_examples=20)
    def test_tuple_and_array_give_the_same_channel(self, seed, n, shape):
        ops = random_kraus(np.random.default_rng(seed), n, *shape)
        a = KrausChannel(tuple(ops))
        b = KrausChannel(ops)
        assert np.array_equal(a.ops, b.ops)
        assert len(a.kraus_ops) == len(b.kraus_ops) == n
        for ka, kb, k in zip(a.kraus_ops, b.kraus_ops, ops):
            assert np.array_equal(ka, k) and np.array_equal(kb, k)

    def test_stack_is_kept_read_only_without_a_copy(self):
        ops = random_kraus(np.random.default_rng(0), 3, 2, 2)
        ch = KrausChannel(ops)
        assert ch.ops is ch.ops
        assert np.shares_memory(ch.ops, ops)
        assert np.shares_memory(ch.kraus_ops[1], ops)
        assert not ch.ops.flags.writeable
        assert ops.flags.writeable

    # the first two are operators of unequal shapes, which numpy itself refuses
    @pytest.mark.parametrize("ops", [
        (I2, np.eye(3)),
        (np.ones((2, 3)), np.ones((3, 2))),
        (np.ones(2), np.ones(2)),
        np.eye(2),
        np.zeros((2, 2, 2, 1)),
    ])
    def test_bad_shape(self, ops):
        with pytest.raises(ValueError):
            KrausChannel(ops)

    @pytest.mark.parametrize("ops", [(np.ones((2, 3)),), np.zeros((4, 2, 3))])
    def test_dimensions_come_from_the_stack_shape(self, ops):
        ch = KrausChannel(ops)
        assert (ch.dim_in, ch.dim_out) == (3, 2)

    @pytest.mark.parametrize("ops", [(), [], np.zeros((0, 2, 2))])
    def test_empty(self, ops):
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel(ops)

    def test_equality_and_hash_are_by_identity(self):
        a, b = depolarizing_channel(2, 0.3), depolarizing_channel(2, 0.3)
        assert (a == a) is True and (a == b) is False
        assert len({a, a, b}) == 2


class TestWeylBasis:
    def test_qubit_elements(self):
        basis = weyl_basis(2)
        expected = [I2, Z, X, X @ Z]
        for u in basis:
            assert any(np.allclose(u, e) for e in expected)
        assert len(basis) == 4

    def test_first_element_is_identity(self):
        for d in (2, 3, 5):
            np.testing.assert_allclose(weyl_basis(d)[0], np.eye(d))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthogonality(self, d):
        us = weyl_basis(d)
        gram = np.array([[(a.conj().T @ b).trace() for b in us] for a in us])
        np.testing.assert_allclose(gram, d * np.eye(d * d), atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unitarity(self, d):
        for u in weyl_basis(d):
            np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)

    @given(st.integers(0, 300), st.sampled_from([2, 3, 4]))
    @example(42, 3)
    @settings(max_examples=25)
    def test_twirl_property(self, seed, d):
        rho = ginibre(d, seed)
        acc = sum(u @ rho.matrix @ u.conj().T for u in weyl_basis(d))
        np.testing.assert_allclose(acc, d * np.eye(d), atol=1e-10)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            weyl_basis(1)


class TestDepolarizing:
    # the formula is exactly unitarily covariant, and linear in rho, so a full-rank
    # Ginibre state stands for every input
    @given(st.sampled_from([2, 3, 4]), st.floats(0.0, 1.0), st.integers(0, 300))
    @example(2, 0.0, 5)
    @example(3, 0.0, 5)
    @example(2, 1.0, 9)
    @example(2, 0.5, 0)
    @example(3, 0.2, 0)
    @example(3, 0.4, 0)
    @settings(max_examples=20)
    def test_output_formula(self, d, q, seed):
        dep, rho = depolarizing_channel(d, q), ginibre(d, seed)
        assert len(dep.ops) == d * d + 1
        expected = q * rho.matrix + (1.0 - q) * np.eye(d) / d
        np.testing.assert_allclose(apply(dep, rho).matrix, expected, atol=1e-12)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            depolarizing_channel(2, 1.5)


class TestApply:
    def test_identity_channel(self):
        rho = ginibre(3, 3)
        np.testing.assert_allclose(
            apply(identity_channel(3), rho).matrix, rho.matrix
        )

    def test_trace_preserved_random(self):
        for seed in range(100):
            d = 2 + seed % 3
            out = apply(depolarizing_channel(d, (seed % 11) / 10), ginibre(d, seed))
            assert abs(out.matrix.trace() - 1.0) < 1e-12

    @given(st.integers(0, 300))
    @settings(max_examples=20)
    def test_linearity(self, seed):
        ch = depolarizing_channel(2, 0.3)
        a, b = ginibre(2, seed), ginibre(2, seed + 1)
        mix = DensityMatrix(0.25 * a.matrix + 0.75 * b.matrix)
        direct = apply(ch, mix).matrix
        linear = 0.25 * apply(ch, a).matrix + 0.75 * apply(ch, b).matrix
        np.testing.assert_allclose(direct, linear, atol=1e-12)


class TestCptp:
    def test_depolarizing_is_cptp(self):
        assert cptp_deviation(depolarizing_channel(4, 0.3)) <= 1e-12

    def test_scaled_identity_is_not(self):
        assert cptp_deviation(KrausChannel((2 * I2,))) == pytest.approx(3.0)


class TestCompose:
    def test_serial_identity(self):
        ch = compose_serial(depolarizing_channel(2, 0.6), identity_channel(2))
        rho = ginibre(2, 4)
        np.testing.assert_allclose(
            apply(ch, rho).matrix,
            apply(depolarizing_channel(2, 0.6), rho).matrix,
            atol=1e-12,
        )

    def test_serial_depolarizing_multiplies_q(self):
        q1, q2 = 0.7, 0.4
        ch = compose_serial(depolarizing_channel(3, q1), depolarizing_channel(3, q2))
        rho = ginibre(3, 11)
        expected = apply(depolarizing_channel(3, q1 * q2), rho).matrix
        np.testing.assert_allclose(apply(ch, rho).matrix, expected, atol=1e-10)

    def test_serial_dimension_mismatch(self):
        with pytest.raises(ValueError, match="serial mismatch"):
            compose_serial(identity_channel(2), identity_channel(3))


class TestDephasing:
    def test_kills_offdiagonals(self):
        rho = ginibre(2, 2)
        out = apply(dephasing_channel(2), rho)
        np.testing.assert_allclose(out.matrix, np.diag(np.diag(rho.matrix)), atol=1e-12)

    def test_kraus_operators_commute(self):
        ops = dephasing_channel(3).kraus_ops
        for a in ops:
            for b in ops:
                np.testing.assert_allclose(a @ b, b @ a)
