import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchcap.capacity import (
    _chi_pure,
    _transfer_matrix,
    holevo_analytic,
    optimize_ensemble,
    reduced_control_state,
    switched_spectrum,
)
from switchcap.channels import KrausChannel, depolarizing_channel
from switchcap.qmat import (
    DensityMatrix,
    DimensionMismatchError,
    entropy_bits,
)
from switchcap.switch import (
    ControlState,
    switch_with_fixed_control,
    switched_depolarizing_analytic,
)
from switchcap.qmat import partial_trace

from helpers import ginibre, holevo_of_ensemble, identity_channel, random_kraus, switch_apply

PLUS = ControlState(0.5)
P_GRID = (0.0, 0.2, 0.5, 0.7, 1.0)

# frozen by the extended-precision evaluation in oracle.reference_constants
CHI_D2_Q0 = 0.048794940695
CHI_D3_Q0 = 0.018310781820
HC_D2_Q0 = 0.954434002925
HC_D3_Q0 = 0.991076059838
HMIN_D2_Q0 = 1.905639062230
HMIN_D3_Q0 = 2.557727778738


def random_channel(seed, n, d):
    """A CPTP map from n Gaussian Kraus operators K, each replaced by K S^(-1/2)
    with S = sum K'K, so that the Kraus sum preserves the trace."""
    ops = random_kraus(np.random.default_rng(seed), n, d, d)
    w, u = np.linalg.eigh(np.einsum("nji,njk->ik", ops.conj(), ops))
    return KrausChannel(ops @ (u / np.sqrt(w)) @ u.conj().T)


def fourier_dephased(ch):
    """``ch`` after complete dephasing in the Fourier basis, which sends every
    computational basis state to I/d: the orthonormal ensemble carries nothing."""
    d = ch.dim_in
    f = np.fft.fft(np.eye(d)) / np.sqrt(d)
    projectors = np.einsum("ik,jk->kij", f, f.conj())
    ops = (ch.stacked()[:, None] @ projectors).reshape(-1, ch.dim_out, d)
    return KrausChannel(ops)


def pure_states(vecs):
    return [DensityMatrix(np.outer(v, v.conj())) for v in vecs]


def orthonormal_chi(ch):
    """Holevo quantity of the d computational basis states with uniform weights."""
    d = ch.dim_in
    return holevo_of_ensemble(ch, np.full(d, 1.0 / d), pure_states(np.eye(d)))


def random_pure_ensemble(rng, d, m):
    """m random unit vectors and Dirichlet weights."""
    g = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    vecs = g / np.linalg.norm(g, axis=1, keepdims=True)
    return vecs, rng.dirichlet(np.ones(m))


def reference_optimize(ch, trials, seed):
    """optimize_ensemble with each vector and each restart's weights drawn on
    their own from the row stream, and each ensemble evaluated on the Kraus
    route: the best of the orthonormal start and ``trials`` restarts."""
    d = ch.dim_in
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, d * d + 1, size=trials)
    ensembles = []
    for m in sizes:
        vecs = []
        for _ in range(m):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vecs.append(v / np.linalg.norm(v))
        ensembles.append(vecs)
    best = orthonormal_chi(ch)
    for vecs in ensembles:
        # Dirichlet(1, ..., 1) weights, as i.i.d. Exp(1) variates over their sum
        w = rng.standard_exponential(len(vecs))
        best = max(best, holevo_of_ensemble(ch, w / w.sum(), pure_states(vecs)))
    return best


class TestReducedControlState:
    def test_d2_q0_eigenvalues(self):
        rc = reduced_control_state(2, 0.0, PLUS)
        np.testing.assert_allclose(
            rc.spectrum, (5 / 8, 3 / 8), atol=1e-12
        )

    def test_q1_is_pure_control(self):
        rc = reduced_control_state(4, 1.0, PLUS)
        np.testing.assert_allclose(rc.matrix, PLUS.density(), atol=1e-12)
        assert holevo_analytic(4, 1.0, PLUS).entropy_control == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_offdiagonal_scaling(self, d):
        rc = reduced_control_state(d, 0.0, PLUS)
        assert rc.matrix[0, 1] == pytest.approx(1 / (2 * d**2))

    @given(st.integers(0, 200), st.sampled_from([2, 3]), st.sampled_from([0.0, 0.4, 0.8]))
    @settings(max_examples=20, deadline=None)
    def test_matches_partial_trace(self, seed, d, q):
        dep = depolarizing_channel(d, q)
        js = switch_apply(dep, dep, ginibre(d, seed), PLUS)
        marg = partial_trace(js, d, 2, "B")
        np.testing.assert_allclose(
            marg.matrix, reduced_control_state(d, q, PLUS).matrix, atol=1e-10
        )


class TestSwitchedSpectrum:
    def test_d2_q0_pure(self):
        spec = switched_spectrum(2, 0.0, PLUS, [1.0, 0.0])
        np.testing.assert_allclose(spec, [3 / 8, 1 / 4, 1 / 4, 1 / 8], atol=1e-12)

    def test_q1_pure_input_stays_pure(self):
        spec = switched_spectrum(3, 1.0, PLUS, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(spec[0], 1.0, atol=1e-12)
        assert spec.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7])
    def test_sums_to_one(self, d, q):
        for seed in range(5):
            rho = ginibre(d, seed)
            spec = switched_spectrum(d, q, PLUS, rho.spectrum)
            assert abs(spec.sum() - 1.0) <= 1e-12

    @given(
        st.integers(0, 200),
        st.sampled_from([2, 3, 4, 5]),
        st.sampled_from([0.0, 0.3, 0.7]),
        st.sampled_from(P_GRID),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_eigensolver(self, seed, d, q, p):
        rho = ginibre(d, seed)
        ctrl = ControlState(p)
        predicted = switched_spectrum(d, q, ctrl, rho.spectrum)
        js = switched_depolarizing_analytic(d, q, ctrl, rho)
        solved = js.spectrum
        np.testing.assert_allclose(predicted, solved, atol=1e-10)

    @given(
        st.integers(0, 200),
        st.sampled_from([2, 3, 4, 5]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_returns_descending_array(self, seed, d, q, p):
        # the input order does not matter: an ascending spectrum is passed
        lam = ginibre(d, seed).spectrum[::-1]
        spec = switched_spectrum(d, q, ControlState(p), lam)
        assert isinstance(spec, np.ndarray) and spec.shape == (2 * d,)
        assert np.all(spec[:-1] >= spec[1:])

    def test_rejects_wrong_length(self):
        # a single spectrum, a stack of them and a scalar
        for spectrum in ([1.0, 0.0], np.full((4, 2), 0.5), 1.0):
            with pytest.raises(DimensionMismatchError):
                switched_spectrum(3, 0.0, PLUS, spectrum)


class TestMinimumEntropy:
    def test_frozen_values(self):
        assert holevo_analytic(2, 0.0, PLUS).h_min == pytest.approx(HMIN_D2_Q0, abs=1e-6)
        assert holevo_analytic(3, 0.0, PLUS).h_min == pytest.approx(HMIN_D3_Q0, abs=1e-6)

    def test_noiseless_is_zero(self):
        for d in (2, 3, 4):
            assert holevo_analytic(d, 1.0, PLUS).h_min == pytest.approx(0.0, abs=1e-12)

    def test_pure_inputs_minimize(self):
        # entropy of any mixed-input spectrum must not fall below h_min
        for p in P_GRID:
            ctrl = ControlState(p)
            h_min = holevo_analytic(3, 0.2, ctrl).h_min
            for seed in range(20):
                rho = ginibre(3, seed)
                spec = switched_spectrum(3, 0.2, ctrl, rho.spectrum)
                assert entropy_bits(spec) >= h_min - 1e-12


class TestHolevoAnalytic:
    def test_frozen_values(self):
        a2 = holevo_analytic(2, 0.0, PLUS)
        assert a2.chi == pytest.approx(CHI_D2_Q0, abs=1e-6)
        assert a2.entropy_control == pytest.approx(HC_D2_Q0, abs=1e-6)
        a3 = holevo_analytic(3, 0.0, PLUS)
        assert a3.chi == pytest.approx(CHI_D3_Q0, abs=1e-6)
        assert a3.entropy_control == pytest.approx(HC_D3_Q0, abs=1e-6)

    def test_noiseless_limit(self):
        for d in (2, 3, 4, 5):
            assert holevo_analytic(d, 1.0, PLUS).chi == pytest.approx(np.log2(d), abs=1e-9)

    def test_decreases_with_dimension(self):
        chis = [holevo_analytic(d, 0.0, PLUS).chi for d in range(2, 7)]
        assert all(a > b for a, b in zip(chis, chis[1:]))

    def test_consistency_identity(self):
        for d, q in ((2, 0.0), (3, 0.5), (4, 0.9)):
            a = holevo_analytic(d, q, PLUS)
            assert a.chi == pytest.approx(
                np.log2(d) + a.entropy_control - a.h_min, abs=1e-12
            )

    @given(st.integers(2, 16), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_within_its_bounds(self, d, q, p, coherent):
        a = holevo_analytic(d, q, ControlState(p, coherent=coherent))
        assert 0.0 <= a.chi <= np.log2(d) + a.entropy_control

    def test_continuous_in_q(self):
        # steep but continuous near q=1; gaps shrink under grid refinement
        def max_gap(n):
            chis = [holevo_analytic(2, q, PLUS).chi for q in np.linspace(0, 1, n)]
            return max(abs(a - b) for a, b in zip(chis, chis[1:]))

        assert max_gap(201) < 0.05
        assert max_gap(201) < max_gap(21) / 4


class TestHolevoOfEnsemble:
    def test_constant_channel_is_zero(self):
        assert orthonormal_chi(depolarizing_channel(2, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_ensemble_attains_chi(self):
        for q in (0.0, 0.3):
            dep = depolarizing_channel(2, q)
            for p in P_GRID:
                ctrl = ControlState(p)
                ch = switch_with_fixed_control(dep, dep, ctrl)
                chi = orthonormal_chi(ch)
                assert chi == pytest.approx(holevo_analytic(2, q, ctrl).chi, abs=1e-12)
        assert holevo_analytic(2, 0.0, PLUS).chi == pytest.approx(CHI_D2_Q0, abs=1e-6)

    def test_single_state_ensemble(self):
        ch = identity_channel(3)
        assert holevo_of_ensemble(ch, [1.0], [ginibre(3, 0)]) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 100), st.sampled_from(P_GRID))
    @settings(max_examples=20, deadline=None)
    def test_never_exceeds_analytic_bound(self, seed, p):
        d = 2
        ctrl = ControlState(p)
        dep = depolarizing_channel(d, 0.0)
        ch = switch_with_fixed_control(dep, dep, ctrl)
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, d * d + 1))
        states = []
        for _ in range(m):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v /= np.linalg.norm(v)
            states.append(DensityMatrix(np.outer(v, v.conj())))
        probs = rng.dirichlet(np.ones(m))
        chi = holevo_analytic(d, 0.0, ctrl).chi
        assert holevo_of_ensemble(ch, probs, states) <= chi + 1e-12


class TestStackedHolevo:
    @given(
        st.integers(0, 300),
        st.sampled_from([2, 3]),
        st.integers(1, 9),
        st.sampled_from([0.3, 0.5, None]),
    )
    @settings(max_examples=40, deadline=None)
    def test_transfer_route_equals_kraus_route(self, seed, d, m, p):
        """A SWITCH of depolarizers at control weight p, or a random channel for None."""
        rng = np.random.default_rng(seed)
        if p is None:
            ch = random_channel(seed, 3, d)
        else:
            dep = depolarizing_channel(d, float(rng.uniform()))
            ch = switch_with_fixed_control(dep, dep, ControlState(p))
        vecs, probs = random_pure_ensemble(rng, d, m)
        chi = _chi_pure(_transfer_matrix(ch), ch.dim_out, probs, vecs)
        kraus = holevo_of_ensemble(ch, probs, pure_states(vecs))
        assert chi == pytest.approx(kraus, abs=1e-12)

    def test_zero_weight_entry_changes_nothing(self):
        dep = depolarizing_channel(2, 0.3)
        ch = switch_with_fixed_control(dep, dep, ControlState(0.3))
        vecs, probs = random_pure_ensemble(np.random.default_rng(0), 2, 3)
        # a NaN vector would poison the average, unless it is dropped before its output
        vecs0 = np.insert(vecs, 1, np.nan, axis=0)
        probs0 = np.insert(probs, 1, 0.0)
        transfer = _transfer_matrix(ch)
        assert _chi_pure(transfer, 4, probs0, vecs0) == _chi_pure(transfer, 4, probs, vecs)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_optimizer_keeps_the_row_stream(self, d, seed):
        # the orthonormal start carries nothing, so the best value is a drawn restart's
        ch = fourier_dephased(random_channel(seed, 3, d))
        assert orthonormal_chi(ch) == pytest.approx(0, abs=1e-12)
        expected = reference_optimize(ch, 10, seed)
        assert expected > 1e-3
        assert optimize_ensemble(ch, trials=10, seed=seed).chi == pytest.approx(
            expected, abs=1e-13
        )

    def test_seed_selects_the_restarts(self):
        ch = fourier_dephased(random_channel(0, 3, 2))
        chis = {optimize_ensemble(ch, trials=10, seed=seed).chi for seed in (0, 1)}
        assert len(chis) == 2


class TestTransferMatrix:
    """T is sum_k kron(K, conj K) wherever the operators' zeros fall: a dense
    list is one nonzero pattern, the fixed-control SWITCH a few, and a sparse
    random list one per operator."""

    @staticmethod
    def assert_kronecker_sum(ops):
        reference = sum(np.kron(k, k.conj()) for k in ops)
        np.testing.assert_allclose(
            _transfer_matrix(KrausChannel(ops)), reference, rtol=0, atol=1e-14
        )

    @given(st.integers(0, 300), st.integers(1, 6), st.sampled_from([(2, 2), (4, 2), (3, 5)]))
    @settings(max_examples=30, deadline=None)
    def test_equals_kronecker_sum(self, seed, n, shape):
        self.assert_kronecker_sum(random_kraus(np.random.default_rng(seed), n, *shape))

    @pytest.mark.parametrize("coherent", [True, False])
    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fixed_control_switch(self, d, q, coherent):
        # q = 0 and q = 1 put all-zero operators in the list
        dep = depolarizing_channel(d, q)
        ch = switch_with_fixed_control(dep, dep, ControlState(0.3, coherent=coherent))
        self.assert_kronecker_sum(ch.stacked())

    def test_every_operator_its_own_pattern(self):
        rng = np.random.default_rng(7)
        # 40 distinct nonzero masks of the 8 entries, overlapping in many ways
        codes = rng.permutation(np.arange(1, 256, dtype=np.uint8))[:40]
        masks = np.unpackbits(codes[:, None], axis=1).reshape(40, 4, 2)
        self.assert_kronecker_sum(random_kraus(rng, 40, 4, 2) * masks)

    @pytest.mark.parametrize("n", [1, 5])
    def test_all_zero_operator(self, n):
        ops = random_kraus(np.random.default_rng(n), n, 3, 2)
        ops[n // 2] = 0.0
        self.assert_kronecker_sum(ops)


class TestOptimizer:
    def test_identity_channel_reaches_one_bit(self):
        res = optimize_ensemble(identity_channel(2), trials=50, seed=0)
        assert res.chi == pytest.approx(1.0, abs=1e-6)

    def test_attains_analytic_value(self):
        dep = depolarizing_channel(2, 0.0)
        for p in P_GRID:
            ctrl = ControlState(p)
            ch = switch_with_fixed_control(dep, dep, ctrl)
            res = optimize_ensemble(ch, trials=100, seed=0)
            assert res.chi == pytest.approx(holevo_analytic(2, 0.0, ctrl).chi, abs=1e-12)
            assert res.refine_steps == 0

    def test_dephased_control_transmits_nothing(self):
        dephased = ControlState(0.5, coherent=False)
        dep = depolarizing_channel(2, 0.0)
        ch = switch_with_fixed_control(dep, dep, dephased)
        res = optimize_ensemble(ch, trials=50, seed=0)
        assert res.chi <= 1e-9
        assert holevo_analytic(2, 0.0, dephased).chi == 0.0

    def test_deterministic_in_seed(self):
        dep = depolarizing_channel(2, 0.0)
        ch = switch_with_fixed_control(dep, dep, PLUS)
        a = optimize_ensemble(ch, trials=25, seed=3)
        b = optimize_ensemble(ch, trials=25, seed=3)
        assert a.chi == b.chi

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            optimize_ensemble(identity_channel(2), trials=0, seed=0)

