import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from switchcap import capacity
from switchcap.capacity import (
    _chi_pure,
    _output_entropies,
    _restart_draws,
    _transfer_matrix,
    holevo_analytic,
    holevo_numeric_bytes,
    optimize_ensemble,
    switched_spectrum,
)
from switchcap.channels import KrausChannel, depolarizing_channel
from switchcap.qmat import (
    entropy_bits,
)
from switchcap.switch import (
    ControlState,
    depolarizing_switch_terms as terms,
    switch_with_fixed_control,
)

from helpers import (
    ginibre,
    holevo_of_ensemble,
    identity_channel,
    pure_states,
    random_kraus,
    sampled_ensemble,
)

PLUS = ControlState(0.5)
P_GRID = (0.0, 0.2, 0.5, 0.7, 1.0)


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
    ops = (ch.ops[:, None] @ projectors).reshape(-1, ch.dim_out, d)
    return KrausChannel(ops)


def orthonormal_chi(ch):
    """Holevo quantity of the d computational basis states with uniform weights."""
    d = ch.dim_in
    return holevo_of_ensemble(ch, np.full(d, 1.0 / d), pure_states(np.eye(d)))


def reference_optimize(ch, trials, seed):
    """optimize_ensemble drawn one entry at a time: each uniform from its own 64 bits
    of ``random.Random(seed)``, each complex Gaussian from a modulus and a phase, each
    vector normalised and each ensemble evaluated on the Kraus route: the best of the
    orthonormal start and ``trials`` restarts. The sizes come first, then every
    vector's d moduli, then every vector's d phases, then one weight per vector."""
    d = ch.dim_in
    rng = random.Random(seed)

    def uniform():
        return (rng.getrandbits(64) >> 11) * 2.0**-53

    def exponential():
        return -math.log1p(-uniform())

    sizes = [2 + int(uniform() * (d * d - 1)) for _ in range(trials)]
    radii = [[math.sqrt(exponential()) for _ in range(d)] for _ in range(sum(sizes))]
    phases = [[2 * math.pi * uniform() for _ in range(d)] for _ in range(sum(sizes))]
    vecs = []
    for r, t in zip(radii, phases):
        v = np.array([r_j * complex(math.cos(t_j), math.sin(t_j)) for r_j, t_j in zip(r, t)])
        vecs.append(v / np.linalg.norm(v))
    best = orthonormal_chi(ch)
    for start, m in zip(itertools.accumulate([0] + sizes), sizes):
        # Dirichlet(1, ..., 1) weights, as i.i.d. Exp(1) variates over their sum
        w = np.array([exponential() for _ in range(m)])
        ensemble = pure_states(vecs[start : start + m])
        best = max(best, holevo_of_ensemble(ch, w / w.sum(), ensemble))
    return best


class TestSwitchedSpectrum:
    def test_d2_q0_pure(self):
        spec = switched_spectrum(terms(2, 0.0, PLUS), [1.0, 0.0])
        np.testing.assert_allclose(spec, [3 / 8, 1 / 4, 1 / 4, 1 / 8], atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7])
    def test_sums_to_one(self, d, q):
        for seed in range(5):
            rho = ginibre(d, seed)
            spec = switched_spectrum(terms(d, q, PLUS), rho.spectrum)
            assert abs(spec.sum() - 1.0) <= 1e-12

    def test_rejects_wrong_length(self):
        # a single spectrum, a stack of them and a scalar
        for spectrum in ([1.0, 0.0], np.full((4, 2), 0.5), 1.0):
            with pytest.raises(ValueError, match="expected 3 eigenvalues"):
                switched_spectrum(terms(3, 0.0, PLUS), spectrum)


class TestMinimumEntropy:
    def test_noiseless_is_zero(self):
        for d in (2, 3, 4):
            assert holevo_analytic(terms(d, 1.0, PLUS)).h_min == pytest.approx(0.0, abs=1e-12)

    def test_pure_inputs_minimize(self):
        # entropy of any mixed-input spectrum must not fall below h_min
        for p in P_GRID:
            ctrl = ControlState(p)
            t = terms(3, 0.2, ctrl)
            h_min = holevo_analytic(t).h_min
            for seed in range(20):
                rho = ginibre(3, seed)
                spec = switched_spectrum(t, rho.spectrum)
                assert entropy_bits(spec) >= h_min - 1e-12


class TestHolevoAnalytic:
    @given(st.integers(2, 16), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans())
    @settings(max_examples=60)
    # a dephased control at q = 0 whose chi rounds to 1.8e-15, above the clip's [-TOL, 0)
    @example(15, 0.0, 0.1, False)
    def test_within_its_bounds(self, d, q, p, coherent):
        def chi(p, coherent):
            return holevo_analytic(terms(d, q, ControlState(p, coherent=coherent)))

        a = chi(p, coherent)
        assert 0.0 <= a.chi <= np.log2(d) + a.entropy_control
        # p <-> 1 - p swaps the weights of the two orders, each the same channel twice
        assert abs(a.chi - chi(1.0 - p, coherent).chi) <= 1e-12
        # a coherent control never carries less than a dephased one
        assert chi(p, True).chi >= chi(p, False).chi - 1e-12
        # an even superposition of the two orders carries the most
        assert a.chi <= chi(0.5, coherent).chi + 1e-12
        # two completely depolarizing channels and a dephased control erase the input:
        # chi is 0 up to round-off
        assert holevo_analytic(terms(d, 0.0, ControlState(p, coherent=False))).chi <= 1e-14

    def test_not_monotone_in_q(self):
        # less noise can carry less: chi dips between q = 0 and q = 1/2
        chis = [holevo_analytic(terms(2, q, PLUS)).chi for q in (0.0, 0.25, 0.5)]
        assert chis == pytest.approx([0.0487949, 0.0334369, 0.0716740], abs=1e-7)

    def test_continuous_in_q(self):
        # steep but continuous near q=1; gaps shrink under grid refinement
        def max_gap(n):
            chis = [holevo_analytic(terms(2, q, PLUS)).chi for q in np.linspace(0, 1, n)]
            return max(abs(a - b) for a, b in zip(chis, chis[1:]))

        assert max_gap(201) < 0.05
        assert max_gap(201) < max_gap(21) / 4


class TestHolevoOfEnsemble:
    def test_constant_channel_is_zero(self):
        assert orthonormal_chi(depolarizing_channel(2, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_single_state_ensemble(self):
        ch = identity_channel(3)
        assert holevo_of_ensemble(ch, [1.0], [ginibre(3, 0)]) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 100), st.sampled_from(P_GRID))
    @settings(max_examples=20)
    def test_never_exceeds_analytic_bound(self, seed, p):
        d = 2
        ctrl = ControlState(p)
        dep = depolarizing_channel(d, 0.0)
        ch = switch_with_fixed_control(dep, dep, ctrl)
        probs, vecs = sampled_ensemble(np.random.default_rng(seed), d)
        chi = holevo_analytic(terms(d, 0.0, ctrl)).chi
        assert holevo_of_ensemble(ch, probs, pure_states(vecs)) <= chi + 1e-12


class TestStackedHolevo:
    @given(
        st.integers(0, 300),
        st.sampled_from([2, 3]),
        st.sampled_from([0.3, 0.5, None]),
    )
    @settings(max_examples=40)
    def test_transfer_route_equals_kraus_route(self, seed, d, p):
        """A SWITCH of depolarizers at control weight p, or a random channel for None."""
        rng = np.random.default_rng(seed)
        if p is None:
            ch = random_channel(seed, 3, d)
        else:
            dep = depolarizing_channel(d, float(rng.uniform()))
            ch = switch_with_fixed_control(dep, dep, ControlState(p))
        probs, vecs = sampled_ensemble(rng, d)
        h = _output_entropies(_transfer_matrix(ch), ch.dim_out, probs[None], vecs[None])
        chi = _chi_pure(probs, h[0])
        kraus = holevo_of_ensemble(ch, probs, pure_states(vecs))
        assert chi == pytest.approx(kraus, abs=1e-12)

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

    def test_stack_split_changes_no_bit(self, monkeypatch):
        # a 2 x 2 output is 64 bytes and a d = 2 restart has 3 to 5 outputs with
        # its average: 640 bytes holds 2 or 3 restarts, 2**30 all of one size
        for seed in range(5):
            ch = fourier_dephased(random_channel(seed, 3, 2))
            default = optimize_ensemble(ch, trials=60, seed=seed).chi
            assert default == pytest.approx(reference_optimize(ch, 60, seed), abs=1e-13)
            for stack_bytes in (1, 640, 2**30):
                monkeypatch.setattr(capacity, "STACK_BYTES", stack_bytes)
                assert optimize_ensemble(ch, trials=60, seed=seed).chi == default
            monkeypatch.undo()

    def test_seed_selects_the_restarts(self):
        ch = fourier_dephased(random_channel(0, 3, 2))
        chis = {optimize_ensemble(ch, trials=10, seed=seed).chi for seed in (0, 1)}
        assert len(chis) == 2


class TestRestartDraws:
    @staticmethod
    def assert_beta_moments(x, m):
        """The first two moments of Beta(1, m - 1), 1/m and 2/(m(m + 1)), each within 5
        standard errors: the law of |<0|psi>|^2 for a Haar state psi in dimension m, and of
        each Dirichlet(1, ..., 1) weight of m."""
        for k, moment in ((1, 1 / m), (2, 2 / (m * (m + 1)))):
            assert abs((x**k).mean() - moment) <= 5 * (x**k).std() / math.sqrt(len(x))

    def test_haar_states_and_dirichlet_weights(self):
        # a real Gaussian vector gives E|<0|psi>|^4 = 3/(d(d + 2)), 0.375 at d = 2, and a
        # uniform modulus 0.3 at d = 2: each is over 8 standard errors from 1/3
        for d in (2, 3):
            sizes, vecs, weights = _restart_draws(d, trials=4000, seed=d)
            assert set(sizes.tolist()) == set(range(2, d * d + 1))
            assert vecs.shape == (sizes.sum(), d) and weights.shape == (sizes.sum(),)
            np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1, rtol=0, atol=1e-15)
            self.assert_beta_moments(np.abs(vecs[:, 0]) ** 2, d)
            per_restart = np.split(weights, np.cumsum(sizes)[:-1])
            np.testing.assert_allclose([w.sum() for w in per_restart], 1, rtol=0, atol=1e-15)
            self.assert_beta_moments(np.array([w[0] for w in per_restart if len(w) == 3]), 3)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_peak_within_the_estimate(self, d):
        # holevo_numeric_bytes counts d^2 vectors a restart, so its bound is on each vector
        per_vector = holevo_numeric_bytes(d, 1)[1] // (d * d)
        tracemalloc.start()
        try:
            n = len(_restart_draws(d, trials=500, seed=0)[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * per_vector


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
    @settings(max_examples=30)
    def test_equals_kronecker_sum(self, seed, n, shape):
        self.assert_kronecker_sum(random_kraus(np.random.default_rng(seed), n, *shape))

    @pytest.mark.parametrize("coherent", [True, False])
    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fixed_control_switch(self, d, q, coherent):
        # q = 0 and q = 1 put all-zero operators in the list
        dep = depolarizing_channel(d, q)
        ch = switch_with_fixed_control(dep, dep, ControlState(0.3, coherent=coherent))
        self.assert_kronecker_sum(ch.ops)

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

    def test_one_chi_evaluation_per_ensemble(self, monkeypatch):
        # the benchmark counts the ensembles evaluated as capacity._chi_pure calls
        calls = []
        chi_pure = capacity._chi_pure
        monkeypatch.setattr(capacity, "_chi_pure", lambda *a: calls.append(a) or chi_pure(*a))
        for d in (2, 3):
            for trials in (1, 37):
                calls.clear()
                optimize_ensemble(random_channel(d, 3, d), trials=trials, seed=d)
                assert len(calls) == trials + 1

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            optimize_ensemble(identity_channel(2), trials=0, seed=0)

