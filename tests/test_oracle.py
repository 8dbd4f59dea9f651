import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchcap.capacity import switched_spectrum
from switchcap.channels import depolarizing_channel
from switchcap.oracle import (
    ComparisonReport,
    SUITES,
    _covariance_deviations,
    _switch_kraus,
    brute_force_switch_output,
    random_density_matrix,
    reference_constants,
    verify_equivalence,
)
from switchcap.qmat import DensityMatrix, tensor
from switchcap.switch import ControlState, switched_depolarizing_analytic

from helpers import suite_report, switch_apply

PLUS = ControlState(0.5)

# What the two stacked suites compare, for one state
ONE_STATE_DIFFERENCE = {
    "analytic-vs-brute": lambda d, q, ctrl, rho: (
        brute_force_switch_output(d, q, ctrl, rho).matrix
        - switched_depolarizing_analytic(d, q, ctrl, rho).matrix),
    "spectrum-vs-eigensolver": lambda d, q, ctrl, rho: (
        switched_spectrum(d, q, ctrl, rho.spectrum)
        - switched_depolarizing_analytic(d, q, ctrl, rho).spectrum),
}


class TestRandomDensityMatrix:
    def test_unit_trace(self):
        for seed in range(20):
            rho = random_density_matrix(3, seed)
            assert abs(rho.matrix.trace() - 1.0) <= 1e-12

    def test_positive(self):
        for seed in range(20):
            rho = random_density_matrix(4, seed)
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12

    def test_deterministic(self):
        a = random_density_matrix(3, 17)
        b = random_density_matrix(3, 17)
        assert np.array_equal(a.matrix, b.matrix)


class TestBruteForce:
    def test_q0_block_structure(self):
        d = 2
        rho = random_density_matrix(d, 0)
        out = brute_force_switch_output(d, 0.0, PLUS, rho).matrix
        r = out.reshape(d, 2, d, 2)
        for ti in range(d):
            for tj in range(d):
                eye_part = (1.0 if ti == tj else 0.0) / (2 * d)
                assert r[ti, 0, tj, 0] == pytest.approx(eye_part, abs=1e-12)
                assert r[ti, 0, tj, 1] == pytest.approx(
                    rho.matrix[ti, tj] / (2 * d**2), abs=1e-12
                )

    def test_q1_passes_input_through(self):
        rho = random_density_matrix(3, 5)
        out = brute_force_switch_output(3, 1.0, PLUS, rho)
        np.testing.assert_allclose(
            out.matrix, tensor(rho.matrix, PLUS.density()), atol=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4]),
        q=st.floats(0.0, 1.0),
        p=st.floats(0.0, 1.0),
        coherent=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_library_kraus_route(self, d, q, p, coherent, seed):
        ctrl = ControlState(p, coherent=coherent)
        rho = random_density_matrix(d, seed)
        dep = depolarizing_channel(d, q)
        brute = brute_force_switch_output(d, q, ctrl, rho).matrix
        library = switch_apply(dep, dep, rho, ctrl).matrix
        assert np.abs(brute - library).max() <= 1e-13
        # the analytic-vs-brute suite checks the closed form for a coherent control only
        closed = switched_depolarizing_analytic(d, q, ctrl, rho).matrix
        assert np.abs(brute - closed).max() <= 1e-12

    def test_cached_stacks_are_read_only_and_shared(self):
        w, pairs = _switch_kraus(3, 0.4)
        assert w.shape == (100, 6, 6) and pairs.shape == (36, 36)
        for array in (w, pairs):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        again = _switch_kraus(3, 0.4)
        assert again[0] is w and again[1] is pairs

    @pytest.mark.parametrize("d, q", itertools.product((2, 3, 4), (0.0, 0.4, 1.0)))
    def test_superoperator_applies_the_pairwise_sum(self, d, q):
        # a non-product sigma, so that a swap of (a, b, i, j) axes cannot cancel out
        sigma = random_density_matrix(2 * d, d).matrix
        w, pairs = _switch_kraus(d, q)
        expected = sum(wk @ sigma @ wk.conj().T for wk in w)
        applied = (pairs @ sigma.reshape(-1)).reshape(2 * d, 2 * d)
        assert np.abs(applied - expected).max() <= 1e-13


class TestStackedStates:
    """A stack of states gives, row by row, what each state gives alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4]),
        q=st.floats(0.0, 1.0),
        p=st.floats(0.0, 1.0),
        coherent=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 6),
    )
    def test_rows_equal_single_state_calls(self, d, q, p, coherent, seed, m):
        ctrl = ControlState(p, coherent=coherent)
        rhos = [random_density_matrix(d, seed + i) for i in range(m)]
        states = DensityMatrix(np.stack([rho.matrix for rho in rhos]))
        brute = brute_force_switch_output(d, q, ctrl, states).matrix
        closed = switched_depolarizing_analytic(d, q, ctrl, states).matrix
        spectra = switched_spectrum(d, q, ctrl, states.spectrum)
        assert brute.shape == closed.shape == (m, 2 * d, 2 * d)
        assert spectra.shape == (m, 2 * d)
        for i, rho in enumerate(rhos):
            rows = (brute[i], closed[i], spectra[i])
            singles = (brute_force_switch_output(d, q, ctrl, rho).matrix,
                       switched_depolarizing_analytic(d, q, ctrl, rho).matrix,
                       switched_spectrum(d, q, ctrl, rho.spectrum))
            for row, single in zip(rows, singles):
                assert np.abs(row - single).max() <= 1e-15


class TestCovariance:
    def test_suite_covers_weyl_and_haar_unitaries(self):
        report = suite_report("covariance")
        # 3 noise levels, each with d^2 Weyl and 5 Haar unitaries, for d = 2, 3, 4
        assert report.instances_tested == 3 * (4 + 9 + 16 + 3 * 5)
        assert report.max_abs_deviation <= 1e-14

    def test_amplitude_damping_fails_the_check(self):
        # the negative control: damping on the target, the control untouched
        gamma = 0.3
        kraus = [np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]]),
                 np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])]
        embedded = [tensor(k, np.eye(2)) for k in kraus]
        superop = sum(tensor(w, w.conj()) for w in embedded)
        devs = _covariance_deviations(superop, 2)
        # Weyl order I, Z, X, XZ: damping is covariant under phases only
        assert devs[:2].max() <= 1e-15
        np.testing.assert_allclose(devs[2:4], gamma, atol=1e-15)
        assert devs[4:].min() > 0.1


class TestReferenceConstants:
    def test_frozen_values(self):
        ref = reference_constants()
        assert ref["chi_d2"] == pytest.approx(0.048794940695, abs=1e-10)
        assert ref["chi_d3"] == pytest.approx(0.018310781820, abs=1e-10)
        assert ref["entropy_control_d2"] == pytest.approx(0.954434002925, abs=1e-10)
        assert ref["h_min_d2"] == pytest.approx(1.905639062230, abs=1e-10)
        assert ref["entropy_control_d3"] == pytest.approx(0.991076059838, abs=1e-10)
        assert ref["h_min_d3"] == pytest.approx(2.557727778738, abs=1e-10)


class TestVerifyEquivalence:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify_equivalence("nonexistent")

    @pytest.mark.parametrize("suite", SUITES)
    def test_fast_suites_pass(self, suite):
        report = suite_report(suite)
        assert report.max_abs_deviation <= 1e-10
        assert report.instances_tested > 0

    def test_report_serialization(self):
        report = ComparisonReport("demo", 1e-12, 5, {"d": 2, "q": 0.0})
        parsed = json.loads(report.to_json())
        assert parsed["description"] == "demo"
        assert parsed["instances_tested"] == 5
        assert "max |dev|" in str(report)

    def test_infinite_deviation_is_written_as_null(self):
        report = ComparisonReport("demo", math.inf, 5, {"d": 2, "q": 0.0})
        assert json.loads(report.to_json())["max_abs_deviation"] is None

    @pytest.mark.parametrize("suite, grid", [
        ("analytic-vs-brute",
         ((2, 3, 4), (0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.3, 0.5, 1.0), range(20))),
        ("spectrum-vs-eigensolver",
         ((2, 3, 4, 5), (0.0, 0.3, 0.7, 1.0), (0.2, 0.5, 0.7), range(10))),
    ])
    def test_suites_yield_in_grid_order(self, suite, grid):
        # a suite checks each (d, q, p) as one stack of states, which must give
        # the deviations of one state at a time, in grid order
        expected = []
        for d, q, p, seed in itertools.product(*grid):
            rho = random_density_matrix(d, seed)
            diff = ONE_STATE_DIFFERENCE[suite](d, q, ControlState(p), rho)
            expected.append((float(np.abs(diff).max()), dict(d=d, q=q, p=p, seed=seed)))
        assert list(SUITES[suite]()) == expected

    def test_suite_names_exported(self):
        assert "analytic-vs-brute" in SUITES
