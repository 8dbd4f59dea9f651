import json

import numpy as np
import pytest

from switchcap.oracle import (
    ComparisonReport,
    SUITES,
    brute_force_switch_output,
    random_density_matrix,
    reference_constants,
    verify_equivalence,
)
from switchcap.qmat import tensor
from switchcap.switch import ControlState

from helpers import suite_report

PLUS = ControlState(0.5)


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

    def test_suite_names_exported(self):
        assert "analytic-vs-brute" in SUITES
