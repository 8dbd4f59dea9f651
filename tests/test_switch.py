import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchcap.channels import KrausChannel, depolarizing_channel
from switchcap.qmat import DensityMatrix, tensor
from switchcap.switch import (
    ControlState,
    depolarizing_switch_terms as terms,
    switch_channel,
    switch_with_fixed_control,
    switched_depolarizing_analytic,
)

from helpers import (
    apply,
    compose_serial,
    cptp_deviation,
    dephasing_channel,
    ginibre,
    identity_channel,
    random_kraus,
    representation_deviation,
    switch_apply,
)

PLUS = ControlState(0.5)


def dephased(p=0.5):
    return ControlState(p, coherent=False)


class TestSwitchChannel:
    def test_identity_channels_act_trivially(self):
        sw = switch_channel(identity_channel(2), identity_channel(2))
        rho = ginibre(2, 0)
        joint = DensityMatrix(tensor(rho.matrix, PLUS.density()))
        np.testing.assert_allclose(apply(sw, joint).matrix, joint.matrix, atol=1e-12)

    def test_control_zero_gives_serial_order(self):
        # |0> control: channel 1 first, then channel 2
        n1 = dephasing_channel(2)
        n2 = depolarizing_channel(2, 0.5)
        rho = ginibre(2, 3)
        js = switch_apply(n1, n2, rho, ControlState(1.0))
        serial = apply(compose_serial(n1, n2), rho)
        expected = tensor(serial.matrix, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(js.matrix, expected, atol=1e-12)

    def test_rejects_unequal_dimensions(self):
        with pytest.raises(ValueError, match="equal-dimension"):
            switch_channel(depolarizing_channel(2, 0.3), depolarizing_channel(3, 0.3))


class TestControlState:
    @pytest.mark.parametrize("coherent", [True, False])
    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_rejects_p_outside_unit_interval(self, p, coherent):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            ControlState(p, coherent=coherent)


def pairwise_switch(n1, n2, ctrl=None):
    """Reference: the switched operators built one Kraus pair at a time.

    With ``ctrl``, each operator W is followed by W (I (x) |c>) for every
    control component |c>, as in ``switch_with_fixed_control``.
    """
    d = n1.dim_in
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    ops = [tensor(k2 @ k1, p0) + tensor(k1 @ k2, p1)
           for k2 in n2.kraus_ops for k1 in n1.kraus_ops]
    if ctrl is None:
        return ops
    if ctrl.coherent:
        vecs = [[np.sqrt(ctrl.p), np.sqrt(1.0 - ctrl.p)]]
    else:
        vecs = []
        if ctrl.p > 0:
            vecs.append([np.sqrt(ctrl.p), 0.0])
        if ctrl.p < 1:
            vecs.append([0.0, np.sqrt(1.0 - ctrl.p)])
    embeds = [tensor(np.eye(d), np.reshape(v, (2, 1))) for v in vecs]
    return [w @ e for w in ops for e in embeds]


class TestStackedSwitch:
    """The stacked construction equals the per-pair formula, operator by operator."""

    @given(
        st.integers(0, 300),
        st.sampled_from([2, 3]),
        st.sampled_from(["depolarizing", "random"]),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        st.booleans(),
    )
    @settings(max_examples=40)
    def test_matches_pairwise_formula(self, seed, d, kind, p, coherent):
        if kind == "depolarizing":
            q = (seed % 5) / 4
            n1 = n2 = depolarizing_channel(d, q)
        else:
            rng = np.random.default_rng(seed)
            n1 = KrausChannel(random_kraus(rng, 1 + seed % 4, d, d))
            n2 = KrausChannel(random_kraus(rng, 1 + seed % 3, d, d))
        ctrl = ControlState(p, coherent=coherent)
        # == compares numbers, so a -0.0 from the pairwise sums equals 0.0
        assert np.array_equal(switch_channel(n1, n2).ops, pairwise_switch(n1, n2))
        fixed = switch_with_fixed_control(n1, n2, ctrl)
        assert np.array_equal(fixed.ops, pairwise_switch(n1, n2, ctrl))
        assert fixed.ops.shape[1:] == (2 * d, d)


class TestSwitchApply:
    @given(st.integers(0, 200))
    @settings(max_examples=15)
    def test_representation_independence(self, seed):
        # mix the Kraus list by a random unitary; output must not change
        assert representation_deviation(seed, ginibre(2, seed + 1)) <= 1e-10

    def test_swap_of_identical_channels_is_symmetric(self):
        dep = depolarizing_channel(2, 0.4)
        rho = ginibre(2, 5)
        a = switch_apply(dep, dep, rho, ControlState(0.3)).matrix
        b = switch_apply(dep, dep, rho, ControlState(0.7)).matrix
        # swapping the control labels = conjugating the control by sigma_x
        sx = tensor(np.eye(2), np.array([[0, 1], [1, 0]]))
        np.testing.assert_allclose(a, sx @ b @ sx, atol=1e-10)


class TestAnalyticForm:
    def test_q0_block_structure(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        js = switched_depolarizing_analytic(terms(2, 0.0, PLUS), rho)
        m = js.matrix
        d = 2
        # control-diagonal blocks I/(2d), control-off-diagonal blocks rho/(2d^2)
        for ti in range(d):
            for tj in range(d):
                block = m[2 * ti : 2 * ti + 2, 2 * tj : 2 * tj + 2]
                eye_part = (1.0 if ti == tj else 0.0) / (2 * d)
                np.testing.assert_allclose(np.diag(block), [eye_part, eye_part])
                assert block[0, 1] == pytest.approx(rho.matrix[ti, tj] / (2 * d**2))

    def test_q1_returns_input(self):
        rho = ginibre(3, 2)
        js = switched_depolarizing_analytic(terms(3, 1.0, PLUS), rho)
        np.testing.assert_allclose(
            js.matrix, tensor(rho.matrix, PLUS.density()), atol=1e-12
        )

    def test_p0_has_no_control_coherence(self):
        rho = ginibre(2, 8)
        ctrl = ControlState(0.0)
        js = switched_depolarizing_analytic(terms(2, 0.6, ctrl), rho)
        m = js.matrix.reshape(2, 2, 2, 2)
        np.testing.assert_allclose(m[:, 0, :, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(m[:, 1, :, 0], 0.0, atol=1e-12)

    def test_dephased_control_erases_input(self):
        # two completely depolarizing channels in a definite or a mixed order
        for p in (0.3, 0.5):
            js = switched_depolarizing_analytic(terms(3, 0.0, dephased(p)), ginibre(3, 4))
            expected = tensor(np.eye(3) / 3, np.diag([p, 1.0 - p]))
            np.testing.assert_allclose(js.matrix, expected, rtol=0, atol=1e-15)


class TestSwitchTerms:
    @pytest.mark.parametrize("d, q, p", [(2, 0.0, 0.5), (3, 0.4, 0.2), (5, 1.0, 0.7)])
    def test_real_symmetric_and_unit_trace(self, d, q, p):
        dim, a, b = terms(d, q, ControlState(p))
        assert dim == d
        for m in (a, b):
            assert m.dtype == np.float64 and m.shape == (2, 2)
            assert m[0, 1] == m[1, 0]
        assert np.trace(d * a + b) == pytest.approx(1.0, abs=1e-15)

    def test_entries_equal_their_exact_values(self):
        """Every entry of A and B within 4 ulps of its exact rational value.

        The exact value is summed by Kraus class, with the coefficients q^2,
        2q(1-q) and (1-q)^2 of the pairs (K0, K0), (K0, U) in either order and
        (U, U'), J the all-ones matrix and * the entrywise product:
          A = rho_c * (2q(1-q) J + (1-q)^2 I) / d
          B = rho_c * (q^2 J + (1-q)^2 (J - I) / d^2)
        Each p has a rational coherence sqrt(p (1-p)): 1/2, 2/5 and 12/25.
        """
        coherence = {Fraction(1, 2): Fraction(1, 2), Fraction(1, 5): Fraction(2, 5),
                     Fraction(9, 25): Fraction(12, 25)}
        quarters = [Fraction(k, 4) for k in range(5)]
        for d, q, p, coherent in itertools.product(
                range(2, 9), quarters, coherence, (True, False)):
            c = coherence[p] if coherent else 0
            rho_c = [[p, c], [c, 1 - p]]
            _, a, b = terms(d, float(q), ControlState(float(p), coherent))
            for i, j in itertools.product(range(2), repeat=2):
                exact_a = rho_c[i][j] * (2 * q * (1 - q) + (1 - q) ** 2 * (i == j)) / d
                exact_b = rho_c[i][j] * (q**2 + (1 - q) ** 2 * (i != j) / d**2)
                for got, want in ((a[i, j], exact_a), (b[i, j], exact_b)):
                    assert abs(Fraction(got) - want) <= 4 * Fraction(math.ulp(want)), (d, q, p)

    @pytest.mark.parametrize("q, ctrl", [
        (0.3, ControlState(0.5, coherent=False)),
        (-0.1, PLUS),
        (1.1, PLUS),
        (float("nan"), PLUS),
    ])
    def test_every_closed_form_rejects_bad_input(self, q, ctrl):
        # the closed forms read d and q only from the terms, which refuse a
        # dimension below 2 at any q, and a q outside [0, 1]
        for d in (0, 1):
            with pytest.raises(ValueError):
                terms(d, q, ctrl)
        if ctrl.coherent:  # a bad q
            with pytest.raises(ValueError):
                terms(2, q, ctrl)
            return
        # a dephased control is valid input, which test_oracle.py ties to the
        # oracle; the output form reads d from the terms too, and refuses a state
        # of another d
        with pytest.raises(ValueError, match="state dimension 3 != 2"):
            switched_depolarizing_analytic(terms(2, q, ctrl), ginibre(3, 0))


class TestFixedControlEmbedding:
    def test_is_cptp(self):
        dep = depolarizing_channel(2, 0.3)
        for ctrl in (PLUS, ControlState(0.2), dephased(0.4)):
            assert cptp_deviation(switch_with_fixed_control(dep, dep, ctrl)) <= 1e-10

    def test_agrees_with_switch_apply(self):
        dep = depolarizing_channel(3, 0.25)
        rho = ginibre(3, 9)
        for ctrl in (PLUS, ControlState(0.8), dephased(0.3)):
            via_embed = apply(switch_with_fixed_control(dep, dep, ctrl), rho)
            direct = switch_apply(dep, dep, rho, ctrl)
            np.testing.assert_allclose(
                via_embed.matrix, direct.matrix, atol=1e-10
            )
