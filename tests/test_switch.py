import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchcap.channels import KrausChannel, depolarizing_channel
from switchcap.qmat import DensityMatrix, partial_trace, tensor
from switchcap.switch import (
    ControlState,
    depolarizing_switch_terms,
    switch_channel,
    switch_with_fixed_control,
    switched_depolarizing_analytic,
)
from switchcap.capacity import reduced_control_state, switched_spectrum

from helpers import (
    apply,
    compose_serial,
    cptp_deviation,
    dephasing_channel,
    ginibre,
    identity_channel,
    random_kraus,
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

    def test_commuting_kraus_no_self_switching(self):
        # two identical dephasing channels: output factorizes for any control
        n = dephasing_channel(2)
        rho = ginibre(2, 7)
        for p in (0.2, 0.5, 0.9):
            ctrl = ControlState(p)
            js = switch_apply(n, n, rho, ctrl)
            serial = apply(compose_serial(n, n), rho)
            expected = tensor(serial.matrix, ctrl.density())
            np.testing.assert_allclose(js.matrix, expected, atol=1e-10)

    def test_trace_preserving(self):
        for d, q in ((2, 0.0), (3, 0.4)):
            dep = depolarizing_channel(d, q)
            assert cptp_deviation(switch_channel(dep, dep)) <= 1e-12


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
    @settings(max_examples=40, deadline=None)
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
        assert np.array_equal(switch_channel(n1, n2).stacked(), pairwise_switch(n1, n2))
        fixed = switch_with_fixed_control(n1, n2, ctrl)
        assert np.array_equal(fixed.stacked(), pairwise_switch(n1, n2, ctrl))
        assert fixed.stacked().shape[1:] == (2 * d, d)


class TestSwitchApply:
    def test_noiseless_inputs_pass_through(self):
        dep = depolarizing_channel(2, 1.0)
        rho = ginibre(2, 1)
        js = switch_apply(dep, dep, rho, PLUS)
        expected = tensor(rho.matrix, PLUS.density())
        np.testing.assert_allclose(js.matrix, expected, atol=1e-12)

    def test_matches_analytic_at_q0(self):
        dep = depolarizing_channel(2, 0.0)
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        js = switch_apply(dep, dep, rho, PLUS)
        ref = switched_depolarizing_analytic(2, 0.0, PLUS, rho)
        np.testing.assert_allclose(js.matrix, ref.matrix, atol=1e-10)

    def test_dephased_control_erases_input(self):
        dep = depolarizing_channel(3, 0.0)
        for p in (0.3, 0.5):
            for seed in (0, 1):
                js = switch_apply(dep, dep, ginibre(3, seed), dephased(p))
                expected = tensor(np.eye(3) / 3, np.diag([p, 1.0 - p]))
                np.testing.assert_allclose(js.matrix, expected, atol=1e-12)

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_representation_independence(self, seed):
        # mix the Kraus list by a random unitary; output must not change
        dep = depolarizing_channel(2, 0.3)
        rng = np.random.default_rng(seed)
        n = len(dep.kraus_ops)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v, _ = np.linalg.qr(g)
        mixed_ops = tuple(
            sum(v[i, j] * dep.kraus_ops[j] for j in range(n)) for i in range(n)
        )
        mixed = KrausChannel(mixed_ops)
        rho = ginibre(2, seed + 1)
        a = switch_apply(dep, dep, rho, PLUS).matrix
        b = switch_apply(mixed, mixed, rho, PLUS).matrix
        np.testing.assert_allclose(a, b, atol=1e-10)

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
        js = switched_depolarizing_analytic(2, 0.0, PLUS, rho)
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
        js = switched_depolarizing_analytic(3, 1.0, PLUS, rho)
        np.testing.assert_allclose(
            js.matrix, tensor(rho.matrix, PLUS.density()), atol=1e-12
        )

    def test_p0_has_no_control_coherence(self):
        rho = ginibre(2, 8)
        ctrl = ControlState(0.0)
        js = switched_depolarizing_analytic(2, 0.6, ctrl, rho)
        m = js.matrix.reshape(2, 2, 2, 2)
        np.testing.assert_allclose(m[:, 0, :, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(m[:, 1, :, 0], 0.0, atol=1e-12)

    def test_dephased_control_erases_input(self):
        # two completely depolarizing channels in a definite or a mixed order
        for p in (0.3, 0.5):
            js = switched_depolarizing_analytic(3, 0.0, dephased(p), ginibre(3, 4))
            expected = tensor(np.eye(3) / 3, np.diag([p, 1.0 - p]))
            np.testing.assert_allclose(js.matrix, expected, rtol=0, atol=1e-15)

    def test_marginals_at_q0(self):
        for seed in range(5):
            rho = ginibre(3, seed)
            js = switched_depolarizing_analytic(3, 0.0, PLUS, rho)
            tmarg = partial_trace(js, 3, 2, "A")
            np.testing.assert_allclose(tmarg.matrix, np.eye(3) / 3, atol=1e-10)
            cmarg = partial_trace(js, 3, 2, "B")
            np.testing.assert_allclose(
                cmarg.matrix,
                reduced_control_state(3, 0.0, PLUS).matrix,
                atol=1e-10,
            )


class TestSwitchTerms:
    @given(
        st.sampled_from([2, 3, 4]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.booleans(),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_equals_kraus_route(self, d, q, p, coherent, seed):
        ctrl = ControlState(p, coherent=coherent)
        dep = depolarizing_channel(d, q)
        rho = ginibre(d, seed)
        kraus = switch_apply(dep, dep, rho, ctrl)
        closed = switched_depolarizing_analytic(d, q, ctrl, rho)
        np.testing.assert_allclose(closed.matrix, kraus.matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            reduced_control_state(d, q, ctrl).matrix,
            partial_trace(kraus, d, 2, "B").matrix,
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("d, q, p", [(2, 0.0, 0.5), (3, 0.4, 0.2), (5, 1.0, 0.7)])
    def test_real_symmetric_and_unit_trace(self, d, q, p):
        a, b = depolarizing_switch_terms(d, q, ControlState(p))
        for m in (a, b):
            assert m.dtype == np.float64 and m.shape == (2, 2)
            assert m[0, 1] == m[1, 0]
        assert np.trace(d * a + b) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("q, ctrl", [
        (0.3, ControlState(0.5, coherent=False)),
        (-0.1, PLUS),
        (1.1, PLUS),
        (float("nan"), PLUS),
    ])
    def test_every_closed_form_rejects_bad_input(self, q, ctrl):
        rho = ginibre(2, 0)
        calls = (
            lambda: depolarizing_switch_terms(2, q, ctrl),
            lambda: switched_depolarizing_analytic(2, q, ctrl, rho),
            lambda: reduced_control_state(2, q, ctrl),
            lambda: switched_spectrum(2, q, ctrl, rho.spectrum),
        )
        if ctrl.coherent:  # a bad q
            for call in calls:
                with pytest.raises(ValueError):
                    call()
            return
        # a dephased control is valid input: each form agrees with the Kraus route
        dep = depolarizing_channel(2, q)
        kraus = switch_apply(dep, dep, rho, ctrl)
        a, b = calls[0]()
        for got, want in (
            (tensor(np.eye(2), a) + tensor(rho.matrix, b), kraus.matrix),
            (calls[1]().matrix, kraus.matrix),
            (calls[2]().matrix, partial_trace(kraus, 2, 2, "B").matrix),
            (calls[3](), kraus.spectrum),
        ):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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
