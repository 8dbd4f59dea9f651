import contextlib
import importlib
import inspect
import itertools
import json
import math
import pkgutil
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import switchcap
from switchcap import capacity, channels, oracle, qmat, switch
from switchcap.capacity import reduced_control_state, switched_spectrum
from switchcap.channels import depolarizing_channel
from switchcap.cli import SweepConfig
from switchcap.oracle import (
    ComparisonReport,
    SUITES,
    _class_sums,
    _covariance_deviations,
    _cptp_deviation,
    _ginibre,
    _superoperator,
    brute_force_switch_output,
    reference_constants,
    verify_equivalence,
)
from switchcap.qmat import DensityMatrix, tensor
from switchcap.switch import (
    ControlState,
    depolarizing_switch_terms as terms,
    switch_channel,
    switched_depolarizing_analytic,
)

from helpers import eigvalsh_calls, ginibre, partial_trace, suite_report, switch_apply


def _marginal_difference(d, q, ctrl, rho):
    out = brute_force_switch_output(d, q, ctrl, rho)
    control_ref = reduced_control_state(terms(d, q, ctrl)).matrix
    target = partial_trace(out, d, 2, "A").matrix - np.eye(d) / d
    control = partial_trace(out, d, 2, "B").matrix - control_ref
    return np.concatenate([target.ravel(), control.ravel()])


# What the three state suites compare, for one state
ONE_STATE_DIFFERENCE = {
    "analytic-vs-brute": lambda d, q, ctrl, rho: (
        brute_force_switch_output(d, q, ctrl, rho).matrix
        - switched_depolarizing_analytic(terms(d, q, ctrl), rho).matrix),
    "spectrum-vs-eigensolver": lambda d, q, ctrl, rho: (
        switched_spectrum(terms(d, q, ctrl), rho.spectrum)
        - brute_force_switch_output(d, q, ctrl, rho).spectrum),
    "marginals": _marginal_difference,
}

# The suites that call the library; cptp and covariance check only the oracle
LIBRARY_SUITES = {"analytic-vs-brute", "spectrum-vs-eigensolver", "chi-vs-reference",
                  "chi-vs-brute", "marginals"}

# Each fault replaces one piece of a library function's source, on every
# binding the package has; the suites named with it must fail, and no other.
PLANTED_FAULTS = [
    pytest.param(switch.depolarizing_switch_terms,
                 "(1.0 - q) ** 2 / d**2", "(1.0 - q) ** 2 / d",
                 LIBRARY_SUITES, id="twirl-over-d"),
    pytest.param(switch.depolarizing_switch_terms,
                 "return d, rho_c_beta / d, b", "return d, rho_c_beta, b",
                 LIBRARY_SUITES, id="A-not-over-d"),
    pytest.param(switch.depolarizing_switch_terms,
                 "2.0 * q * (1.0 - q)", "q * (1.0 - q)",
                 {"analytic-vs-brute", "spectrum-vs-eigensolver", "chi-vs-brute"},
                 id="mix-halved"),
    pytest.param(switch.switch_channel,
                 "np.matmul(k1[None], k2[:, None],", "np.matmul(k2[:, None], k1[None],",
                 {"chi-vs-brute"}, id="switch-one-order"),
    pytest.param(capacity.switched_spectrum,
                 "a + lam[..., None, None] * b", "lam[..., None, None] * a + b",
                 {"spectrum-vs-eigensolver", "chi-vs-reference", "chi-vs-brute"},
                 id="spectrum-lam-times-A"),
    pytest.param(capacity.switched_spectrum,
                 "np.sort(blocks.reshape(lam.shape[:-1] + (2 * d,)), axis=-1)[..., ::-1]",
                 "blocks.reshape(lam.shape[:-1] + (2 * d,))",
                 {"spectrum-vs-eigensolver"}, id="spectrum-unsorted"),
    pytest.param(capacity.reduced_control_state,
                 "d * a + b", "a + b",
                 {"marginals", "chi-vs-reference", "chi-vs-brute"},
                 id="marginal-A-not-times-d"),
    pytest.param(capacity.holevo_analytic,
                 "np.eye(d)[0]", "np.full(d, 1.0 / d)",
                 {"chi-vs-reference", "chi-vs-brute"},
                 id="h-min-mixed-input"),
    pytest.param(capacity._transfer_matrix,
                 "sub.T @ sub.conj()", "sub.T @ sub",
                 {"chi-vs-brute"}, id="transfer-no-conj"),
    pytest.param(ControlState.density,
                 "rho[0, 1] = rho[1, 0] = c", "rho[0, 1] = rho[1, 0] = c / 2",
                 LIBRARY_SUITES, id="coherence-halved"),
    # the two branches for a dephased control
    pytest.param(switch.switch_with_fixed_control,
                 "np.diag(amps)[amps > 0]", "amps[None]",
                 {"chi-vs-brute"}, id="dephased-kraus-as-coherent"),
    pytest.param(ControlState.density,
                 "if self.coherent:", "if True:",
                 {"chi-vs-brute"}, id="dephased-density-as-coherent"),
    pytest.param(capacity.optimize_ensemble,
                 "best_chi = max(best_chi, _chi_pure(p, hx))",
                 "continue", set(), id="no-restarts"),
    # the Kraus route's depolarizer and ensemble entropy
    pytest.param(channels.depolarizing_channel,
                 "np.sqrt(q) * np.eye(d, dtype=complex)", "q * np.eye(d, dtype=complex)",
                 {"chi-vs-brute"}, id="depolarizer-q-not-sqrt"),
    pytest.param(capacity._output_entropies,
                 "vecs[..., None, :].conj()", "vecs[..., None, :]",
                 {"chi-vs-brute"}, id="projector-no-conj"),
    # the qmat primitive that the oracle shares with the library; covariance
    # builds its unitaries with it
    pytest.param(qmat.tensor,
                 "a[..., :, None, :, None] * b[..., None, :, None, :]",
                 "b[..., :, None, :, None] * a[..., None, :, None, :]",
                 {"analytic-vs-brute", "spectrum-vs-eigensolver", "chi-vs-brute", "marginals",
                  "covariance"}, id="tensor-factors-swapped"),
    # the library's entropy; the oracle has its own, and chi-vs-brute's q = 0.9
    # outputs have eigenvalues in (0, 1e-2)
    pytest.param(qmat.entropy_bits,
                 "np.where(lam > 0, lam, 1.0)", "np.where(lam > 1e-2, lam, 1.0)",
                 {"chi-vs-brute"}, id="entropy-drops-below-1e-2"),
    # 0 log 0 taken as -1.5 log2 1.5: only chi-vs-brute's q = 1 outputs have
    # exact zero eigenvalues
    pytest.param(qmat.entropy_bits,
                 "np.where(lam > 0, lam, 1.0)", "np.where(lam > 0, lam, 1.5)",
                 {"chi-vs-brute"}, id="entropy-zero-term-nonzero"),
]


@contextlib.contextmanager
def _planted(fn, old, new):
    """Patch every binding of ``fn`` with its own source, ``old`` replaced by
    ``new``: each attribute of a ``switchcap`` module, or of a class that one
    defines, that is ``fn``. A function that nothing binds is refused."""
    modules = [importlib.import_module(f"switchcap.{info.name}")
               for info in pkgutil.iter_modules(switchcap.__path__)]
    classes = [obj for module in modules for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__ == module.__name__]
    bindings = [(owner, name) for owner in modules + classes
                for name, obj in vars(owner).items() if obj is fn]
    assert bindings, f"no switchcap module binds {fn.__qualname__}"
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{fn.__qualname__} does not contain {old!r} once"
    namespace = dict(fn.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    with contextlib.ExitStack() as patches:
        for owner, name in bindings:
            patches.enter_context(mock.patch.object(owner, name, namespace[fn.__name__]))
        yield


def _failing_suites():
    """The suites with an instance whose deviation is not within 1e-9, or that
    reject a state; each suite stops at its first such instance."""
    failing = set()
    for name, suite in SUITES.items():
        try:
            if not all(dev <= 1e-9 for dev, _ in suite()):
                failing.add(name)
        except ValueError:
            failing.add(name)
    return failing


class TestGinibre:
    def test_unit_trace(self):
        for seed in range(20):
            rho = ginibre(3, seed)
            assert abs(rho.matrix.trace() - 1.0) <= 1e-12

    def test_positive(self):
        for seed in range(20):
            rho = ginibre(4, seed)
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12

    def test_deterministic(self):
        a = ginibre(3, 17)
        b = ginibre(3, 17)
        assert np.array_equal(a.matrix, b.matrix)

    def test_mean_purity_is_hilbert_schmidt(self):
        # G G'/Tr for complex Gaussian G is Hilbert-Schmidt distributed, where Tr rho^2
        # averages 2d/(d^2 + 1) (Zyczkowski and Sommers, quant-ph/0012101); a real G
        # averages about 0.832 at d = 2 and 0.635 at d = 3, over 13 standard errors off
        n = 4000
        for d in (2, 3):
            states = np.array([_ginibre(d, seed) for seed in range(n)])
            purity = np.einsum("nij,nji->n", states, states).real
            assert abs(purity.mean() - 2 * d / (d * d + 1)) <= 5 * purity.std() / math.sqrt(n)
            # a seed draws its own state after any others; two seeds draw two states
            assert _ginibre(d, 0).tobytes() == states[0].tobytes()
            assert not np.array_equal(states[0], states[1])


class TestBruteForce:
    @settings(max_examples=60)
    @given(
        d=st.sampled_from([2, 3, 4]),
        q=st.floats(0.0, 1.0),
        p=st.floats(0.0, 1.0),
        coherent=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 6),
        more=st.lists(st.builds(ControlState, st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                st.booleans()), max_size=4),
    )
    # the block structure at q = 0 and the pass-through at q = 1, which
    # test_switch.py's TestAnalyticForm checks on the closed form alone
    @example(d=2, q=0.0, p=0.5, coherent=True, seed=0, m=1, more=[])
    @example(d=3, q=1.0, p=0.5, coherent=True, seed=5, m=1, more=[])
    @example(d=2, q=1.0, p=0.5, coherent=True, seed=1, m=1, more=[])
    @example(d=4, q=1.0, p=0.5, coherent=True, seed=3, m=3, more=[])
    # a dephased control, and two completely depolarizing channels erasing the input
    @example(d=2, q=0.3, p=0.5, coherent=False, seed=0, m=1, more=[])
    @example(d=3, q=0.0, p=0.3, coherent=False, seed=0, m=2, more=[])
    # a control on one order, and dimensions past the drawn ones
    @example(d=3, q=0.7, p=1.0, coherent=True, seed=2, m=1, more=[])
    @example(d=5, q=0.3, p=0.0, coherent=True, seed=2, m=1, more=[])
    @example(d=6, q=0.7, p=0.5, coherent=True, seed=4, m=3,
             more=[ControlState(p, c) for p in (0.0, 1.0) for c in (True, False)])
    def test_every_route_equals_the_oracle(self, d, q, p, coherent, seed, m, more):
        """On each state of a stack: the closed form, its spectrum and control
        marginal, and the Kraus route equal the oracle, and each stacked call
        gives, row by row, what the state gives alone; a sequence of controls, or
        (d, A, B) stacked over them, gives what each control gives alone. The state
        suites of `verify` take a coherent control only."""
        ctrl = ControlState(p, coherent=coherent)
        dep = depolarizing_channel(d, q)
        t = terms(d, q, ctrl)
        rhos = [ginibre(d, seed + i) for i in range(m)]
        states = DensityMatrix(np.stack([rho.matrix for rho in rhos]))
        # each spectrum goes in ascending: the output must come out descending anyway
        stacked = (brute_force_switch_output(d, q, ctrl, states).matrix,
                   switched_depolarizing_analytic(t, states).matrix,
                   switched_spectrum(t, states.spectrum[:, ::-1]))
        assert [a.shape for a in stacked] == [(m, 2 * d, 2 * d)] * 2 + [(m, 2 * d)]
        ctrls = [ctrl] + more
        a, b = (np.array(x)[:, None] for x in zip(*(terms(d, q, c)[1:] for c in ctrls)))
        rows = (brute_force_switch_output(d, q, ctrls, states).matrix,
                switched_depolarizing_analytic((d, a, b), states).matrix)
        assert [r.shape for r in rows] == [(len(ctrls), m, 2 * d, 2 * d)] * 2
        for c, brute_row, closed_row in zip(ctrls, *rows):
            assert np.array_equal(brute_row, brute_force_switch_output(d, q, c, states).matrix)
            closed = switched_depolarizing_analytic(terms(d, q, c), states).matrix
            assert np.array_equal(closed_row, closed)
        for i, rho in enumerate(rhos):
            brute = brute_force_switch_output(d, q, ctrl, rho)
            closed = switched_depolarizing_analytic(t, rho).matrix
            spectrum = switched_spectrum(t, rho.spectrum[::-1])
            for row, single in zip(stacked, (brute.matrix, closed, spectrum)):
                assert row[i].shape == single.shape
                assert np.abs(row[i] - single).max() <= 1e-15
            kraus = switch_apply(dep, dep, rho, ctrl)
            assert np.abs(brute.matrix - kraus.matrix).max() <= 1e-13
            assert np.abs(closed - kraus.matrix).max() <= 1e-12
            assert np.abs(closed - brute.matrix).max() <= 1e-12
            control = partial_trace(kraus, d, 2, "B").matrix
            assert np.abs(reduced_control_state(t).matrix - control).max() <= 1e-12
            assert np.all(spectrum[:-1] >= spectrum[1:])
            assert abs(spectrum.sum() - 1.0) <= 1e-12
            assert np.abs(spectrum - brute.spectrum).max() <= 1e-12

    def test_cached_stacks_are_read_only_and_shared(self):
        # each d's three class sums are built once and shared by every q
        sums = _class_sums(3)
        assert sums.shape == (3, 36, 36)
        with pytest.raises(ValueError):
            sums[0, 0, 0] = 1.0
        assert _class_sums(3) is sums

    # (I, I) weighs less than (U, U') times d^4 at q = 0.4 and more at q = 0.7
    @pytest.mark.parametrize("d, q", itertools.product((2, 3, 4, 5), (0.0, 0.4, 0.7, 1.0)))
    def test_superoperator_applies_the_pairwise_sum(self, d, q):
        # a non-product sigma, so that a swap of (a, b, i, j) axes cannot cancel out;
        # the sum runs over the library's switched Kraus operators
        sigma = ginibre(2 * d, d).matrix
        dep = depolarizing_channel(d, q)
        expected = sum(w @ sigma @ w.conj().T for w in switch_channel(dep, dep).ops)
        applied = (_superoperator(d, q) @ sigma.reshape(-1)).reshape(2 * d, 2 * d)
        assert np.abs(applied - expected).max() <= 1e-13


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


class TestCptp:
    """``_cptp_deviation``'s two negative controls, on C^{2d}."""

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_transpose_is_not_completely_positive(self, d):
        # X -> X^T keeps the trace, but its Choi matrix is the SWAP, with eigenvalue -1
        n = 2 * d
        transpose = np.eye(n * n).reshape(n, n, n, n).transpose(1, 0, 2, 3)
        assert _cptp_deviation(transpose.reshape(n * n, n * n)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_doubled_identity_is_not_trace_preserving(self, d):
        # X -> 2X is completely positive, and its Choi matrix traces to 2I
        assert _cptp_deviation(2 * np.eye(4 * d * d)) == pytest.approx(1.0, abs=1e-14)

    def test_misweighted_pair_class_is_not_trace_preserving(self):
        # the 2d^2 pairs (I, U) and (U, I) weighted q(1-q)/d, not q(1-q)/d^2, add
        # (2d - 2) q(1 - q) to Tr_out J, up to round-off: the suite reads the weights
        with _planted(oracle._superoperator, "q * (1.0 - q) / d**2", "q * (1.0 - q) / d"):
            instances = list(SUITES["cptp"]())
        assert len(instances) == 9
        for dev, grid in instances:
            d, q = grid["d"], grid["q"]
            assert dev == pytest.approx((2 * d - 2) * q * (1 - q), abs=1e-14)


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
        # each suite tests its whole grid, once: one that drops or repeats an
        # instance fails here, and so does a suite missing from the table
        instances = {"analytic-vs-brute": 1200, "spectrum-vs-eigensolver": 480,
                     "chi-vs-reference": 15, "chi-vs-brute": 320,
                     "marginals": 30, "cptp": 9, "covariance": 132}
        assert instances.keys() == SUITES.keys()
        report = suite_report(suite)
        # every suite reads 1.2e-14 or less, so a precision loss fails here
        assert report.max_abs_deviation <= 1e-12
        assert report.instances_tested == instances[suite]

    def test_chi_vs_brute_runs_the_sweeps_restarts(self, monkeypatch):
        # the oracle checks the optimizer's chi as the sweep computes it, with its
        # default restarts, at off-centre p for either control at q in {0, 0.5}
        calls = []

        def record(d, q, ctrl, trials, seed):
            calls.append((d, q, ctrl.p, ctrl.coherent, trials, seed))
            return capacity.OptimizerResult(0.0, trials, 0)

        monkeypatch.setattr(capacity, "holevo_numeric", record)
        list(SUITES["chi-vs-brute"]())
        restarts = (SweepConfig.optimizer_trials, 0)
        assert {call[-2:] for call in calls} == {restarts}
        grid = itertools.product((2, 3), (0.0, 0.5), (0.2, 0.5, 0.7), (True, False))
        assert {point + restarts for point in grid} <= set(calls)

    def test_analytic_vs_brute_runs_no_eigensolver(self, monkeypatch):
        # the suite compares matrices only, so no state it validates reads a spectrum
        calls = eigvalsh_calls(monkeypatch)
        assert verify_equivalence("analytic-vs-brute").instances_tested == 1200
        assert calls == []

    def test_report_serialization(self):
        report = ComparisonReport("demo", 1e-12, 5, {"d": 2, "q": 0.0})
        parsed = json.loads(report.to_json())
        assert parsed["description"] == "demo"
        assert parsed["instances_tested"] == 5
        assert "max |dev|" in str(report)

    def test_infinite_deviation_is_written_as_null(self):
        report = ComparisonReport("demo", math.inf, 5, {"d": 2, "q": 0.0})
        assert json.loads(report.to_json())["max_abs_deviation"] is None

    # each state suite's (dims, q, p, states per point), read from its partial
    @pytest.mark.parametrize("suite, grid", [
        (suite, SUITES[suite].args[:4])
        for suite in ("analytic-vs-brute", "spectrum-vs-eigensolver", "marginals")])
    def test_suites_yield_in_grid_order(self, suite, grid):
        # a suite checks each (d, q, p) as one stack of states, which must give
        # the deviations of one state at a time, in grid order
        dims, qs, ps, states = grid
        expected = []
        for d, q, p, seed in itertools.product(dims, qs, ps, range(states)):
            rho = ginibre(d, seed)
            diff = ONE_STATE_DIFFERENCE[suite](d, q, ControlState(p), rho)
            expected.append((float(np.abs(diff).max()), dict(d=d, q=q, p=p, seed=seed)))
        assert list(SUITES[suite]()) == expected

    def test_planted_fault_needs_a_binding(self):
        # a function that no switchcap module binds cannot be planted
        with pytest.raises(AssertionError, match="no switchcap module binds ginibre"):
            with _planted(ginibre, "def ginibre", "def ginibre"):
                pass

    @pytest.mark.parametrize("fn, old, new, failing", PLANTED_FAULTS)
    def test_planted_fault_fails_exactly_these_suites(self, fn, old, new, failing):
        with _planted(fn, old, new):
            assert _failing_suites() == failing
