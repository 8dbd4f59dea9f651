"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import numpy as np

from switchcap.capacity import holevo_analytic, optimize_ensemble
from switchcap.channels import depolarizing_channel
from switchcap.cli import main
from switchcap.qmat import tensor
from switchcap.switch import (
    ControlState,
    depolarizing_switch_terms as terms,
    switch_channel,
    switch_with_fixed_control,
)

from helpers import (
    apply,
    compose_serial,
    cptp_deviation,
    dephasing_channel,
    ginibre,
    holevo_of_ensemble,
    pure_states,
    representation_deviation,
    sampled_ensemble,
    suite_report,
    switch_apply,
)

PLUS = ControlState(0.5)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_closed_form_equivalence():
    r = suite_report("analytic-vs-brute")
    ok = r.instances_tested == 1200 and r.max_abs_deviation <= 1e-10
    report("1 closed-form equals brute force", ok, str(r))


def test_criterion_2_capacity_values():
    chi2 = holevo_analytic(terms(2, 0.0, PLUS)).chi
    chi3 = holevo_analytic(terms(3, 0.0, PLUS)).chi
    ok = abs(chi2 - 0.048795) <= 1e-6 and abs(chi3 - 0.018311) <= 1e-6
    report("2 capacity reference values", ok, f"chi(2,0)={chi2:.6f}, chi(3,0)={chi3:.6f}")


def test_criterion_3_dimension_monotonicity():
    chis = [holevo_analytic(terms(d, 0.0, PLUS)).chi for d in range(2, 7)]
    ok = all(a > b for a, b in zip(chis, chis[1:]))
    report("3 capacity decreases with dimension", ok, str([f"{c:.5f}" for c in chis]))


def test_criterion_4_noiseless_limit():
    devs = [abs(holevo_analytic(terms(d, 1.0, PLUS)).chi - np.log2(d)) for d in range(2, 6)]
    report("4 noiseless limit log2(d)", max(devs) <= 1e-9, f"max dev {max(devs):.2e}")


def test_criterion_5_optimizer_attainment_and_bound():
    worst_gap = 0.0
    worst_excess = -np.inf
    for d in (2, 3):
        dep = depolarizing_channel(d, 0.0)
        ch = switch_with_fixed_control(dep, dep, PLUS)
        chi = holevo_analytic(terms(d, 0.0, PLUS)).chi
        result = optimize_ensemble(ch, trials=500, seed=0)
        worst_gap = max(worst_gap, abs(result.chi - chi))
        worst_excess = max(worst_excess, result.chi - chi)
        # independent sampling pass: the bound must also hold away from optima
        rng = np.random.default_rng(12345)
        for _ in range(200):
            probs, vecs = sampled_ensemble(rng, d)
            sampled = holevo_of_ensemble(ch, probs, pure_states(vecs))
            worst_excess = max(worst_excess, sampled - chi)
    ok = worst_gap <= 1e-6 and worst_excess <= 1e-8
    report(
        "5 optimizer attains analytic chi, bound never exceeded",
        ok,
        f"gap {worst_gap:.2e}, excess {worst_excess:.2e}",
    )


def test_criterion_6_decoherence_null():
    dephased = ControlState(0.5, coherent=False)
    dep = depolarizing_channel(2, 0.0)
    ch = switch_with_fixed_control(dep, dep, dephased)
    result = optimize_ensemble(ch, trials=100, seed=0)
    closed = holevo_analytic(terms(2, 0.0, dephased)).chi
    ok = result.chi <= 1e-9 and closed == 0.0
    detail = f"chi {result.chi:.2e}, closed form {closed:.2e}"
    report("6 dephased control transmits nothing", ok, detail)


def test_criterion_7_commuting_kraus_null():
    worst = 0.0
    for d in (2, 3):
        n = dephasing_channel(d)
        serial = compose_serial(n, n)
        for p in (0.2, 0.5, 0.8, 0.9):
            ctrl = ControlState(p)
            for seed in range(8):
                rho = ginibre(d, seed)
                js = switch_apply(n, n, rho, ctrl)
                expected = tensor(apply(serial, rho).matrix, ctrl.density())
                worst = max(worst, float(np.abs(js.matrix - expected).max()))
    report("7 commuting Kraus: no self-switching", worst <= 1e-10, f"max dev {worst:.2e}")


def test_criterion_8_structural_suite():
    # CPTP of the switched channel
    cptp_dev = 0.0
    for d in (2, 3, 4):
        for q in (0.0, 0.4, 0.5, 1.0):
            dep = depolarizing_channel(d, q)
            cptp_dev = max(cptp_dev, cptp_deviation(switch_channel(dep, dep)))

    # marginal laws at q=0
    marginals = suite_report("marginals")
    marg_dev = marginals.max_abs_deviation

    # Kraus-representation independence
    rep_dev = max(representation_deviation(seed, ginibre(2, seed)) for seed in range(5))

    # spectrum formula vs generic eigensolver
    spectrum = suite_report("spectrum-vs-eigensolver")
    spec_dev = spectrum.max_abs_deviation

    ok = (
        cptp_dev <= 1e-12
        and marginals.instances_tested == 30
        and marg_dev <= 1e-10
        and rep_dev <= 1e-10
        and spectrum.instances_tested == 480
        and spec_dev <= 1e-10
    )
    report(
        "8 structural suite (cptp/marginals/representation/spectrum)",
        ok,
        f"cptp {cptp_dev:.1e}, marg {marg_dev:.1e}, rep {rep_dev:.1e}, spec {spec_dev:.1e}",
    )


def test_criterion_9_reproducible_cli_output(tmp_path):
    args = ["sweep", "--dims", "2,3", "--q", "0,0.5", "--trials", "25", "--seed", "11"]
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for path in paths:
        code = main(args + ["--out", str(path)])
        assert code == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report("9 byte-identical CLI reruns", identical)
