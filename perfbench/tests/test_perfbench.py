"""Tests of the benchmark itself (not collected by the package's own suite).

    python -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from child import MARKER  # noqa: E402

REFERENCE = BENCH / "reference"
CONSTANTS = json.loads((REFERENCE / "constants.json").read_text())
SWEEPS = ("sweep-readme", "sweep-d8")
VERIFY_OK = {"description": "analytic-vs-brute", "instances_tested": 1200,
             "max_abs_deviation": 3.1e-15, "worst_case_parameters": {}}


def frozen(name: str) -> str:
    return (REFERENCE / f"{name}.csv").read_text()


def check(text: str, name: str):
    return checks.check_sweep(text, frozen(name), CONSTANTS)


def corruptions(text: str):
    """Every CSV with the first significant digit of one field changed."""
    lines = text.splitlines(keepends=True)
    for i in range(1, len(lines)):
        cells = lines[i].rstrip("\n").split(",")
        for j, cell in enumerate(cells):
            m = re.search(r"[1-9]", cell)
            if m is None:
                m = re.search(r"0", cell)
            if m is None:
                continue
            digit = m.group()
            new = str((int(digit) % 9) + 1) if digit != "0" else "1"
            bad = cells[:j] + [cell[:m.start()] + new + cell[m.end():]] + cells[j + 1:]
            yield i, j, "".join(lines[:i] + [",".join(bad) + "\n"] + lines[i + 1:])


@pytest.mark.parametrize("name", SWEEPS)
def test_frozen_tables_pass(name):
    items, errors = check(frozen(name), name)
    assert errors == []
    assert items == len(frozen(name).splitlines()) - 1


def test_reference_constant_chi_d2():
    assert CONSTANTS["chi_d2"] == pytest.approx(0.0487949406954, abs=1e-12)


@pytest.mark.parametrize("name", SWEEPS)
def test_one_corrupted_digit_is_a_failure(name):
    seen = 0
    for row, col, text in corruptions(frozen(name)):
        _, errors = check(text, name)
        assert errors, f"corrupting row {row}, column {col} went unnoticed"
        seen += 1
    assert seen >= 10


def test_analytic_cells_at_offcenter_p_may_be_filled_if_consistent():
    ref = frozen("sweep-d8")
    header, row, rest = ref.split("\n", 2)
    d, q, p, _, chi, hc, _ = row.split(",")
    assert p != "0.5"
    h_min = math.log2(int(d)) + float(hc) - float(chi)
    filled = f"{d},{q},{p},{chi},{chi},{hc},{h_min!r}"
    assert check("\n".join([header, filled, rest]), "sweep-d8")[1] == []
    wrong = f"{d},{q},{p},{float(chi) + 1e-6!r},{chi},{hc},{h_min - 1e-6!r}"
    assert check("\n".join([header, wrong, rest]), "sweep-d8")[1]
    half = f"{d},{q},{p},{chi},{chi},{hc},"
    assert check("\n".join([header, half, rest]), "sweep-d8")[1]


def test_capacity_above_its_bound_is_a_failure():
    # Shift a row and its frozen reference together: only the bound can catch it.
    header, row, rest = frozen("sweep-readme").split("\n", 2)
    cells = row.split(",")
    cells[4] = "3.0"
    shifted = "\n".join([header, ",".join(cells), rest])
    _, errors = checks.check_sweep(shifted, shifted, {})
    assert any("outside" in e for e in errors)


def test_run_counts_a_corrupted_output_as_failed():
    _, _, bad = next(corruptions(frozen("sweep-readme")))
    for stdout, code in ((frozen("sweep-readme"), 0), (bad, 0), (frozen("sweep-readme"), 1)):
        inv = SimpleNamespace(code=code, stdout=stdout, stderr="", report={})
        items, errors = run.check("sweep-readme", inv)
        assert bool(errors) == (stdout is bad or code != 0)
    inv = SimpleNamespace(code=0, stdout=json.dumps({**VERIFY_OK, "max_abs_deviation": 1e-8}),
                          stderr="", report={})
    assert run.check("verify-brute", inv)[1]


def test_verify_report_checks():
    tol = float(run.VERIFY_TOL)
    assert checks.check_verify(json.dumps(VERIFY_OK), tol) == (1200, [])
    for change in ({"max_abs_deviation": 2 * tol}, {"max_abs_deviation": float("nan")},
                   {"instances_tested": 1199}, {"description": "cptp"}):
        assert checks.check_verify(json.dumps({**VERIFY_OK, **change}), tol)[1], change
    assert checks.check_verify("not json", tol)[1]


def traced_call(argv, src=ROOT / "src", mode="trace"):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(src), mode, *argv],
        capture_output=True, text=True, env={**os.environ, **run.THREADS}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = [ln for ln in proc.stderr.splitlines() if ln.startswith(MARKER)][-1]
    return proc.stdout, json.loads(line[len(MARKER):])["layers"]


SMALL_SWEEP = ["sweep", "--dims", "2,3", "--q", "0", "--p", "0.3,0.5", "--trials", "5"]


@pytest.mark.parametrize("argv", [SMALL_SWEEP, ["verify", "marginals", "--json"]])
def test_exact_counts_repeat_between_traced_runs(argv):
    _, first = traced_call(argv)
    _, second = traced_call(argv, mode="memory")
    exact = [k for k in first if k in tracer.COUNTS or k.endswith(".calls")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_counts_match_the_layer_calls():
    _, layers = traced_call(SMALL_SWEEP)
    assert layers["capacity.optimizer.chi_evals"] == layers["capacity.chi_eval.calls"]
    # Per row, (d^2+1)^2 SWITCH Kraus operators, once 2d x 2d and once 2d x d.
    assert layers["switch.n_kraus"] == 2 * 2 * (5**2 + 10**2)
    assert layers["channels.n_kraus"] == 2 * (5 + 10)
    _, layers = traced_call(["verify", "marginals"])
    assert layers["oracle.kraus_pairs"] == 10 * (5**2 + 10**2 + 17**2)
    assert layers["oracle.brute_force_switch_output.calls"] == 30


def test_traced_run_survives_missing_optional_hooks(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "switchcap", src / "switchcap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    capacity = src / "switchcap" / "capacity.py"
    text = capacity.read_text()
    for hook in ("_chi_pure", "_transfer_matrix"):
        text = text.replace(hook, hook + "_v2")
    capacity.write_text(text)
    out, layers = traced_call(SMALL_SWEEP, src=src)
    assert out == traced_call(SMALL_SWEEP)[0]
    assert not [k for k in layers if k.startswith(("capacity.chi_eval.", "capacity.transfer_matrix."))]
    assert layers["capacity.optimize_ensemble.calls"] == 4


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, layers = traced_call(SMALL_SWEEP)
    produced = set(layers) | {"trace.compute_s", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_tier1_suite_does_not_collect_these_tests():
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "perfbench" not in proc.stdout


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-readme",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
