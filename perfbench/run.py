#!/usr/bin/env python3
"""Benchmark of the switchcap CLI: three workloads, timed untraced, then traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-readme --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each CLI call runs in a fresh interpreter (child.py), one child at a time,
with BLAS pinned to one thread. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics of traced calls (tracer.py).
Every output is checked (checks.py). The last line of standard output is
one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
from child import MARKER
from tracer import COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"

VERIFY_TOL = "1e-9"
WORKLOADS = {
    "sweep-readme": ["sweep", "--dims", "2,3,4", "--q", "0,0.25,0.5", "--p", "0.5",
                     "--trials", "200"],
    "sweep-d8": ["sweep", "--dims", "8", "--q", "0", "--p", "0.3,0.5", "--trials", "20"],
    "verify-brute": ["verify", "analytic-vs-brute", "--tol", VERIFY_TOL, "--json"],
}
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_SAMPLES = 11
# Median of child.calibrate() on the reference machine (a shared two-vCPU
# Intel Xeon VM at 2.1 GHz) when it is not contended. Times are scaled by
# REFERENCE_CALIBRATION_S / (this run's median calibration).
REFERENCE_CALIBRATION_S = 0.2
RUN_LIMIT_S = 170  # a run must end within 180 s
# Layer shares of traced compute, as sized in the benchmark README.
SHARES = {
    "optimizer": ("capacity.optimize_ensemble.s",),
    "assembly+transfer": ("switch.switch_with_fixed_control.s", "capacity.transfer_matrix.s"),
    "oracle": ("oracle.brute_force_switch_output.s",),
}


class Invocation:
    """One child process: exit code, output, wall time and its report."""

    def __init__(self, mode: str, argv: list[str], deadline: float):
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), mode, *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  env={**os.environ, **THREADS}, timeout=max(deadline - t0, 1))
        except subprocess.TimeoutExpired:
            self.code, self.stdout, self.stderr = None, "", "timed out"
        else:
            self.code, self.stdout, self.stderr = proc.returncode, proc.stdout, proc.stderr
        self.wall_s = time.perf_counter() - t0
        lines = [ln for ln in self.stderr.splitlines() if ln.startswith(MARKER)]
        self.report = json.loads(lines[-1][len(MARKER):]) if lines else None


def cli_argv(workload: str, seed: int) -> list[str]:
    argv = list(WORKLOADS[workload])
    if argv[0] == "sweep":
        argv += ["--seed", str(seed)]
    return argv


def check(workload: str, inv: Invocation) -> tuple[int, list[str]]:
    """Items produced and failures found in one CLI invocation."""
    if inv.code != 0 or inv.report is None:
        tail = inv.stderr.strip().splitlines()[-1:] or [""]
        return 0, [f"exit code {inv.code}: {tail[0]}"]
    if workload == "verify-brute":
        return checks.check_verify(inv.stdout, float(VERIFY_TOL))
    reference = (REFERENCE / f"{workload}.csv").read_text()
    constants = json.loads((REFERENCE / "constants.json").read_text())
    return checks.check_sweep(inv.stdout, reference, constants)


def repeat(seconds: float, deadline: float, step):
    """Call ``step()`` until the CLI calls it reports have taken ``seconds``,
    or it returns None; always at least once."""
    spent = 0.0
    while spent < seconds and time.perf_counter() < deadline:
        took = step()
        if took is None:
            return
        spent += took


class Run:
    """Counts checked invocations and keeps a log of failures."""

    def __init__(self, workload: str, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, mode: str, argv: list[str]) -> tuple[Invocation, int]:
        inv = Invocation(mode, argv, self.deadline)
        items, errors = check(self.workload, inv)
        self.attempted += 1
        if errors:
            self.failures.append(f"{mode} call {self.attempted}: " + "; ".join(errors[:3]))
        return inv, (0 if errors else items)

    @property
    def failed(self) -> int:
        return len(self.failures)


def import_and_calibrate(deadline: float) -> tuple[float, float]:
    inv = Invocation("import", [], deadline)
    if inv.code != 0 or inv.report is None:
        raise SystemExit(f"cannot import switchcap.cli from {SRC}: {inv.stderr.strip()}")
    return inv.report["import_s"], inv.report["calibration_s"]


def timed(run: Run, seed: int, seconds: float, lines: list[str]) -> dict:
    """End-to-end metrics, tracing off.

    The machine is shared, and other tenants slow every call by up to 80%
    for minutes at a time. So SETUP_SAMPLES fresh interpreters, spread evenly
    between the CLI calls, each time the import and then run a fixed
    calibration kernel (child.calibrate), and every time below is a run
    median scaled by REFERENCE_CALIBRATION_S / median calibration: the time
    the call would take on the reference machine when uncontended.
    """
    setup, calibration, walls, rates, rss = [], [], [], [], []

    def samples(upto: int):
        while len(setup) < upto:
            import_s, calibration_s = import_and_calibrate(run.deadline)
            setup.append(import_s)
            calibration.append(calibration_s)

    def step():
        inv, items = run.call("run", cli_argv(run.workload, seed))
        if inv.report is None:
            return None
        walls.append(inv.wall_s)
        rss.append(inv.report["peak_rss_mb"])
        if items:
            rates.append(items / inv.report["compute_s"])
        samples(min(SETUP_SAMPLES, int(SETUP_SAMPLES * sum(walls) / seconds)))
        return inv.wall_s

    repeat(seconds, run.deadline, step)
    if not walls:
        raise SystemExit("no CLI call produced a report: " + "; ".join(run.failures))
    samples(SETUP_SAMPLES)
    speed = REFERENCE_CALIBRATION_S / median(calibration)
    rates = rates or [0.0]
    table = [
        ("wall_s", median(walls) * speed, "s", walls),
        ("setup_s", median(setup) * speed, "s", setup),
        ("items_per_s", median(rates) / speed, "1/s", rates),
        ("peak_rss_mb", median(rss), "MB", rss),
    ]
    lines.append(f"speed factor {speed:.4f}: reference calibration {REFERENCE_CALIBRATION_S} s"
                 f" / median of {len(calibration)} calibrations here, {median(calibration):.4g} s"
                 f" (range {min(calibration):.4g} to {max(calibration):.4g})")
    for name, value, unit, raw in table:
        scaled = "" if unit == "MB" else ", times speed factor"
        lines.append(f"{name:<12} {value:12.6g} {unit:<4} median of {len(raw)}{scaled}; raw median"
                     f" {median(raw):.6g}, range {min(raw):.6g} to {max(raw):.6g}")
    lines.append(f"{'error_rate':<12} {run.failed / run.attempted:12.6g} {'1':<4} "
                 f"{run.failed} failed of {run.attempted} calls")
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in table}


def traced(run: Run, seed: int, seconds: float, lines: list[str]) -> dict:
    """Per-layer metrics. Each step makes an untraced call, a traced call for
    times and counts, and a traced call with tracemalloc for layer peaks.
    Call counts and COUNTS must repeat exactly over all traced calls."""
    plain_s, traced_s, layers, counted = [], [], [], set()
    argv = cli_argv(run.workload, seed)

    def step():
        plain, _ = run.call("run", argv)
        tr, _ = run.call("trace", argv)
        mem, _ = run.call("memory", argv)
        if None in (plain.report, tr.report, mem.report):
            return None
        plain_s.append(plain.report["compute_s"])
        traced_s.append(tr.report["compute_s"])
        for lay in (tr.report["layers"], mem.report["layers"]):
            counted.add(tuple((k, v) for k, v in lay.items()
                              if k in COUNTS or k.endswith(".calls")))
        peaks = {k: v for k, v in mem.report["layers"].items() if k.endswith(".peak_mb")}
        layers.append({**tr.report["layers"], **peaks})
        return plain.wall_s + tr.wall_s + mem.wall_s

    repeat(seconds, run.deadline, step)
    if not layers:
        raise SystemExit("no traced call produced a report: " + "; ".join(run.failures))
    if len(counted) > 1:
        run.failures.append("exact counts differ between traced calls")
    metrics = {name: median([lay[name] for lay in layers]) for name in layers[0]}
    metrics["trace.compute_s"] = median(traced_s)
    metrics["trace.overhead_frac"] = median(t / u for t, u in zip(traced_s, plain_s)) - 1.0
    for share, parts in SHARES.items():
        total = sum(metrics.get(p, 0.0) for p in parts)
        lines.append(f"share {share:<18} {100 * total / metrics['trace.compute_s']:6.1f}% "
                     f"of traced compute")
    lines.append(f"trace.overhead_frac {metrics['trace.overhead_frac']:.4f}, median over "
                 f"{len(traced_s)} pairs of a traced and the untraced call before it")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("gap_max"):
        return "bits"
    if name.endswith("_frac"):
        return "1"
    return "count"


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, deadline: float) -> dict:
    inv = Invocation("env", [], deadline)
    if inv.report is None:
        raise SystemExit(f"cannot import switchcap.cli from {SRC}: {inv.stderr.strip()}")
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), **inv.report["env"],
            "threads": THREADS, "seed": seed}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    lines = [f"# workload {workload}, seed {seed}, {'traced' if trace else 'untraced'}"]
    env = environment(seed, deadline)
    run = Run(workload, deadline)
    metrics = (traced if trace else timed)(run, seed, seconds, lines)
    lines.append("env " + json.dumps(env, sort_keys=True))
    lines.extend(f"FAILED {f}" for f in run.failures)
    print("\n".join(lines), flush=True)
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "switchcap" / "__init__.py").is_file():
        print(f"no switchcap package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(json.dumps(bench(name, args.seed, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
