import contextlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import switchcap
from switchcap import capacity, channels, cli, oracle, switch
from switchcap.cli import SweepConfig, main, render_csv, run_sweep

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def sweep_csv(dims, qs, ps, seed=0):
    """CSV printed by a one-trial sweep over the given grid lists."""
    out = io.StringIO()
    # --q=VALUES, because argparse reads a list that starts with -0.0 as an option
    argv = ["sweep", "--dims", ",".join(map(str, dims)), "--q=" + ",".join(map(repr, qs)),
            "--p=" + ",".join(map(repr, ps)), "--trials", "1", "--seed", str(seed)]
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def usage_error(argv):
    """Exit code and stderr of a ``main`` call that must stop in ``parser.error``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, err.getvalue()


@pytest.mark.parametrize("argv", [
    ["sweep", "--dims", "2", "--q", "0"],
    ["verify", "analytic-vs-brute"],
])
@pytest.mark.parametrize("out", ["missing-dir/x.out", "."])
def test_bad_out_fails_before_computing(tmp_path, monkeypatch, argv, out):
    calls = []
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_sweep", lambda *a: calls.append(a))
    monkeypatch.setattr(cli.oracle, "verify_equivalence", lambda *a: calls.append(a))
    code, err = usage_error(argv + ["--out", out])
    assert code == 2
    assert calls == []
    assert "Traceback" not in err


# Each command's options, each with values valid and invalid; None marks a flag.
OUT_VALUES = ["x.csv", "x\0y", "missing-dir/x", "-", "."]
OPTIONS = {
    "sweep": {
        "--dims": ["2", "2,3", "0", "2,,3", "", "2_0", "1" + "0" * 60],
        "--q": ["0", "0.3,1", "-0", "1.5", "nan", "x"],
        "--p": ["0.5", "0,1", "2", "inf"],
        "--trials": ["1", "0", "-1", "1" + "0" * 310],
        "--seed": ["0", "-1", "x"],
        "--format": ["csv", "json", "xml"],
        "--out": OUT_VALUES,
        "--help": [None],
    },
    "verify": {
        "--tol": ["1e-9", "0.1", "-1e-05", "inf", "nan"],
        "--json": [None],
        "--out": OUT_VALUES,
        "--help": [None],
    },
}


@st.composite
def argvs(draw):
    """A command, then a random subset of its options in random order, each
    with a value from its pool, written as ``--opt value`` or ``--opt=value``."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from([*oracle.SUITES, "nonexistent"])))
    pool = OPTIONS[command]
    for name in draw(st.lists(st.sampled_from(sorted(pool)), unique=True)):
        value = draw(st.sampled_from(pool[name]))
        if value is None:
            argv.append(name)
        elif draw(st.booleans()):
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
@example(argv=["verify", "cptp", "--out", "x\0y"])
@example(argv=["sweep", "--dims", "1" + "0" * 60, "--q", "0"])
@example(argv=["sweep", "--dims", "2", "--q", "0", "--trials", "1" + "0" * 310])
def test_any_argv_exits_0_1_or_2(argv):
    """Whatever the argv, ``main`` returns 0 or 1 or exits 0 or 2: a bad input
    is a usage error, never another exception. Nothing is computed."""
    report = oracle.ComparisonReport("cptp", 1e-6, 1, dict(d=2))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "run_sweep", return_value=[]), \
            mock.patch.object(cli.oracle, "verify_equivalence", return_value=report), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        os.chdir(tmp)
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
        else:
            assert code in (0, 1), argv
        finally:
            os.chdir(cwd)


def test_cli_runs_never_import_mpmath():
    # a fresh interpreter: other tests load mpmath into this one
    script = (
        "import contextlib, io, sys\n"
        "from switchcap import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['sweep', '--dims', '2', '--q', '0', '--trials', '1']) == 0\n"
        "    assert cli.main(['verify', 'cptp']) == 0\n"
        "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_public_function_is_reached_by_sweep_or_verify():
    """No library code that only tests reach. ``oracle.reference_constants`` is
    the one exception: the tests and the benchmark check the frozen constants
    with it."""
    reached = set()
    sweep = ["sweep", "--dims", "2", "--q", "0", "--trials", "1"]
    # every frame the profiler sees belongs to a function that was called
    sys.setprofile(lambda frame, event, arg: reached.add(frame.f_code))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (sweep, sweep + ["--format", "json"], ["verify", "cptp", "--json"]):
                assert main(argv) == 0
        for suite in oracle.SUITES.values():
            next(suite())
    finally:
        sys.setprofile(None)

    unreached = []
    for info in pkgutil.iter_modules(switchcap.__path__):
        module = importlib.import_module(f"switchcap.{info.name}")
        defined = [(name, obj) for name, obj in vars(module).items()
                   if getattr(obj, "__module__", None) == module.__name__]
        # the methods of the classes defined here count as well
        defined += [(f"{name}.{attr}", fn) for name, obj in defined if inspect.isclass(obj)
                    for attr, fn in vars(obj).items()]
        unreached += [f"{info.name}.{name}" for name, fn in defined
                      if inspect.isfunction(fn) and fn.__code__ not in reached
                      and not any(part.startswith("_") for part in name.split("."))]
    assert unreached == ["oracle.reference_constants"]


def test_kraus_route_has_one_entry_point():
    """The sweep and the chi-vs-optimizer suite build the Kraus route only
    through ``capacity.holevo_numeric``, so a new route replaces one body."""
    route = {fn.__code__: fn.__name__ for fn in (
        channels.depolarizing_channel, switch.switch_with_fixed_control,
        capacity.optimize_ensemble)}
    callers = {name: set() for name in route.values()}

    def record(frame, event, arg):
        if event == "call" and frame.f_code in route:
            caller = frame.f_back
            callers[route[frame.f_code]].add(
                f"{caller.f_globals['__name__']}.{caller.f_code.co_name}")

    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--dims", "2", "--q", "0", "--trials", "1"]) == 0
            assert main(["verify", "chi-vs-optimizer"]) == 0
    finally:
        sys.setprofile(None)
    assert callers == {name: {"switchcap.capacity.holevo_numeric"} for name in route.values()}


@pytest.mark.parametrize("argv", [
    ["sweep", "--dims", "2", "--q", "0", "--trials", "1"],
    ["verify", "cptp"],
])
def test_out_dash_writes_stdout(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv, "--out", "-") == run(capsys, *argv)
    assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_csv_header_and_row(self, capsys):
        code, out = run(
            capsys, "sweep", "--dims", "2", "--q", "0", "--trials", "5", "--seed", "0"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,q,p,chi_analytic,chi_numeric,entropy_control,h_min"
        fields = lines[1].split(",")
        assert fields[:3] == ["2", "0", "0.5"]
        assert float(fields[3]) == pytest.approx(0.048795, abs=1e-6)
        assert float(fields[5]) == pytest.approx(0.954434, abs=1e-6)
        assert float(fields[6]) == pytest.approx(1.905639, abs=1e-6)
        assert out.endswith("\n")

    def test_noiseless_value(self, capsys):
        code, out = run(capsys, "sweep", "--dims", "2", "--q", "1", "--trials", "5")
        assert float(out.splitlines()[1].split(",")[3]) == pytest.approx(1.0)

    def test_monotone_in_dimension(self):
        cfg = SweepConfig(dims=(2, 3, 4, 5, 6), q_values=(0.0,), optimizer_trials=1)
        rows = run_sweep(cfg)
        chis = [r.chi_analytic for r in rows]
        assert all(a > b for a, b in zip(chis, chis[1:]))

    def test_rows_in_lexicographic_order(self):
        cfg = SweepConfig(dims=(3, 2), q_values=(0.5, 0.0), optimizer_trials=1)
        rows = run_sweep(cfg)
        keys = [(r.d, r.q, r.p) for r in rows]
        assert keys == sorted(keys)

    def test_offcenter_p_analytic_columns_match_numeric(self, capsys):
        argv = "sweep --dims 2,3 --q 0,0.3 --p 0,0.2,0.7,1 --trials 3".split()
        code, out = run(capsys, *argv)
        assert code == 0
        assert all("" not in line.split(",") for line in out.splitlines())
        cfg = SweepConfig(dims=(2, 3), q_values=(0.0, 0.3),
                          p_values=(0.0, 0.2, 0.7, 1.0), optimizer_trials=3)
        for r in run_sweep(cfg):
            bound = math.log2(r.d) + r.entropy_control - r.h_min
            assert r.chi_analytic == pytest.approx(bound, abs=1e-12)
            assert r.chi_analytic == pytest.approx(r.chi_numeric, abs=1e-12)

    def test_repeated_grid_values_give_one_row(self, capsys):
        code, out = run(capsys, "sweep", "--dims", "2,2", "--q", "0,0", "--trials", "1")
        assert code == 0
        assert len(out.splitlines()) == 2

    @settings(max_examples=15, deadline=None)
    @given(dims=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4),
           qs=st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0]), min_size=1, max_size=4),
           ps=st.lists(st.sampled_from([0.0, -0.0, 0.5, 0.7, 1.0]), min_size=1, max_size=4),
           seed=st.integers(0, 3))
    def test_grid_order_and_repeats_property(self, dims, qs, ps, seed):
        # -0.0 is the grid value 0.0, and prints as 0 wherever it stands in the list
        unique = [sorted({v + 0 for v in values}) for values in (dims, qs, ps)]
        table = sweep_csv(dims, qs, ps, seed)
        assert table == sweep_csv(*unique, seed)
        # rows share no state: each is the one-row sweep of its (d, q, p)
        singles = [sweep_csv([d], [q], [p], seed).splitlines()[1] for d, q, p in product(*unique)]
        assert table.splitlines()[1:] == singles

    def test_sweep_peaks_at_one_row(self):
        # each row frees its Kraus stacks before the next row builds its own
        def traced_peak(ps):
            cfg = SweepConfig(dims=(8,), q_values=(0.0,), p_values=ps, optimizer_trials=1)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run_sweep(cfg)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        one, two, three = map(traced_peak, [(0.5,), (0.3, 0.5), (0.3, 0.5, 0.7)])
        assert max(two, three) <= 1.02 * one
        estimate = sum(capacity.holevo_numeric_bytes(8, 1))
        assert one == pytest.approx(estimate, rel=0.1)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["sweep", "--dims", "2", "--q", "0,0.5", "--trials", "10", "--seed", "7"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_json_format(self, capsys):
        code, out = run(
            capsys, "sweep", "--dims", "2", "--q", "1", "--trials", "3",
            "--format", "json",
        )
        rows = json.loads(out)
        assert rows[0]["d"] == 2
        assert rows[0]["chi_analytic"] == pytest.approx(1.0)
        # both renderers write one schema: the JSON keys are the CSV header, in order
        _, csv = run(capsys, "sweep", "--dims", "2", "--q", "1", "--trials", "3")
        header = csv.splitlines()[0].split(",")
        assert all(list(row) == header for row in rows)

    def test_bad_dims_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dims", "1", "--q", "0"])
        assert exc.value.code == 2

    def test_bad_q_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dims", "2", "--q", "1.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra", [
        "--trials 0",
        "--trials -3",
        "--out nonexistent-dir/x.csv",
    ])
    def test_bad_trials_or_out_usage_error(self, capsys, tmp_path, monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dims", "2", "--q", "0", "--trials", "1"] + extra.split())
        assert exc.value.code == 2

    @settings(max_examples=25, deadline=None)
    @given(trials=st.integers(max_value=0))
    def test_nonpositive_trials_property(self, trials):
        code, err = usage_error(["sweep", "--dims", "2", "--q", "0", f"--trials={trials}"])
        assert code == 2
        assert "trials must be >= 1" in err
        assert "Traceback" not in err

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(max_value=-1))
    def test_negative_seed_property(self, seed):
        code, err = usage_error(["sweep", "--dims", "2", "--q", "0", f"--seed={seed}"])
        assert code == 2
        assert "seed must be >= 0" in err
        assert "Traceback" not in err

    def test_unknown_format_usage_error(self):
        code, err = usage_error(["sweep", "--dims", "2", "--q", "0", "--format", "xml"])
        assert code == 2
        assert "argument --format: invalid choice" in err
        assert "Traceback" not in err

    def test_oversized_dimension_usage_error(self, capsys):
        SweepConfig(dims=tuple(range(2, 17)), q_values=(0.0,))
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dims", "40", "--q", "0"])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        assert "394 GB" in capsys.readouterr().err

    def test_oversized_draws_usage_error(self):
        # the restarts' draws are made up front: 10^7 of them at d = 8 would not fit
        start = time.perf_counter()
        code, err = usage_error(["sweep", "--dims", "8", "--q", "0", "--trials", "10000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "256 GB of random draws" in err
        assert "Traceback" not in err

    def test_zero_chi_cells(self):
        # at q = 0 a control on one order leaves I/d: chi is 0, and chi_numeric
        # is the round-off of whichever ensemble came out highest
        cfg = SweepConfig(dims=(2, 3, 4), q_values=(0.0, 1.0), p_values=(0.0, 1.0),
                          optimizer_trials=50)
        zero = [r for r in run_sweep(cfg) if r.q == 0.0]
        assert [(r.d, r.p) for r in zero] == [(d, p) for d in (2, 3, 4) for p in (0.0, 1.0)]
        for r in zero:
            assert r.chi_analytic == 0.0
            assert 0.0 <= r.chi_numeric <= 1e-12

    @pytest.mark.parametrize("name, argv", [
        ("sweep-readme", "--dims 2,3,4 --q 0,0.25,0.5 --p 0.5 --trials 200 --seed 0"),
        ("sweep-offcenter", "--dims 2,3 --q 0,0.3 --p 0.2,0.7 --trials 20 --seed 0"),
        ("sweep-d8", "--dims 8 --q 0 --p 0.3,0.5 --trials 20 --seed 0"),
    ])
    def test_golden_output(self, capsys, name, argv):
        code, out = run(capsys, "sweep", *argv.split())
        assert code == 0
        assert out.encode() == (DATA / f"{name}.csv").read_bytes()


class TestVerify:
    def test_cptp_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "cptp", "--tol", "1e-12")
        assert code == 0
        assert "cptp" in out
        # the check has no control weight and no seed, so only d and q are named
        code, out = run(capsys, "verify", "cptp", "--tol", "1e-12", "--json")
        assert list(json.loads(out)["worst_case_parameters"]) == ["d", "q"]

    def test_unreachable_tolerance_fails(self, capsys):
        code, out = run(capsys, "verify", "cptp", "--tol", "1e-18")
        assert code == 1

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonexistent"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["-1", "-1e-05", "nan", "inf"])
    def test_bad_tolerance_usage_error(self, tol):
        code, err = usage_error(["verify", "cptp", "--tol", tol])
        assert code == 2
        assert "tolerance must be finite and >= 0" in err

    @settings(max_examples=25, deadline=None)
    @given(tol=st.floats(max_value=-math.ulp(0.0)) | st.sampled_from([math.inf, math.nan]),
           joined=st.booleans())
    def test_bad_tolerance_property(self, tol, joined):
        form = [f"--tol={tol!r}"] if joined else ["--tol", repr(tol)]
        code, err = usage_error(["verify", "cptp", *form])
        assert code == 2
        assert "tolerance must be finite and >= 0" in err
        assert "Traceback" not in err

    def test_json_report(self, capsys):
        code, out = run(capsys, "verify", "marginals", "--tol", "1e-10", "--json")
        report = json.loads(out)
        assert report["description"] == "marginals"
        assert report["max_abs_deviation"] <= 1e-10

    @pytest.mark.parametrize("devs, worst", [
        ([1e-17, math.nan, 1.0, math.nan], 1),
        ([math.nan, math.nan], 0),
    ])
    def test_nan_deviation_fails(self, capsys, monkeypatch, devs, worst):
        def suite():
            for i, dev in enumerate(devs):
                yield dev, dict(d=2, q=0.0, p=0.5, seed=i)

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        monkeypatch.setitem(cli.oracle.SUITES, "cptp", suite)
        code, out = run(capsys, "verify", "cptp", "--tol", "1e-9")
        assert code == 1
        assert f"max |dev| = nan over {len(devs)} instances" in out
        assert out.endswith(f"seed={worst})\n")

        # the JSON report stays strict JSON: the NaN is written as null
        code, out = run(capsys, "verify", "cptp", "--tol", "1e-9", "--json")
        assert code == 1
        report = json.loads(out, parse_constant=reject)
        assert report["max_abs_deviation"] is None
        assert report["instances_tested"] == len(devs)
        assert report["worst_case_parameters"]["seed"] == worst

    def test_empty_suite_fails(self, capsys, monkeypatch):
        # a suite that tests nothing must not pass as a zero deviation
        monkeypatch.setitem(cli.oracle.SUITES, "cptp", lambda: iter(()))
        with pytest.raises(ValueError, match="suite 'cptp' yielded no instances"):
            main(["verify", "cptp", "--tol", "0"])
        assert capsys.readouterr().out == ""

    def test_all_zero_suite_names_its_first_instance(self, capsys, monkeypatch):
        def suite():
            for seed in range(3):
                yield 0.0, dict(d=2, q=0.0, p=0.5, seed=seed)

        monkeypatch.setitem(cli.oracle.SUITES, "cptp", suite)
        code, out = run(capsys, "verify", "cptp", "--tol", "0")
        assert code == 0
        assert out.endswith("over 3 instances (worst at d=2, q=0.0, p=0.5, seed=0)\n")

        code, out = run(capsys, "verify", "cptp", "--tol", "0", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["max_abs_deviation"] == 0.0
        assert report["worst_case_parameters"] == dict(d=2, q=0.0, p=0.5, seed=0)


class TestRendering:
    def test_twelve_significant_digits(self):
        cfg = SweepConfig(dims=(2,), q_values=(0.0,), optimizer_trials=1)
        rows = run_sweep(cfg)
        text = render_csv(rows)
        chi_field = text.splitlines()[1].split(",")[3]
        assert chi_field == "0.0487949406954"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(dims=(), q_values=(0.0,))
        with pytest.raises(ValueError):
            SweepConfig(dims=(2,), q_values=(2.0,))
