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
import tracemalloc
from itertools import islice, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import switchcap
from switchcap import capacity, channels, cli, oracle, switch
from switchcap.cli import SweepConfig, main, run_sweep

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


BIG = "1" + "0" * 60  # a dimension past float range
SWEEP = ["sweep", "--dims", "2", "--q", "0"]
TOL_MESSAGE = "tolerance must be finite and >= 0, got "

# Every usage error, with the text it must print: each row exits 2 before
# computing anything, without a traceback.
USAGE_ERRORS = [
    pytest.param(["sweep", "--dims", "1", "--q", "0"], "dimensions must be >= 2", id="dims-1"),
    pytest.param(["sweep", "--dims", "2", "--q", "1.5"], "q and p values must lie in [0, 1]",
                 id="q-1.5"),
    pytest.param(SWEEP + ["--trials", "0"], "trials must be >= 1", id="trials-0"),
    pytest.param(SWEEP + ["--trials", "-3"], "trials must be >= 1", id="trials-negative"),
    pytest.param(SWEEP + ["--format", "xml"], "argument --format: invalid choice: 'xml'",
                 id="format-xml"),
    # the first dimension above the limit at the default 200 restarts
    pytest.param(["sweep", "--dims", "17", "--q", "0"],
                 "d = 17 needs about 2.33 GB of Kraus operators and 0.0481 GB of random draws"
                 " per row, above the 2.15 GB limit", id="dims-17"),
    pytest.param(["sweep", "--dims", "40", "--q", "0"],
                 "d = 40 needs about 394 GB of Kraus operators and 0.62 GB", id="dims-40"),
    # the restarts' draws are made up front: 10^7 of them at d = 8 would not fit
    pytest.param(["sweep", "--dims", "8", "--q", "0", "--trials", "10000000"],
                 "0.026 GB of Kraus operators and 256 GB of random draws", id="draws-d8"),
    # both byte counts print in one style, whether or not they fit in a float
    pytest.param(["sweep", "--dims", BIG, "--q", "0"],
                 f"d = {BIG} needs about 9.6e+352 GB of Kraus operators and 9.6e+174 GB of"
                 " random draws", id="dims-past-float-range"),
    pytest.param(SWEEP + ["--trials", "1" + "0" * 310],
                 "9.6e-06 GB of Kraus operators and 4.48e+303 GB of random draws",
                 id="trials-past-float-range"),
    pytest.param(SWEEP + ["--out", "missing-dir/x.out"],
                 "No such file or directory: 'missing-dir/x.out'", id="sweep-out-missing-dir"),
    pytest.param(SWEEP + ["--trials", "1", "--out", "nonexistent-dir/x.csv"],
                 "No such file or directory: 'nonexistent-dir/x.csv'",
                 id="sweep-out-nonexistent-dir"),
    pytest.param(SWEEP + ["--out", "."], "Is a directory: '.'", id="sweep-out-directory"),
    pytest.param(["verify", "analytic-vs-brute", "--out", "missing-dir/x.out"],
                 "No such file or directory: 'missing-dir/x.out'", id="verify-out-missing-dir"),
    pytest.param(["verify", "analytic-vs-brute", "--out", "."], "Is a directory: '.'",
                 id="verify-out-directory"),
    pytest.param(["verify", "nonexistent"], "argument suite: invalid choice: 'nonexistent'",
                 id="suite-nonexistent"),
    pytest.param(["verify", "chi-vs-optimizer"],
                 "argument suite: invalid choice: 'chi-vs-optimizer'",
                 id="suite-chi-vs-optimizer"),
    pytest.param(["verify", "cptp", "--tol", "-1"], TOL_MESSAGE + "-1.0", id="tol--1"),
    pytest.param(["verify", "cptp", "--tol", "-1e-05"], TOL_MESSAGE + "-1e-05", id="tol--1e-05"),
    pytest.param(["verify", "cptp", "--tol", "nan"], TOL_MESSAGE + "nan", id="tol-nan"),
    pytest.param(["verify", "cptp", "--tol", "inf"], TOL_MESSAGE + "inf", id="tol-inf"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error(tmp_path, monkeypatch, argv, message):
    calls = []
    monkeypatch.chdir(tmp_path)
    for owner, name in [(cli, "run_sweep"), (cli.oracle, "verify_equivalence"),
                        (capacity, "holevo_numeric")]:
        monkeypatch.setattr(owner, name, lambda *a, name=name, **kw: calls.append(name))
    code, err = usage_error(argv)
    assert code == 2
    assert calls == []
    assert message in err
    assert "Traceback" not in err


# Each option whose values in a whole range are usage errors: every value drawn,
# written as ``--opt=value`` or as ``--opt value``, exits 2 with the message.
@pytest.mark.parametrize("argv, option, values, message", [
    pytest.param(SWEEP, "--trials", st.integers(max_value=0), "trials must be >= 1", id="trials"),
    pytest.param(SWEEP, "--seed", st.integers(max_value=-1), "seed must be >= 0", id="seed"),
    pytest.param(["verify", "cptp"], "--tol",
                 st.floats(max_value=-math.ulp(0.0)) | st.sampled_from([math.inf, math.nan]),
                 TOL_MESSAGE, id="tol"),
])
@settings(max_examples=25)
@given(data=st.data(), joined=st.booleans())
def test_bad_value_property(argv, option, values, message, data, joined):
    value = repr(data.draw(values))
    code, err = usage_error(argv + ([f"{option}={value}"] if joined else [option, value]))
    assert code == 2
    assert message in err
    assert "Traceback" not in err


# Each command's options, each with values valid and invalid; None marks a flag.
OUT_VALUES = ["x.csv", "x\0y", "missing-dir/x", "-", "."]
OPTIONS = {
    "sweep": {
        "--dims": ["2", "2,3", "0", "2,,3", "", "2_0", BIG],
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


@settings(max_examples=150)
@given(argv=argvs())
@example(argv=["verify", "cptp", "--out", "x\0y"])
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
    # a fresh interpreter: other tests load mpmath and numpy.random into this one; a
    # sweep and every verify suite but chi-vs-reference and covariance load neither;
    # then chi-vs-reference loads mpmath alone and covariance's Haar unitaries load
    # numpy.random, which shows that the check sees each
    script = (
        "import contextlib, io, sys\n"
        "from switchcap import cli, oracle\n"
        "def loaded():\n"
        "    return {'mpmath', 'numpy.random'} & set(sys.modules)\n"
        "last = ('chi-vs-reference', 'covariance')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['sweep', '--dims', '2', '--q', '0', '--trials', '1']) == 0\n"
        "    for suite in (s for s in oracle.SUITES if s not in last):\n"
        "        assert cli.main(['verify', suite]) == 0\n"
        "    assert not loaded(), f'sweep and verify imported {loaded()}'\n"
        "    assert cli.main(['verify', 'chi-vs-reference']) == 0\n"
        "    assert loaded() == {'mpmath'}, f'chi-vs-reference left {loaded()} imported'\n"
        "    assert cli.main(['verify', 'covariance']) == 0\n"
        "assert loaded() == {'mpmath', 'numpy.random'}, f'covariance left {loaded()} imported'\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def profiled_calls(*argvs):
    """(callee code, caller ``module.function``) for each call that ``main`` makes
    on each of ``argvs`` in turn, each of which must exit 0."""
    calls = []

    def record(frame, event, arg):
        if event == "call":
            caller = frame.f_back
            calls.append((frame.f_code, f"{caller.f_globals['__name__']}.{caller.f_code.co_name}"))

    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                assert main(argv) == 0
    finally:
        sys.setprofile(None)
    return calls


def test_every_public_function_is_reached_by_sweep_or_verify(monkeypatch):
    """No library code that only tests reach."""
    # a suite's first instance calls what its others do
    for name, suite in oracle.SUITES.items():
        monkeypatch.setitem(oracle.SUITES, name, lambda suite=suite: islice(suite(), 1))
    sweep = SWEEP + ["--trials", "1"]
    verify = [["verify", suite, "--json"] for suite in oracle.SUITES]
    reached = {code for code, _ in profiled_calls(sweep, sweep + ["--format", "json"], *verify)}

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
    assert unreached == []


def test_kraus_route_has_one_entry_point(monkeypatch):
    """The sweep and the chi-vs-brute suite build the Kraus route only through
    ``capacity.holevo_numeric``, so a new route replaces one body."""
    # the suite's first instance runs its numeric route
    suite = oracle.SUITES["chi-vs-brute"]
    monkeypatch.setitem(oracle.SUITES, "chi-vs-brute", lambda: islice(suite(), 1))
    route = {fn.__code__: fn.__name__ for fn in (
        channels.depolarizing_channel, switch.switch_with_fixed_control,
        capacity.optimize_ensemble)}
    callers = {name: set() for name in route.values()}
    for code, caller in profiled_calls(SWEEP + ["--trials", "1"], ["verify", "chi-vs-brute"]):
        if code in route:
            callers[route[code]].add(caller)
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
    def test_offcenter_p_analytic_columns_match_numeric(self, capsys):
        argv = "sweep --dims 2,3 --q 0,0.3 --p 0,0.2,0.5,0.7,1 --trials 3".split()
        code, out = run(capsys, *argv)
        assert code == 0
        assert all("" not in line.split(",") for line in out.splitlines())
        cfg = SweepConfig(dims=(2, 3), q_values=(0.0, 0.3),
                          p_values=(0.0, 0.2, 0.5, 0.7, 1.0), optimizer_trials=3)
        for r in run_sweep(cfg):
            bound = math.log2(r.d) + r.entropy_control - r.h_min
            assert r.chi_analytic == pytest.approx(bound, abs=1e-12)
            assert r.chi_analytic == pytest.approx(r.chi_numeric, abs=1e-12)

    @settings(max_examples=15)
    @given(dims=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4),
           qs=st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0]), min_size=1, max_size=4),
           ps=st.lists(st.sampled_from([0.0, -0.0, 0.5, 0.7, 1.0]), min_size=1, max_size=4),
           seed=st.integers(0, 3))
    @example(dims=[3, 2], qs=[0.25, 0.0], ps=[0.5], seed=0)
    @example(dims=[2, 2], qs=[0.0, 0.0], ps=[0.5], seed=0)
    def test_grid_order_and_repeats_property(self, dims, qs, ps, seed):
        # -0.0 is the grid value 0.0, and prints as 0 wherever it stands in the list
        unique = [sorted({v + 0 for v in values}) for values in (dims, qs, ps)]
        table = sweep_csv(dims, qs, ps, seed)
        assert table == sweep_csv(*unique, seed)
        # rows share no state: each is the one-row sweep of its (d, q, p)
        singles = [sweep_csv([d], [q], [p], seed).splitlines()[1] for d, q, p in product(*unique)]
        assert table.splitlines()[1:] == singles

    def test_one_row_builds_its_closed_form_once(self):
        # every analytic column of a row reads the one (d, A, B) that it builds
        code = switch.depolarizing_switch_terms.__code__
        assert [callee for callee, _ in profiled_calls(SWEEP + ["--trials", "1"])].count(code) == 1

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
        assert one == pytest.approx(estimate, rel=0.03)

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

    def test_zero_chi_cells(self):
        # at q = 0 a control on one order leaves I/d: chi is 0, the closed form's
        # round-off can stay above 0, and chi_numeric is that of whichever ensemble
        # came out highest, of either sign
        dims = tuple(range(2, 9))
        cfg = SweepConfig(dims=dims, q_values=(0.0, 1.0), p_values=(0.0, 1.0),
                          optimizer_trials=50)
        zero = [r for r in run_sweep(cfg) if r.q == 0.0]
        assert [(r.d, r.p) for r in zero] == [(d, p) for d in dims for p in (0.0, 1.0)]
        for r in zero:
            assert abs(r.chi_analytic) <= 1e-14
            assert abs(r.chi_numeric) <= 1e-14

    @pytest.mark.parametrize("name, argv", [
        ("sweep-readme", "--dims 2,3,4 --q 0,0.25,0.5 --p 0.5 --trials 200 --seed 0"),
        ("sweep-offcenter", "--dims 2,3 --q 0,0.3 --p 0.2,0.7 --trials 20 --seed 0"),
        ("sweep-d8", "--dims 8 --q 0 --p 0.3,0.5 --trials 20 --seed 0"),
    ])
    def test_golden_output(self, capsys, name, argv):
        code, out = run(capsys, "sweep", *argv.split())
        assert code == 0
        assert out.encode() == (DATA / f"{name}.csv").read_bytes()

    def test_rows_share_no_state(self, capsys):
        # the d = 8 table is its two one-row sweeps, the second without its header
        outs = []
        for p in ("0.3", "0.5"):
            argv = f"--dims 8 --q 0 --p {p} --trials 20 --seed 0".split()
            code, out = run(capsys, "sweep", *argv)
            assert code == 0
            outs.append(out)
        _, _, second_row = outs[1].partition("\n")
        assert (outs[0] + second_row).encode() == (DATA / "sweep-d8.csv").read_bytes()


class TestVerify:
    def test_cptp_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "cptp", "--tol", "1e-12")
        assert code == 0
        assert "cptp" in out
        # the check has no control weight and no seed, so only d and q are named
        code, out = run(capsys, "verify", "cptp", "--tol", "1e-12", "--json")
        report = json.loads(out)
        assert report["description"] == "cptp"
        assert list(report["worst_case_parameters"]) == ["d", "q"]

    def test_unreachable_tolerance_fails(self, capsys):
        code, out = run(capsys, "verify", "cptp", "--tol", "1e-18")
        assert code == 1

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
    def test_config_validation(self):
        # d = 16 is the largest row that fits at the default 200 restarts
        SweepConfig(dims=tuple(range(2, 17)), q_values=(0.0,))
        with pytest.raises(ValueError):
            SweepConfig(dims=(), q_values=(0.0,))
        with pytest.raises(ValueError):
            SweepConfig(dims=(2,), q_values=(2.0,))
