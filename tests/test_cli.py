import contextlib
import io
import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from switchcap import cli
from switchcap.cli import SweepConfig, main, render_csv, run_sweep

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def sweep_csv(dims, qs, ps):
    """CSV printed by a one-trial sweep over the given grid lists."""
    out = io.StringIO()
    argv = ["sweep", "--dims", ",".join(map(str, dims)), "--q", ",".join(map(repr, qs)),
            "--p", ",".join(map(repr, ps)), "--trials", "1"]
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
           qs=st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=1, max_size=4),
           ps=st.lists(st.sampled_from([0.0, 0.5, 0.7]), min_size=1, max_size=4))
    def test_grid_order_and_repeats_property(self, dims, qs, ps):
        unique = [sorted(set(values)) for values in (dims, qs, ps)]
        assert sweep_csv(dims, qs, ps) == sweep_csv(*unique)

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

        monkeypatch.setitem(cli.oracle.SUITES, "cptp", suite)
        code, out = run(capsys, "verify", "cptp", "--tol", "1e-9")
        assert code == 1
        assert f"max |dev| = nan over {len(devs)} instances" in out
        assert out.endswith(f"seed={worst})\n")


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
