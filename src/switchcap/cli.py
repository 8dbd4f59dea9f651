"""Command-line entry point: capacity sweeps and verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from . import capacity, oracle
from .switch import ControlState


class SweepRow(NamedTuple):
    """Capacity at one (d, q, p); the fields are the CSV header and JSON keys."""

    d: int
    q: float
    p: float
    chi_analytic: float
    chi_numeric: float
    entropy_control: float
    h_min: float


# A row needs capacity.holevo_numeric_bytes at its peak and frees that before
# the next row, so the limit bounds a whole sweep. Larger rows are refused up
# front: at 200 restarts, d = 16 needs 1.66 GB and d = 17 needs 2.38 GB.
MAX_ROW_BYTES = 2 * 1024**3


def _gigabytes(n: int) -> str:
    """``n`` bytes in GB to 3 significant digits, for an int of any size."""
    if n < 1e300:
        return f"{n / 1e9:.3g}"
    import decimal  # only past float range: a module-level import slows start-up
    return f"{decimal.Decimal(n) / 10**9:.3g}"


@dataclass(frozen=True)
class SweepConfig:
    dims: tuple[int, ...]
    q_values: tuple[float, ...]
    p_values: tuple[float, ...] = (0.5,)
    optimizer_trials: int = 200
    seed: int = 0

    def __post_init__(self):
        # sorted and unique: a repeated grid value would repeat its rows; + 0
        # turns -0.0 into 0.0, which prints as 0, not -0, and leaves an int an int
        for name in ("dims", "q_values", "p_values"):
            unique = {v + 0 for v in getattr(self, name)}
            object.__setattr__(self, name, tuple(sorted(unique)))
        if not (self.dims and self.q_values and self.p_values):
            raise ValueError("dims, q and p lists must be nonempty")
        if any(d < 2 for d in self.dims):
            raise ValueError("dimensions must be >= 2")
        if self.optimizer_trials < 1:
            raise ValueError("trials must be >= 1")
        for d in self.dims:
            kraus, draws = capacity.holevo_numeric_bytes(d, self.optimizer_trials)
            if kraus + draws > MAX_ROW_BYTES:
                raise ValueError(
                    f"d = {d} needs about {_gigabytes(kraus)} GB of Kraus operators and "
                    f"{_gigabytes(draws)} GB of random draws per row, above the "
                    f"{MAX_ROW_BYTES / 1e9:.3g} GB limit"
                )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if any(not 0.0 <= v <= 1.0 for v in self.q_values + self.p_values):
            raise ValueError("q and p values must lie in [0, 1]")


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One SweepRow per (d, q, p), in lexicographic order.

    The analytic columns come from the closed form, which holds at every
    control weight; the numeric column comes from the ensemble optimizer.
    """
    rows = []
    for d, q, p in itertools.product(cfg.dims, cfg.q_values, cfg.p_values):
        ctrl = ControlState(p)
        chi_n = capacity.holevo_numeric(d, q, ctrl, cfg.optimizer_trials, cfg.seed).chi
        chi_a, hc, hm = capacity.holevo_analytic(d, q, ctrl)
        rows.append(SweepRow(d, q, p, chi_a, chi_n, hc, hm))
    return rows


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def render_csv(rows) -> str:
    lines = [",".join(SweepRow._fields)]
    lines += [",".join(map(_fmt, r)) for r in rows]
    return "\n".join(lines) + "\n"


def render_json(rows) -> str:
    return json.dumps([r._asdict() for r in rows], indent=2) + "\n"


def _write(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchcap",
        description="Quantum SWITCH of depolarizing channels: capacity sweeps "
        "and brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="tabulate capacities over (d, q, p)")
    sweep.add_argument("--dims", type=_int_list, required=True,
                       help="comma-separated dimensions, e.g. 2,3,4")
    sweep.add_argument("--q", type=_float_list, required=True,
                       help="comma-separated noise parameters in [0,1]")
    sweep.add_argument("--p", type=_float_list, default=SweepConfig.p_values,
                       help="comma-separated control weights (default "
                       f"{','.join(map(str, SweepConfig.p_values))})")
    sweep.add_argument("--trials", type=int, default=SweepConfig.optimizer_trials,
                       help="optimizer random restarts per row")
    sweep.add_argument("--seed", type=int, default=SweepConfig.seed)
    sweep.add_argument("--out", default=None, help="output path, or - for stdout, the default")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    verify = sub.add_parser("verify", help="run a named comparison suite")
    verify.add_argument("suite", choices=oracle.SUITES)
    verify.add_argument("--tol", type=float, default=1e-9)
    verify.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON instead of text")
    verify.add_argument("--out", default=None, help="output path, or - for stdout, the default")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -1e-05 for an option name and would
    # report --tol as missing its argument, so the value is attached to it.
    if "--tol" in argv[:-1]:
        i = argv.index("--tol")
        argv[i : i + 2] = [f"--tol={argv[i + 1]}"]
    parser = build_parser()
    args = parser.parse_args(argv)

    # every bad input is a usage error, reported before computing
    try:
        if args.command == "sweep":
            cfg = SweepConfig(
                dims=args.dims,
                q_values=args.q,
                p_values=args.p,
                optimizer_trials=args.trials,
                seed=args.seed,
            )
        elif not (math.isfinite(args.tol) and args.tol >= 0):
            raise ValueError(f"tolerance must be finite and >= 0, got {args.tol}")
        if args.out not in (None, "-"):  # append mode keeps an existing file
            open(args.out, "a").close()
    except (OSError, ValueError) as exc:
        parser.error(str(exc))  # exits 2

    if args.command == "sweep":
        rows = run_sweep(cfg)
        text = render_csv(rows) if args.format == "csv" else render_json(rows)
        status = 0
    else:  # verify
        report = oracle.verify_equivalence(args.suite)
        text = (report.to_json() if args.as_json else str(report)) + "\n"
        status = 0 if report.max_abs_deviation <= args.tol else 1

    try:
        _write(text, args.out)
    except OSError as exc:
        parser.error(str(exc))  # exits 2
    return status


if __name__ == "__main__":
    sys.exit(main())
