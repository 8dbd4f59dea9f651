"""Output checks for the benchmark workloads.

Sweep CSVs are compared field by field with reference tables frozen from the
CLI, within ``TOL``. Byte identity is not required: the analytic columns at
p != 1/2 may be empty (no closed form used) or filled, and a filled pair must
then be consistent with the frozen numeric capacity.

Each check returns ``(items, errors)``: the number of sweep rows or verified
instances in the output, and a list of human-readable failures.
"""

from __future__ import annotations

import csv
import io
import json
import math

TOL = 1e-9
VERIFY_INSTANCES = 1200


def _parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader.fieldnames or []), list(reader)


def _num(cell: str) -> float | None:
    return float(cell) if cell != "" else None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def check_sweep(text: str, reference: str, constants: dict[str, float]):
    """Check a sweep CSV against its frozen reference and the q=0 constants.

    ``constants`` is the dict of ``oracle.reference_constants()``; it anchors
    every q=0, p=1/2 row whose dimension it covers.
    """
    errors = []
    try:
        header, rows = _parse_csv(text)
        ref_header, ref_rows = _parse_csv(reference)
    except csv.Error as exc:
        return 0, [f"unparsable CSV: {exc}"]
    if header != ref_header:
        return 0, [f"header {header} != {ref_header}"]
    if len(rows) != len(ref_rows):
        return 0, [f"{len(rows)} rows, expected {len(ref_rows)}"]

    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        where = f"row {i + 1}"
        try:
            d, q, p = int(row["d"]), float(row["q"]), float(row["p"])
            chi_a, chi_n = _num(row["chi_analytic"]), float(row["chi_numeric"])
            hc, hm = _num(row["entropy_control"]), _num(row["h_min"])
        except (TypeError, ValueError) as exc:
            errors.append(f"{where}: unparsable field ({exc})")
            continue
        if (d, q, p) != (int(ref["d"]), float(ref["q"]), float(ref["p"])):
            errors.append(f"{where}: (d, q, p) = {(d, q, p)}, expected "
                          f"({ref['d']}, {ref['q']}, {ref['p']})")
            continue
        ref_n = float(ref["chi_numeric"])
        if not _close(chi_n, ref_n):
            errors.append(f"{where}: chi_numeric {chi_n} != frozen {ref_n}")
        if hc is None or not _close(hc, float(ref["entropy_control"])):
            errors.append(f"{where}: entropy_control {hc} != frozen {ref['entropy_control']}")
            continue
        if not -TOL <= chi_n <= math.log2(d) + hc + TOL:
            errors.append(f"{where}: chi_numeric {chi_n} outside [0, log2 d + H(control)]")

        if ref["chi_analytic"] != "":
            if chi_a is None or hm is None:
                errors.append(f"{where}: analytic columns empty at p = {p}")
                continue
            for name, got in (("chi_analytic", chi_a), ("h_min", hm)):
                if not _close(got, float(ref[name])):
                    errors.append(f"{where}: {name} {got} != frozen {ref[name]}")
        elif (chi_a is None) != (hm is None):
            errors.append(f"{where}: only one of chi_analytic, h_min is filled")
        elif chi_a is not None:
            if not _close(chi_a, math.log2(d) + hc - hm):
                errors.append(f"{where}: chi_analytic {chi_a} != log2 d + H(control) - h_min")
            if not _close(chi_a, ref_n):
                errors.append(f"{where}: chi_analytic {chi_a} != frozen chi_numeric {ref_n}")

        if q == 0.0 and p == 0.5 and f"chi_d{d}" in constants:
            for name, got in (("chi", chi_n), ("chi", chi_a),
                              ("entropy_control", hc), ("h_min", hm)):
                want = constants[f"{name}_d{d}"]
                if got is None or not _close(got, want):
                    errors.append(f"{where}: {name} {got} != reference constant {want}")
    return len(rows), errors


def check_verify(text: str, tol: float):
    """Check the JSON report of ``verify analytic-vs-brute``."""
    try:
        report = json.loads(text)
        suite = report["description"]
        instances = report["instances_tested"]
        deviation = float(report["max_abs_deviation"])
    except (ValueError, KeyError, TypeError) as exc:
        return 0, [f"unparsable verify report: {exc}"]
    errors = []
    if suite != "analytic-vs-brute":
        errors.append(f"suite {suite!r}, expected 'analytic-vs-brute'")
    if instances != VERIFY_INSTANCES:
        errors.append(f"{instances} instances tested, expected {VERIFY_INSTANCES}")
    if not deviation <= tol:
        errors.append(f"max_abs_deviation {deviation} above tol {tol}")
    return (instances if isinstance(instances, int) else 0), errors
