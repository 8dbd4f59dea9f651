"""Fresh-interpreter side of the benchmark: one import, one CLI call, or one traced call.

    python child.py SRC import          time ``import switchcap.cli``, then ``calibrate()``
    python child.py SRC run ARGV...     ``switchcap.cli.main(ARGV)``, as ``python -m switchcap.cli``
    python child.py SRC trace ARGV...   the same call with every layer wrapped (see tracer.py)
    python child.py SRC memory ARGV...  the traced call with tracemalloc on, for layer peaks
    python child.py SRC env             library versions and BLAS build

``switchcap`` is imported from the directory SRC. Standard output is the
CLI's own output and the exit code is the CLI's; the child's report is one
JSON object on the last standard-error line, after ``MARKER``.
"""

import json
import os
import sys
import time

MARKER = "perfbench-report "


def calibrate(rounds: int = 3000) -> float:
    """Seconds for a fixed kernel of the operations the workloads spend their
    time on: small Hermitian eigensolves, outer and Kronecker products, a
    256 x 256 complex matrix-vector product, and Python loops. It shares no
    code with switchcap, so it measures only how fast the machine runs now."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = a + a.conj().T
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    t = np.kron(h, h.conj())
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(rounds):
        w = np.linalg.eigvalsh(h)
        o = np.outer(v, v.conj())
        k = np.kron(o[:4, :4], h[:4, :4])
        out = (t @ o.reshape(-1)).reshape(16, 16)
        acc += float(w[0]) + out[0, 0].real + k[0, 0].real
        acc += sum(x * 2 for x in range(20))
    return time.perf_counter() - t0


def _env_record() -> dict:
    from importlib import metadata

    import numpy

    config = numpy.show_config(mode="dicts")["Build Dependencies"]
    record = {"python": sys.version.split()[0]}
    for lib in ("numpy", "scipy", "mpmath"):
        try:
            record[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            record[lib] = None
    for lib in ("blas", "lapack"):
        record[lib] = {f: config.get(lib, {}).get(f)
                       for f in ("name", "version", "openblas configuration")}
    return record


def main() -> int:
    src, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import switchcap.cli as cli

    report = {"import_s": time.perf_counter() - t0}
    where = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.commonpath([where, os.path.abspath(src)]) != os.path.abspath(src):
        raise SystemExit(f"switchcap was imported from {where}, not from {src}")

    code = 0
    if mode == "env":
        report["env"] = _env_record()
    elif mode in ("run", "trace", "memory"):
        tracer = None
        if mode != "run":
            from tracer import Tracer

            tracer = Tracer(memory=mode == "memory")
            tracer.install()
        t1 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        report["compute_s"] = time.perf_counter() - t1
        sys.stdout.flush()
        if tracer is not None:
            report["layers"] = tracer.metrics()

        import resource

        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    elif mode == "import":
        report["calibration_s"] = calibrate()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(MARKER + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
