"""Child processes of the benchmark.

    child.py setup WORKLOAD SEED SIZE WORKDIR
        Time one set-up of a workload (program import, database load, input
        generation) from this process's first statement; print the seconds.

    child.py run REPORT TRACE ARGV...
        Run ``eos ARGV...``, timing the import of ``redeos.cli``, the first
        ``builtin_database()`` and ``main(argv)``.  With TRACE 1 the library
        is traced inside this process.  The command's stdout and exit code
        pass through; the timings and spans go to the JSON file REPORT.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _setup(workload, seed, size, workdir):
    import tempfile
    import workloads
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        workloads.setup(workload, int(seed), size, tmp)
        print(repr(time.perf_counter() - T_START))


def _run(report, trace, argv):
    t0 = time.perf_counter()
    import redeos.cli
    import redeos.materials
    t1 = time.perf_counter()
    tracer = None
    if trace == "1":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    t2 = time.perf_counter()
    redeos.materials.builtin_database()
    t3 = time.perf_counter()
    try:
        code = redeos.cli.main(argv)
    finally:
        t4 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
        Path(report).write_text(json.dumps({
            "import_ms": (t1 - t0) * 1e3, "builtin_ms": (t3 - t2) * 1e3, "main_ms": (t4 - t3) * 1e3,
            "trace": tracer.export() if tracer is not None else None,
        }))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        _setup(*rest)
    elif mode == "run":
        raise SystemExit(_run(rest[0], rest[1], rest[2:]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
