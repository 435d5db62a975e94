"""Benchmark of redeos: the EOS closure, the grid commands and the ``eos`` process.

    python3 benchmarks/run.py --workload closure --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads (see BENCHMARK.json for why each
was chosen):

* ``closure``: seeded cells through the state builders and the MNA/MVO1
  mixture solvers, in process;
* ``cli-grid``: ``cli.main(argv)`` on sweep, mix-sweep and audit grids at
  real CLI sizes, in process;
* ``cli-process``: a fresh ``eos`` process per command over the
  acceptance-criterion-11 command set.

With ``--trace 0`` the run prints the end-to-end metrics: set-up time,
peak RSS, and per model family the throughput and the p90 latency of an
operation, all times at a reference machine speed (see ``workloads``).  With
``--trace 1`` it prints the per-layer metrics instead: span counts and self
times of each library layer, kernel timings, the start-up profile of an
``eos`` process and the tracing overhead.  Every output is checked against
closed forms the benchmark computes itself; the last stdout line is the
JSON result, and a fuller record with provenance is written under
``benchmarks/out/``.  ``--tiny`` shrinks every input for a smoke run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import inputs
import tracing
import workloads
from workloads import OUT, ROOT, SRC, Tally, spawn

SETUP_PROBES = 7
STARTUP_PROBES = 3
PROBE_ARGV = ("state", "NC-13", "--model", "vo1", "--rho", "100", "--T", "3000")

E2E_UNITS = {f"{f}_per_s": "1/s" for f in inputs.FAMILIES}
E2E_UNITS.update({f"{f}_ms_p90": "ms" for f in inputs.FAMILIES})
E2E_UNITS.update({"peak_rss_mb": "MB", "setup_s": "s"})

LAYER_UNITS = dict(tracing.LAYER_UNITS)
LAYER_UNITS.update({f"kernels.{k}.ns": "ns" for k in workloads.KERNELS})
LAYER_UNITS.update(dict.fromkeys(("process.interp_ms", "process.import_redeos_ms", "process.import_numpy_ms",
                                  "process.main_ms", "materials.builtin_parse_ms", "materials.load_db_ms",
                                  "materials.save_db_ms"), "ms"))
LAYER_UNITS.update({"cli.rows_domain_error": "count", "trace.overhead_pct": "%"})


def _git_sha():
    """HEAD of the checkout's own .git, if it has one (never a parent's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "redeos").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".eosdb"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, items, files):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    uname = os.uname()
    return {
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "system": " ".join((uname.sysname, uname.release, uname.machine)),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": _size(args),
        "input_sha256": inputs.digest(items, files), "input_sizes": inputs.sizes(items),
    }


# --- end-to-end ------------------------------------------------------------------

def setup_seconds(args, tally):
    """Median set-up time of fresh processes, each importing and generating anew.

    Like an ``eos`` spawn, a probe is scaled to the reference speed by a
    calibration spawn timed right after it (see ``workloads``).
    """
    samples = []
    for _ in range(SETUP_PROBES):
        code, out, err, _wall = spawn([sys.executable, str(workloads.CHILD), "setup", args.workload,
                                       str(args.seed), _size(args), str(OUT)])
        slowdown = workloads.spawn_slowdown()
        if code == 0:
            samples.append(float(out.strip()) / slowdown)
        tally.record("setup probe", None if code == 0 else f"exit {code}: {err.strip()[-200:]}")
    return (statistics.median(samples) if samples else float("nan")), len(samples)


def end_to_end(args, work, tally):
    measured = work.measure(args.seconds, tally)
    measured["setup_s"] = setup_seconds(args, tally)
    return measured, E2E_UNITS


# --- per layer -------------------------------------------------------------------

def kernel_ns(work, reps=5, min_calls=20_000):
    """Plain-loop ns per call of each scalar kernel over the workload's own cells."""
    import redeos
    out = {}
    for name, args in work.kernel_args().items():
        if not args:
            out[f"kernels.{name}.ns"] = (0.0, 0)
            continue
        fn = getattr(redeos, name)
        calls = args * -(-min_calls // len(args))
        per = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            for a in calls:
                fn(*a)
            per.append((time.perf_counter_ns() - t0) / len(calls))
        out[f"kernels.{name}.ns"] = (statistics.median(per), reps * len(calls))
    return out


def _importtime(err):
    """(redeos, numpy) cumulative import ms from ``-X importtime`` lines."""
    redeos_us = numpy_us = 0
    for line in err.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        pkg = name.strip()
        top_level = len(name) - len(name.lstrip()) == 1
        if pkg == "numpy":
            numpy_us = int(parts[1])
        if top_level and (pkg == "redeos" or pkg.startswith("redeos.")):
            redeos_us += int(parts[1])
    return redeos_us / 1e3, numpy_us / 1e3


def startup_profile(workdir, tally):
    """Start-up costs of an ``eos`` process and of the database files."""
    from redeos.materials import builtin_database, load_material_db, save_material_db
    samples = {k: [] for k in ("process.interp_ms", "process.import_redeos_ms", "process.import_numpy_ms",
                               "process.main_ms", "materials.builtin_parse_ms")}
    for k in range(STARTUP_PROBES):
        code, _out, _err, wall = spawn([sys.executable, "-c", "pass"])
        samples["process.interp_ms"].append(wall * 1e3)
        report = workdir / f"probe-{k}.json"
        code, _out, err, _wall = spawn([sys.executable, "-X", "importtime", str(workloads.CHILD),
                                        "run", str(report), "0", *PROBE_ARGV])
        tally.record("start-up probe", None if code == 0 else f"exit {code}")
        if code != 0:
            continue
        data = json.loads(report.read_text())
        redeos_ms, numpy_ms = _importtime(err)
        samples["process.import_redeos_ms"].append(redeos_ms)
        samples["process.import_numpy_ms"].append(numpy_ms)
        samples["process.main_ms"].append(data["main_ms"])
        samples["materials.builtin_parse_ms"].append(data["builtin_ms"])
    db = builtin_database()
    path = workdir / "probe.eosdb"
    save_ms, load_ms = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        save_material_db(path, db)
        t1 = time.perf_counter()
        loaded = load_material_db(path)
        t2 = time.perf_counter()
        save_ms.append((t1 - t0) * 1e3)
        load_ms.append((t2 - t1) * 1e3)
    tally.record("database round trip", None if len(loaded) == len(db) else "records lost")
    out = {k: (statistics.median(v) if v else float("nan"), len(v)) for k, v in samples.items()}
    out["materials.save_db_ms"] = (statistics.median(save_ms), len(save_ms))
    out["materials.load_db_ms"] = (statistics.median(load_ms), len(load_ms))
    return out


def per_layer(args, work, tally, workdir):
    deadline = time.perf_counter() + args.seconds
    measured = kernel_ns(work)
    measured.update(startup_profile(workdir, tally))
    work.untraced_pass(Tally())                           # warm-up
    plain, traced, layers, domain = [], [], [], []
    first = None
    while True:
        plain.append(work.untraced_pass(tally))
        elapsed, tracer, domain_rows = work.traced_pass(tally)
        traced.append(elapsed)
        layers.append(tracer.layer_metrics())
        domain.append(domain_rows)
        first = first or tracer
        if time.perf_counter() >= deadline:
            break
    for name in layers[0]:
        measured[name] = (statistics.median(m[name] for m in layers), len(layers))
    measured["cli.rows_domain_error"] = (domain[0], len(domain))
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    measured["trace.overhead_pct"] = (overhead * 100.0, len(traced))
    first.write(OUT / f"{args.workload}-seed{args.seed}.spans.csv.gz")
    return measured, LAYER_UNITS


# --- entry -----------------------------------------------------------------------

def _size(args):
    return "tiny" if args.tiny else "full"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "redeos" / "__init__.py").is_file():
        print(f"benchmark: no program to measure: {SRC / 'redeos'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        work = workloads.setup(args.workload, args.seed, _size(args), workdir)
        items, files = work.items()
        record = {"provenance": provenance(args, items, files)}
        if args.trace:
            measured, units = per_layer(args, work, tally, workdir)
        else:
            measured, units = end_to_end(args, work, tally)
    if "machine_speed" in measured:
        record["machine_speed"] = measured.pop("machine_speed")[0]

    record.update({
        "metrics": {name: {"value": value, "unit": units[name], "samples": n}
                    for name, (value, n) in sorted(measured.items())},
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1), "problems": tally.problems,
    })
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"benchmark {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}  (samples {m['samples']})")
    if "machine_speed" in record:
        print(f"  machine speed = {record['machine_speed']:.4g} x reference (times above are at the reference speed)")
    print(f"  error_rate = {record['error_rate']:g}  ({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print(f"record {result_path.relative_to(ROOT)}")
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in record["metrics"].items()}
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
