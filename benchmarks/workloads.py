"""The three workloads: set-up, the measured loop, and the traced pass.

All load comes from one process and one thread, in a closed loop: the
next call starts when the previous one returns, which is how a solver or a
shell script calls the library.  ``cli-process`` runs at most one ``eos``
child at a time.

Operations, the unit of the latency percentiles and of ``attempted``:

* closure: one cell, i.e. one state (P, T, c) from a state builder or a
  mixture pressure solve plus its sound speed;
* cli-grid: one in-process ``cli.main(argv)`` grid command;
* cli-process: one ``eos`` subprocess, from spawn to exit.

Every end-to-end figure but set-up time and peak RSS is per model family,
since a solver runs one family at a time and the families' costs differ by
an order of magnitude.  Family throughput (``<family>_per_s``) counts, per
second of the family's own call time: states on closure, grid points
(sweep and mix-sweep rows, audit points) on cli-grid, and commands on
cli-process.  It is the median over single-family blocks of 500 cells
(closure), over rounds of the command list (cli-grid), or over commands
(cli-process).  Family tail latency (``<family>_ms_p90``) is a 90th
percentile over the family's inputs and a median over time: on closure the
p90 of the cell times in each block, then the median over blocks; on
cli-grid and cli-process the p90 over the family's commands of each
command's median time.  A tail over time alone would be set by the host's
stalls, not by the program.

The host's speed drifts by up to ~50% over minutes as other tenants load
its cores (on a 2-vCPU Xeon VM).  So every workload times a fixed
calibration close to each block, command or spawn and reports its times at
the reference speed, ``time * reference / calibration``; the record keeps
the measured speed.  In process the calibration is a unit of plain-Python
arithmetic, timed after each block or command.  For spawns it is an
interpreter start that imports numpy, the program's one heavy dependency: a
set-up probe is scaled by one timed right after it, and on cli-process one
is timed after every third command and an ``eos`` command takes the median
of the five nearest to it, about five seconds of the run.  A bare
``python -c pass`` missed slow spells in which an ``eos`` start slowed by
a third and the bare start did not.  Neither calibration touches the
program, so no change to the program can move them.

The traced pass runs a fixed amount of work (the first cells of the pool,
or one round of the command list), so its counts repeat exactly for a
given seed and program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import inputs
import reference as ref
from tracing import Tracer, quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 60.0

FAMILIES = inputs.FAMILIES
KERNELS = ("vo1_pressure", "na_pressure_vt", "cvt_temperature")


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problem}")


def peak_rss_mb(usage):
    return usage.ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux


_CAL_RNG = random.Random(0)
_CAL_CELLS = [(10.0 + 590.0 * _CAL_RNG.random(), 1500.0 + 3000.0 * _CAL_RNG.random(),
               300.0 + 50.0 * _CAL_RNG.random(), 0.0014 + 1e-4 * _CAL_RNG.random(),
               1600.0 + 50.0 * _CAL_RNG.random()) for _ in range(200)]
# about the median of calibration_ns() on the 2.1 GHz Xeon VM the benchmark
# was defined on, so reported times stay close to that machine's wall times
CAL_REF_NS = 700_000


def calibration_ns():
    """Time one fixed unit of plain-Python EOS arithmetic and CSV round trips.

    It touches no object of the program, so no change to the program can
    move it; only the speed of the machine does.
    """
    t0 = time.perf_counter_ns()
    rows = []
    for rho, T, R, b, Cv in _CAL_CELLS:
        P = R * T / (1.0 / rho - b)
        c = math.sqrt((1.0 + R / Cv) * P / rho / (1.0 - rho * b))
        rows.append(f"{P / 1e6:.10g},{c:.10g},{rho * R * T * (1.0 + b * rho):.10g}")
    [float(x) for row in rows for x in row.split(",")]
    return time.perf_counter_ns() - t0


def _summary(rates, tails_ms, rss_mb, rss_samples, speeds):
    """End-to-end metrics as {name: (value, samples)}, plus the machine speed.

    ``tails_ms`` maps each family to its (p90 ms, samples).
    """
    out = {}
    for f in FAMILIES:
        out[f"{f}_per_s"] = (statistics.median(rates[f]), len(rates[f]))
        out[f"{f}_ms_p90"] = tails_ms[f]
    out["peak_rss_mb"] = (rss_mb, rss_samples)
    out["machine_speed"] = (statistics.median(speeds), len(speeds))
    return out


def _tails(commands, times_ms):
    """Each family's p90 over its commands of each command's median time."""
    typical = {f: [] for f in FAMILIES}
    samples = dict.fromkeys(FAMILIES, 0)
    for cmd, times in zip(commands, times_ms):
        if times:
            typical[cmd.family].append(statistics.median(times))
            samples[cmd.family] += len(times)
    return {f: (quantile(v, 0.90), samples[f]) for f, v in typical.items()}


class InProcess:
    """A workload run inside this process; ``_pass`` is its traced unit of work."""

    def _pass(self, tally, tracer=None):
        """Run the fixed traced work; return the number of E_DOMAIN rows."""
        raise NotImplementedError

    def untraced_pass(self, tally):
        t0 = time.perf_counter_ns()
        self._pass(tally)
        return time.perf_counter_ns() - t0

    def traced_pass(self, tally):
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter_ns()
            domain_rows = self._pass(tally, tracer)
            elapsed = time.perf_counter_ns() - t0
        finally:
            tracer.uninstall()
        return elapsed, tracer, domain_rows


# --- closure -------------------------------------------------------------------

class Closure(InProcess):
    """Seeded cells through the state builders and mixture solvers."""

    def __init__(self, seed, size, workdir):
        import redeos
        self.redeos = redeos
        db = redeos.builtin_database()
        self.cells = inputs.closure_cells(db, redeos.MixtureSpec, seed, size)
        by_family = {f: [c for c in self.cells if c.family == f] for f in FAMILIES}
        n = inputs.CLOSURE_BLOCK[size]
        chunks = [[cells[i:i + n] for i in range(0, len(cells), n)] for cells in by_family.values()]
        # single-family blocks, the families taken in turn so that drift hits all alike
        self.blocks = [block for turn in zip(*chunks) for block in turn]
        n = inputs.CLOSURE_TRACE_CELLS_PER_FAMILY[size]
        self.trace_cells = [c for cells in by_family.values() for c in cells[:n]]

    def items(self):
        return self.cells, ()

    def _ops(self):
        """The operations, looked up now so that installed wrappers are seen."""
        r = self.redeos
        mna_p, mna_c = r.mna_pressure, r.mna_sound_speed
        mvo1_pe, mvo1_c = r.mvo1_pressure_from_energy, r.mvo1_sound_speed

        def mna(mix, v, e):
            st = mna_p(mix, v, e)
            return st, mna_c(mix, st.P, v)

        def mvo1(mix, rho, e):
            sol = mvo1_pe(mix, rho, e)
            return sol, mvo1_c(mix, sol.P, sol.T)

        return {"rho_e": r.state_from_rho_e, "rho_T": r.state_from_rho_T, "P_T": r.state_from_P_T,
                "mna": mna, "mvo1": mvo1}

    def _run(self, cells, tally, on_call=None, tracer=None):
        ops = self._ops()
        clock = time.perf_counter_ns
        for k, cell in enumerate(cells):
            if tracer is not None:
                tracer.op_id = k
            fn = ops[cell.op]
            try:
                t0 = clock()
                out = fn(cell.arg, cell.x, cell.y)
                t1 = clock()
            except Exception as exc:  # a failed operation is counted, not fatal
                tally.record(f"cell {cell.family}/{cell.op}", f"{type(exc).__name__}: {exc}")
                continue
            tally.record(f"cell {cell.family}/{cell.op}", ref.check_cell(cell, out))
            if on_call is not None:
                on_call(t1 - t0)

    def _pass(self, tally, tracer=None):
        self._run(self.trace_cells, tally, tracer=tracer)
        return 0

    def measure(self, seconds, tally):
        self._run(self.cells, Tally())                   # warm-up
        # a few numbers per block, so memory does not grow with the cell count
        rates = {f: array("d") for f in FAMILIES}
        tails = {f: array("d") for f in FAMILIES}
        speeds = array("d")
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for block in self.blocks:
                times = []
                self._run(block, tally, times.append)
                slowdown = calibration_ns() / CAL_REF_NS
                speeds.append(1.0 / slowdown)
                if times:
                    family = block[0].family
                    rates[family].append(len(times) * 1e9 * slowdown / sum(times))
                    tails[family].append(quantile(times, 0.90) / slowdown / 1e6)
        rss = peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF))
        tails_ms = {f: (statistics.median(v), len(v)) for f, v in tails.items()}
        return _summary(rates, tails_ms, rss, 1, speeds)

    def kernel_args(self):
        args = {k: [] for k in KERNELS}
        for cell in self.cells:
            if cell.family == "na":
                args["na_pressure_vt"].append((cell.arg, 1.0 / cell.rho, cell.T))
            elif cell.family == "vo1":
                args["vo1_pressure"].append((cell.arg, cell.rho, cell.T))
            elif cell.family == "vo1cvt":
                args["cvt_temperature"].append((cell.arg, ref.energy(cell.arg, cell.T)))
        return args


# --- commands, shared by cli-grid and cli-process ------------------------------

def _command_kernel_args(commands):
    """Kernel arguments at the (rho, T) points the commands evaluate."""
    args = {k: [] for k in KERNELS}
    for cmd in commands:
        e = cmd.expect
        if e["kind"] == "sweep":
            points = [(r, ref.flame_temperature(e["params"])) for r in e["rhos"]]
        elif e["kind"] == "audit":
            points = [(r, T) for r in ref.cli_range(e["rho"]) for T in ref.cli_range(e["T"])]
        elif e["kind"] == "state":
            T = e["T"]
            points = [(e["rho"] if e["rho"] is not None else ref.density(e["params"], e["P"], T), T)]
        else:
            continue
        params = e["params"]
        model = str(params.model)
        for rho, T in points:
            if model == "NA" and ref.na_in_domain(params, rho):
                args["na_pressure_vt"].append((params, 1.0 / rho, T))
            elif model == "VO1":
                args["vo1_pressure"].append((params, rho, T))
            elif model == "VO1_CVT":
                args["cvt_temperature"].append((params, ref.energy(params, T)))
    return args


def _label(cmd):
    return " ".join(cmd.argv[:4])


class CliGrid(InProcess):
    """Grid commands through ``cli.main(argv)`` with stdout captured in memory."""

    def __init__(self, seed, size, workdir):
        import redeos
        import redeos.cli
        self.cli = redeos.cli
        self.commands = inputs.cli_grid_commands(redeos.builtin_database(), seed, size)

    def items(self):
        return self.commands, ()

    def _run(self, cmd, tally):
        """Run one command; returns (seconds, items, domain rows) or None on failure."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                t0 = time.perf_counter_ns()
                code = self.cli.main(list(cmd.argv))
                t1 = time.perf_counter_ns()
            except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
                tally.record(_label(cmd), f"{type(exc).__name__}: {exc}")
                return None
        problem, items, domain = ref.check_command(cmd, code, out.getvalue(), err.getvalue())
        tally.record(_label(cmd), problem)
        return (t1 - t0) / 1e9, items, domain

    def _round(self, tally, tracer=None):
        results = []
        for k, cmd in enumerate(self.commands):
            if tracer is not None:
                tracer.op_id = k
            results.append((cmd, self._run(cmd, tally)))
        return results

    def _pass(self, tally, tracer=None):
        return sum(res[2] for _cmd, res in self._round(tally, tracer) if res is not None)

    def measure(self, seconds, tally):
        self._round(Tally())                              # warm-up
        rates = {f: array("d") for f in FAMILIES}
        latencies = [array("d") for _ in self.commands]
        speeds = array("d")
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            secs = dict.fromkeys(FAMILIES, 0.0)
            items = dict.fromkeys(FAMILIES, 0)
            for cmd, times in zip(self.commands, latencies):
                res = self._run(cmd, tally)
                slowdown = calibration_ns() / CAL_REF_NS
                speeds.append(1.0 / slowdown)
                if res is not None:
                    secs[cmd.family] += res[0] / slowdown
                    items[cmd.family] += res[1]
                    times.append(res[0] / slowdown * 1e3)
            for f in FAMILIES:
                if secs[f] > 0.0:
                    rates[f].append(items[f] / secs[f])
        rss = peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF))
        return _summary(rates, _tails(self.commands, latencies), rss, 1, speeds)

    def kernel_args(self):
        return _command_kernel_args(self.commands)


# --- cli-process -----------------------------------------------------------------

def spawn(args, cwd=ROOT, timeout=CHILD_TIMEOUT_S):
    """Run a child to exit: (exit code, stdout, stderr, wall seconds).

    The child imports the program from ``src``.  The wall time runs from
    spawn to exit.  A child that outlives the timeout is killed and
    reported with exit code None.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(args, capture_output=True, text=True, errors="replace",
                              env=env, cwd=cwd, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", "", time.perf_counter() - t0
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


ENTRY = [sys.executable, "-c", "from redeos.cli import entry; entry()"]
CAL_SPAWN = [sys.executable, "-c", "import numpy"]
# about the median of a CAL_SPAWN on the machine the benchmark was defined on
CAL_SPAWN_REF_S = 0.140
# commands between two calibration spawns on cli-process
CAL_EVERY = 3


def spawn_slowdown(cwd=ROOT):
    """The machine's slowdown against the reference, from one calibration spawn."""
    code, _out, err, wall = spawn(CAL_SPAWN, cwd=cwd)
    if code != 0:
        raise RuntimeError(f"calibration spawn failed: {err.strip()[-200:]}")
    return wall / CAL_SPAWN_REF_S


class CliProcess:
    """A fresh ``eos`` process per command, run in the work directory that holds its files."""

    def __init__(self, seed, size, workdir):
        import redeos
        self.workdir = workdir
        self.commands = inputs.cli_process_commands(redeos.builtin_database(), seed, workdir, size)
        self.files = sorted(workdir.glob("*.csv"))

    def items(self):
        return self.commands, self.files

    def _run(self, cmd, tally, prefix):
        code, out, err, wall = spawn([*prefix, *cmd.argv], cwd=self.workdir)
        if code is None:
            tally.record(_label(cmd), f"timed out after {wall:.1f} s")
            return None
        problem, _items, domain = ref.check_command(cmd, code, out, err)
        tally.record(_label(cmd), problem)
        return wall, domain

    def measure(self, seconds, tally):
        for cmd in self.commands[:2]:                     # warm-up: caches, the --db file
            self._run(cmd, Tally(), ENTRY)
        runs = []                                         # (command index, wall s, next calibration)
        slowdowns = []
        deadline = time.perf_counter() + seconds
        k = 0
        while k < len(self.commands) or time.perf_counter() < deadline:   # at least one round
            i = k % len(self.commands)
            res = self._run(self.commands[i], tally, ENTRY)
            k += 1
            if res is not None:
                runs.append((i, res[0], len(slowdowns)))
            if k % CAL_EVERY == 0:
                slowdowns.append(spawn_slowdown(self.workdir))
        slowdowns.append(spawn_slowdown(self.workdir))
        # the largest child reaped so far: an eos command, as the calibration spawns are smaller
        rss = peak_rss_mb(resource.getrusage(resource.RUSAGE_CHILDREN))

        rates = {f: [] for f in FAMILIES}
        latencies = [[] for _ in self.commands]
        for i, wall, c in runs:
            slowdown = statistics.median(slowdowns[max(0, c - 2):c + 3])
            rates[self.commands[i].family].append(slowdown / wall)
            latencies[i].append(wall / slowdown * 1e3)
        speeds = [1.0 / s for s in slowdowns]
        return _summary(rates, _tails(self.commands, latencies), rss, k, speeds)

    def untraced_pass(self, tally):
        t0 = time.perf_counter_ns()
        for cmd in self.commands:
            self._run(cmd, tally, ENTRY)
        return time.perf_counter_ns() - t0

    def traced_pass(self, tally):
        """Each command under the benchmark's child script, which traces inside the child."""
        tracer = Tracer()
        domain_rows = 0
        t0 = time.perf_counter_ns()
        for k, cmd in enumerate(self.commands):
            report = self.workdir / f"child-{k}.json"
            res = self._run(cmd, tally, [sys.executable, str(CHILD), "run", str(report), "1"])
            if res is None or not report.exists():
                continue
            domain_rows += res[1]
            tracer.merge(json.loads(report.read_text())["trace"], k)
            report.unlink()
        return time.perf_counter_ns() - t0, tracer, domain_rows

    def kernel_args(self):
        return _command_kernel_args(self.commands)


WORKLOADS = {"closure": Closure, "cli-grid": CliGrid, "cli-process": CliProcess}


def setup(name, seed, size, workdir):
    """Import the program, load its database and generate the inputs."""
    return WORKLOADS[name](seed, size, Path(workdir))
