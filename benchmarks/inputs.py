"""Seeded inputs for the three benchmark workloads.

Every input is drawn from ``random.Random(seed)``; the program under test
sees only the generated values.  The sizes of each workload (cells per
family and input pair, commands per kind, grid points) are fixed, so a
second seed changes the values but never how much work a run does.

The ranges follow the paper's consumer: density 10-600 kg/m3 and
temperature 1500-4500 K.  Mixture cells use the pairs of NC-13, RDX and
HMX only: the built-in NG record has the opposite oxygen-balance sign and
its note forbids mixing it with the other built-ins.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

import reference as ref

SINGLE_MATERIALS = ("NC-13", "RDX", "NG", "HMX")
CVT_MATERIAL = "NC-13"
MIX_PAIRS = (("NC-13", "RDX"), ("NC-13", "HMX"), ("RDX", "HMX"))
RHO_RANGE = (10.0, 600.0)
T_RANGE = (1500.0, 4500.0)

FAMILIES = ("na", "vo1", "vo1cvt", "mna", "mvo1")

# Closure cells are generated per family, the same number for each: a
# solver runs one EOS family at a time, so the benchmark times single-family
# blocks and reports every figure per family.  The equal counts are
# arbitrary; no metric mixes families, so they weigh nothing.
CLOSURE_CELLS_PER_FAMILY = {"full": 2_000, "tiny": 50}
CLOSURE_BLOCK = {"full": 500, "tiny": 50}
CLOSURE_TRACE_CELLS_PER_FAMILY = {"full": 400, "tiny": 20}
# Input pairs of the single-gas cells, out of 20: mostly (rho, e), the
# pair a flow solver holds.
PAIR_SHARE = {"rho_e": 14, "rho_T": 3, "P_T": 3}


@dataclass(frozen=True)
class Cell:
    """One closure evaluation: ``op(arg, x, y)`` for a model family.

    ``op`` is ``rho_e``, ``rho_T``, ``P_T`` (single-gas state builders),
    ``mna`` or ``mvo1``.  ``arg`` is a GasParams or a MixtureSpec.  ``rho``
    and ``T`` are the generating state, known before the call.
    """

    family: str
    op: str
    arg: object
    x: float
    y: float
    rho: float
    T: float


@dataclass(frozen=True)
class Command:
    """One ``eos`` invocation with what its output is checked against."""

    family: str
    argv: tuple[str, ...]
    expect: dict


def _u(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


def _shares(total, shares):
    """Split ``total`` by integer shares, exactly."""
    weight = sum(shares.values())
    counts = {k: total * w // weight for k, w in shares.items()}
    first = next(iter(shares))
    counts[first] += total - sum(counts.values())
    return counts


def closure_cells(db, mixture_spec, seed, size="full"):
    """The closure pool, family by family; each family's cells are shuffled.

    Materials (or mixture pairs) and input pairs are mixed within a family,
    so every block of a family draws the same mix.  Counts depend on size only.
    """
    rng = random.Random(seed)
    cells = []
    count = CLOSURE_CELLS_PER_FAMILY[size]
    for family in FAMILIES:
        pool = []
        if family in ("na", "vo1", "vo1cvt"):
            for op, n in _shares(count, PAIR_SHARE).items():
                pool += [_single_cell(db, rng, family, op) for _ in range(n)]
        else:
            pool += [_mixture_cell(db, mixture_spec, rng, family) for _ in range(count)]
        rng.shuffle(pool)
        cells += pool
    return cells


def _single_cell(db, rng, family, op):
    name = CVT_MATERIAL if family == "vo1cvt" else rng.choice(SINGLE_MATERIALS)
    params = db.get(name, ref.MODEL_OF[family])
    rho = _u(rng, *RHO_RANGE)
    T = _u(rng, *T_RANGE)
    if op == "rho_e":
        x, y = rho, ref.energy(params, T)
    elif op == "rho_T":
        x, y = rho, T
    else:
        x, y = ref.pressure(params, rho, T), T
    return Cell(family, op, params, x, y, rho, T)


def _mixture_cell(db, mixture_spec, rng, family):
    model = ref.MODEL_OF[family]
    a, b = rng.choice(MIX_PAIRS)
    Y = _u(rng, 0.1, 0.9)
    mix = mixture_spec(((db.get(a, model), 1.0 - Y), (db.get(b, model), Y)),
                       oxygen_balance_declared_uniform=True)
    rho = _u(rng, *RHO_RANGE)
    T = _u(rng, *T_RANGE)
    e = ref.mix_energy(mix, T)
    return Cell(family, family, mix, 1.0 / rho if family == "mna" else rho, e, rho, T)


def _grid(lo, step, n):
    """LO:HI:STEP text giving exactly n points, and the points the CLI makes."""
    lo_v, step_v = float(lo), float(step)
    hi = lo_v + (n - 1) * step_v + 0.5 * step_v
    return f"{lo}:{hi!r}:{step}", [lo_v + k * step_v for k in range(n)]


def _na_grid(rng, params, n):
    """A density grid from ~10 kg/m3 to ~1.05/b: the tail rows are E_DOMAIN."""
    lo = f"{_u(rng, 10.0, 11.0):.2f}"
    step = f"{(1.05 / params.b - float(lo)) / (n - 1):.4f}"
    return _grid(lo, step, n)


CLI_GRID_SIZES = {
    "full": {"sweep": 600, "fractions": 20, "densities": 20, "audit": None},
    "tiny": {"sweep": 30, "fractions": 4, "densities": 4, "audit": ("50:600:275", "1500:4500:1500")},
}


def cli_grid_commands(db, seed, size="full"):
    """One round of in-process grid commands at real CLI sizes."""
    rng = random.Random(seed)
    sz = CLI_GRID_SIZES[size]
    n = sz["sweep"]
    cmds = []

    name = rng.choice(SINGLE_MATERIALS)
    text, rhos = _na_grid(rng, db.get(name, ref.MODEL_OF["na"]), n)
    cmds.append(_sweep_command(db, "na", name, text, rhos))
    name = rng.choice(SINGLE_MATERIALS)
    text, rhos = _grid(f"{_u(rng, 10.0, 11.0):.2f}", "1", n)
    cmds.append(_sweep_command(db, "vo1", name, text, rhos))
    text, rhos = _grid(f"{_u(rng, 10.0, 11.0):.2f}", "1", n)
    cmds.append(_sweep_command(db, "vo1cvt", CVT_MATERIAL, text, rhos))

    for family in ("mna", "mvo1"):
        pair = rng.choice(MIX_PAIRS)
        text, ys = _grid(f"{_u(rng, 0.05, 0.06):.4f}", "0.045", sz["fractions"])
        r0 = _u(rng, 10.0, 20.0)
        rhos = [float(f"{r0 + 30.0 * k:.3f}") for k in range(sz["densities"])]
        cmds.append(_mix_command(db, family, pair, ys, rhos, fraction_sweep=text))

    for family in ("na", "vo1", "vo1cvt"):
        name = CVT_MATERIAL if family == "vo1cvt" else rng.choice(SINGLE_MATERIALS)
        cmds.append(_audit_command(db, family, name, sz["audit"]))
    return cmds


def _sweep_command(db, family, name, text, rhos):
    argv = ("sweep", name, "--model", family, "--rho", text)
    return Command(family, argv, {"kind": "sweep", "params": db.get(name, ref.MODEL_OF[family]), "rhos": rhos})


def _mix_command(db, family, pair, ys, rhos, fraction_sweep=None):
    model = ref.MODEL_OF[family]
    gases = [db.get(name, model) for name in pair]
    if fraction_sweep is not None:
        spec = "+".join(pair)
        fraction_sets = [(1.0 - y, y) for y in ys]
    else:
        (y,) = ys
        spec = f"{pair[0]}={1.0 - y!r},{pair[1]}={y!r}"
        fraction_sets = [(1.0 - y, y)]
    argv = ["mix-sweep", spec, "--model", family, "--rho", ",".join(repr(r) for r in rhos)]
    if fraction_sweep is not None:
        argv += ["--fraction-sweep", fraction_sweep]
    argv.append("--same-oxygen-balance")
    return Command(family, tuple(argv), {"kind": "mix", "gases": gases,
                                         "fraction_sets": fraction_sets, "rhos": rhos})


def _audit_command(db, family, name, grid):
    argv = ["audit", name, "--model", family]
    rho_text, T_text = grid or ("10:600:50", "1500:4500:250")
    if grid:
        argv += ["--rho", rho_text, "--T", T_text]
    return Command(family, tuple(argv), {"kind": "audit", "params": db.get(name, ref.MODEL_OF[family]),
                                         "rho": rho_text, "T": T_text})


def cli_process_commands(db, seed, workdir, size="full"):
    """The acceptance-criterion-11 command set, seeded, writing its input files.

    The commands run in ``workdir``: the CSV files they read are written
    there, and the calibrate commands write ``bench.eosdb`` there.
    """
    rng = random.Random(seed)
    db_path = "bench.eosdb"
    cmds = []

    # two-point calibrations from points generated by the NA and VO1 records
    name = rng.choice(SINGLE_MATERIALS)
    calibrated = {}
    for family in ("na", "vo1"):
        params = db.get(name, ref.MODEL_OF[family])
        points = []
        for rho in (_u(rng, 95.0, 105.0), _u(rng, 145.0, 155.0)):
            rho = float(f"{rho:.3f}")
            points.append((rho, float(f"{ref.pressure(params, rho, params.T_flame) / 1e6:.10g}")))
        path = f"{family}_points.csv"
        (workdir / path).write_text("rho_kg_m3,pmax_MPa\n" + "".join(f"{r!r},{p!r}\n" for r, p in points))
        gamma = params.gamma_cal
        bench_name = f"BENCH-{family.upper()}"
        calibrated[family] = ref.calibrate(family, points, params.T_flame, gamma, bench_name)
        argv = ("calibrate", family, "--points", path, "--tflame", repr(params.T_flame),
                "--gamma", repr(gamma), "--name", bench_name, "--db", db_path)
        cmds.append(Command(family, argv, {"kind": "calibrate", "params": calibrated[family],
                                           "db": db_path}))

    # Cv(T) fit from argon-diluted runs made with the closed-form forward model
    cvt = db.get(CVT_MATERIAL, ref.MODEL_OF["vo1cvt"])
    runs, e_s_i = ref.dilution_runs(cvt, y0=_u(rng, 0.14, 0.15), n=35)
    (workdir / "runs.csv").write_text("Y,tflame_K\n" + "".join(f"{y!r},{t!r}\n" for y, t in runs))
    es_text = f"{e_s_i / 1e3:.10g}"
    cmds.append(Command("vo1cvt", ("calibrate-cvt", "--runs", "runs.csv", "--inert", "argon",
                                   "--es-i", es_text),
                        {"kind": "calibrate-cvt", "fit": ref.lsq_fit(runs, float(es_text) * 1e3),
                         "runs": len(runs)}))

    # state: 3 models x 3 input pairs; the NA (rho, T) one reads the written --db
    for family in ("na", "vo1", "vo1cvt"):
        for pair in ("rho_T", "P_T", "rho_e"):
            if family == "na" and pair == "rho_T":
                cmds.append(_state_command(rng, family, pair, "BENCH-NA", calibrated["na"], db_path))
                continue
            name = CVT_MATERIAL if family == "vo1cvt" else rng.choice(SINGLE_MATERIALS)
            cmds.append(_state_command(rng, family, pair, name, db.get(name, ref.MODEL_OF[family])))

    # small grid commands
    name = rng.choice(SINGLE_MATERIALS)
    lo = f"{_u(rng, 100.0, 110.0):.1f}"
    step = f"{(1.05 / db.get(name, ref.MODEL_OF['na']).b - float(lo)) / 6:.3f}"
    cmds.append(_sweep_command(db, "na", name, *_grid(lo, step, 7)))
    name = rng.choice(SINGLE_MATERIALS)
    cmds.append(_sweep_command(db, "vo1", name, *_grid(f"{_u(rng, 100.0, 110.0):.1f}", "50", 7)))
    cmds.append(_sweep_command(db, "vo1cvt", CVT_MATERIAL, *_grid(f"{_u(rng, 100.0, 110.0):.1f}", "50", 3)))
    for family in ("mna", "mvo1"):
        pair = rng.choice(MIX_PAIRS)
        text, ys = _grid(f"{_u(rng, 0.0, 0.05):.3f}", "0.1", 6 if family == "mna" else 3)
        rhos = [float(f"{_u(rng, 100.0, 400.0):.2f}") for _ in range(3 if family == "mna" else 1)]
        cmds.append(_mix_command(db, family, pair, ys, rhos, fraction_sweep=text))
        for _ in range(2):
            pair = rng.choice(MIX_PAIRS)
            y = float(f"{_u(rng, 0.1, 0.9):.3f}")
            cmds.append(_mix_command(db, family, pair, [y], [float(f"{_u(rng, 100.0, 400.0):.2f}")]))
    name = rng.choice(SINGLE_MATERIALS)
    cmds.append(_audit_command(db, "vo1", name, ("50:600:275", "1500:4500:1500")))

    if size == "tiny":
        keep = {0, 3, 9, 12, 15, 18, 21}   # one or two commands of every family
        cmds = [c for k, c in enumerate(cmds) if k in keep]
    return cmds


def _state_command(rng, family, pair, name, params, db_path=None):
    rho = float(f"{_u(rng, *RHO_RANGE):.2f}")
    T = float(f"{_u(rng, *T_RANGE):.1f}")
    if pair == "rho_T":
        flags = ["--rho", repr(rho), "--T", repr(T)]
    elif pair == "P_T":
        P_text = f"{ref.pressure(params, rho, T) / 1e6:.6g}"
        flags = ["--P", P_text, "--T", repr(T)]
        rho = None
    else:
        e_text = f"{ref.energy(params, T) / 1e3:.10g}"
        flags = ["--rho", repr(rho), "--e", e_text]
        T = ref.temperature(params, float(e_text) * 1e3)
    argv = ["state", name, "--model", family, *flags]
    if db_path:
        argv += ["--db", db_path]
    expect = {"kind": "state", "params": params, "rho": rho, "T": T}
    if pair == "P_T":
        expect["P"] = float(P_text) * 1e6
    return Command(family, tuple(argv), expect)


# --- seed checks -------------------------------------------------------------

def _canon(value):
    """JSON-able canonical form of generated inputs (floats by repr)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if hasattr(value, "components"):         # MixtureSpec
        return [[g.name, str(g.model), repr(y)] for g, y in value.components]
    if hasattr(value, "model"):              # GasParams
        return [value.name, str(value.model)]
    if isinstance(value, (Cell, Command)):
        return _canon(value.__dict__)
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def digest(items, files=()):
    """SHA-256 over the canonical inputs and the contents of written files."""
    h = hashlib.sha256(json.dumps(_canon(list(items))).encode())
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def sizes(items):
    """How much work the inputs hold, independent of their values."""
    out = {}
    for item in items:
        if isinstance(item, Cell):
            key = f"{item.family}.{item.op}"
            out[key] = out.get(key, 0) + 1
        else:
            e = item.expect
            n = (len(e["rhos"]) * len(e["fraction_sets"]) if e["kind"] == "mix"
                 else len(e.get("rhos", ())) or 1)
            key = f"{item.family}.{e['kind']}"
            out[key] = out.get(key, 0) + n
    return out
