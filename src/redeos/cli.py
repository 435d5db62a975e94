"""Command-line interface.

Human-facing units follow the usual closed-bomb tables: MPa, kJ/kg, K and
kg/m3.  This layer converts command-line values to the library's SI units and
printed results back; `materials` converts file values (`q_kJ`, `e_s_eff_kJ`,
`pmax_MPa`).  All numeric output is printed with 10 significant digits, '.' as
the decimal separator and newline line endings, so identical inputs give
byte-identical output.

A failure prints one `E_*` line and exits as `redeos.errors` sets for its class,
an unopenable path as a `ParseError`, a bare `ArithmeticError` or `ValueError`
as a `NumericalError`.  A stdout whose reader stops early (a pipe into `head`)
ends the command quietly with exit 0: no `E_*` line, no traceback.

A number flag not finite as typed or in SI units is refused, naming the
flag, before any command runs.  A command imports the library modules it
runs when it starts, so `state` never loads `calibration`, `mixture` or
`numerics`.  A sweep row is one closure call: `sweep` binds the record's
`closure_for` once and calls it at the record's flame energy q + e_s_eff,
which gives the flame temperature bit for bit; `mix-sweep` does the same with
the mixed record for MNA, once per fraction set, and calls the virial-mixture
closure at the flame temperature for MVO1.  A flame that is not finite ends
the command with an `E_NUMERICAL` line naming the record, which alone sets it.
Every ``cmd_*`` returns its output lines, header and rows, with its exit code
and prints nothing; ``main`` writes those lines with one `print` after the
command returns, so a refusal at any step leaves stdout empty.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from . import __version__
from .errors import DomainError, EosError, NumericalError, ParseError, ValidationError
from .materials import (
    INERT_GASES,
    MaterialDatabase,
    builtin_database,
    load_closed_bomb_csv,
    load_inert_runs_csv,
    load_material_db,
    save_material_db,
)
from .state import closure_for, state_from_P_T, state_from_rho_T, state_from_rho_e
from .types import MODEL_FIELDS, GasParams, MixtureSpec, Model
from .virial_cvt import _flame_energy, _flame_temperature, cvt_effective_energy

_MODEL_FLAGS = {"na": Model.NA, "vo1": Model.VO1, "vo1cvt": Model.VO1_CVT}

#: Options that carry the numbers a command evaluates, named by a floating-point failure;
#: ``main`` refuses a float-typed one that is not finite, also once converted by ``_SI_FACTORS``.
_NUMERIC_OPTIONS = ("rho", "P", "T", "e", "fraction_sweep", "tflame", "gamma", "es_i", "t0")
_SI_FACTORS = {"P": 1e6, "e": 1e3, "es_i": 1e3}  # MPa and kJ/kg

_AUDIT_LABELS = ("maxwell max|res|/P", "sound-speed max|c_analytic - c_oracle|/c",
                 "oracle-forms max disagreement")


#: Arguments that argparse must take as values, not options: -1e3, -.5, -10:600:50, -inf.
_NUMBER_LIKE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

#: Most points one LO:HI:STEP grid, an audit's rho x T grid or a mix-sweep table may hold.
MAX_GRID_POINTS = 10_000


def _fmt(x):
    """The one formatter of printed numbers; nothing non-finite is printed, nor reads back so."""
    if abs(x) < 1.79769313e308:  # finite, and too far below the float maximum for 10 digits to round past it
        return format(x, ".10g")
    if not math.isfinite(x):
        raise NumericalError(f"result is not finite ({x!r})")
    text = format(x, ".10g")
    return repr(x) if math.isinf(float(text)) else text


class _FlameError(NumericalError):
    """A flame temperature that is not finite; named by the record, not by the command's numbers."""


def _flame(find, source, record):
    """``find(source)``, a flame temperature, and its printed text; a flame that is not finite
    ends the command naming the record, ``record()``, which alone sets it."""
    try:
        T_flame = find(source)
        return T_flame, _fmt(T_flame)
    except NumericalError:
        raise _FlameError(f"floating-point evaluation failed at the flame temperature of {record()}") from None


def _load_db(path):
    return builtin_database() if path is None else load_material_db(path)


def _record(args):
    """The record that ``sweep``, ``audit`` and ``state`` name by MATERIAL, --model and --db."""
    return _load_db(args.db).get(args.material, _MODEL_FLAGS[args.model])


def _require_convex_record(params):
    """Prediction commands refuse non-convex records; only `audit` probes them."""
    if params.a is not None and params.a < 0.0:
        raise ValidationError(
            f"record {params.name!r} has a negative virial coefficient; "
            "only the audit command accepts non-convex records")


def _parse_range(text):
    """LO:HI:STEP inclusive of HI when it lands on the grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"range must be LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"range bounds must be numbers, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ValidationError(f"range bounds and step must be finite, got {text!r}")
    if step <= 0.0 or hi < lo:
        raise ValidationError(f"range needs step > 0 and hi >= lo, got {text!r}")
    # count by index: at large magnitudes lo + k*step need not advance.  HI
    # counts as on the grid within rounding of the larger bound, never more
    # than half a step, whatever the sign of the bounds
    slack = min(0.5, 1e-12 * (max(abs(lo), abs(hi)) + 1.0) / step)
    last = (hi - lo) / step + slack
    if not last < MAX_GRID_POINTS:
        raise ValidationError(f"range {text!r} holds more than {MAX_GRID_POINTS} points")
    return [lo + k * step for k in range(math.floor(last) + 1)]


def _parse_float_list(text):
    """The numbers of the comma-separated --rho list, each finite."""
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValidationError(f"expected a comma-separated list of numbers, got {text!r}") from None
    if not values:
        raise ValidationError(f"--rho needs at least one density, got {text!r}")
    for value in values:
        if not math.isfinite(value):
            raise ValidationError(f"--rho must be finite, got {value!r}")
    return values


def _load_existing(path):
    """The database in ``path``, or None when there is no such file."""
    try:
        return load_material_db(path)
    except FileNotFoundError:
        return None


def _save_record(path, db, params, note):
    """Add ``params`` to ``db`` (new when None), write it to ``path`` and return the line reporting it."""
    db = MaterialDatabase.empty() if db is None else db
    db.add(params, note=note)
    save_material_db(path, db)
    return f"saved to {path}"

def cmd_calibrate(args):
    from .calibration import calibrate_na, calibrate_vo1

    points = load_closed_bomb_csv(args.points)
    if len(points) != 2:
        raise ValidationError(f"exactly two points required, got {len(points)}")
    name = args.name or "calibrated"
    fn = calibrate_na if args.model == "na" else calibrate_vo1
    params = fn(points[0], points[1], args.tflame, args.gamma, name=name)
    thermal = MODEL_FIELDS[params.model][0]  # b or a
    lines = [f"material {params.name} model {params.model}",
             f"Cv (J/kg/K) = {_fmt(params.Cv)}",
             f"R (J/kg/K) = {_fmt(params.R)}",
             f"e_s_eff (kJ/kg) = {_fmt(params.e_s_eff / 1e3)}",
             f"{thermal} (m3/kg) = {_fmt(getattr(params, thermal))}",
             f"T_flame (K) = {_fmt(params.T_flame)}",
             f"gamma = {params.gamma_cal!r}",  # as given, exactly: 10 digits could round it onto 1
             f"rho_range (kg/m3) = {_fmt(params.rho_range[0])} {_fmt(params.rho_range[1])}"]
    if args.db:
        lines.append(_save_record(args.db, _load_existing(args.db), params, f"calibrated from {args.points}"))
    return lines, 0


def cmd_calibrate_cvt(args):
    from .calibration import calibrate_cvt

    runs = load_inert_runs_csv(args.runs)
    inert = INERT_GASES[args.inert]
    fit = calibrate_cvt(runs, inert, args.es_i * 1e3, T0=args.t0)
    lines = [f"runs = {len(runs)} inert = {inert.name}",
             f"Cv0 (J/kg/K) = {_fmt(fit.Cv0)}",
             f"c (J/kg/K2) = {_fmt(fit.c)}",
             f"q (kJ/kg) = {_fmt(fit.q / 1e3)}",
             f"residual norm (kJ/kg) = {_fmt(fit.residual_norm / 1e3)}",
             f"condition = {_fmt(fit.condition)}"]
    if args.db:
        if not (args.name and args.base):
            raise ValidationError("--db requires --name and --base (a VO1 record supplying R, a)")
        out_db = _load_existing(args.db)
        base_source = out_db if args.base_db is None and out_db is not None else _load_db(args.base_db)
        base = base_source.get(args.base, Model.VO1)
        tflame = args.tflame if args.tflame is not None else base.T_flame
        if tflame is None:
            raise ValidationError("no flame temperature available; pass --tflame")
        record = functools.partial(GasParams.virial_cvt, args.name, R=base.R, a=base.a, Cv0=fit.Cv0, c=fit.c,
                                   q=fit.q, T_flame=tflame, rho_range=base.rho_range)
        params = record(e_s_eff=cvt_effective_energy(record(), tflame))  # the caloric law's own expression
        lines.append(_save_record(args.db, out_db, params, f"Cv(T) fit from {args.runs} with inert {inert.name}"))
    return lines, 0


def cmd_sweep(args):
    params = _record(args)
    _require_convex_record(params)
    _, flame = _flame(_flame_temperature, params, lambda: args.material)
    closure, e_flame = closure_for(params), _flame_energy(params)
    densities = _parse_range(args.rho)
    reference = {p.rho_load: p.P_max for p in load_closed_bomb_csv(args.reference)} if args.reference else {}
    lo, hi = params.rho_range or (-math.inf, math.inf)

    lines = ["rho_kg_m3,tflame_K,pmax_MPa,extrapolated,c_m_s" + (",pref_MPa" if reference else "")]
    had_domain_error = False
    for rho in densities:
        try:
            P, _, c = closure(rho, e_flame)
            row = [_fmt(rho), flame, _fmt(P / 1e6), "0" if lo <= rho <= hi else "1", _fmt(c)]
        except DomainError:
            had_domain_error = True
            row = [_fmt(rho), "", "", DomainError.tag, ""]
        if reference:
            match = [p for r, p in reference.items() if abs(r - rho) <= 1e-9 * max(1.0, rho)]
            row.append(_fmt(match[0] / 1e6) if match else "")
        lines.append(",".join(row))
    return lines, DomainError.exit_code if had_domain_error else 0


def _parse_mixture_spec(spec, sweep_arg):
    if "=" in spec:
        if sweep_arg is not None:
            raise ValidationError(f"--fraction-sweep needs an A+B mixture spec, got fixed fractions {spec!r}")
        names, fractions = [], []
        for part in spec.split(","):
            name, _, value = part.partition("=")
            if not value:
                raise ValidationError(f"malformed mixture component {part!r}; use NAME=FRACTION")
            names.append(name.strip())
            try:
                fractions.append(float(value))
            except ValueError:
                raise ValidationError(f"mass fraction of {name.strip()!r} is not a number: {value!r}") from None
        return names, [fractions]
    names = [p.strip() for p in spec.split("+")]
    if len(names) != 2:
        raise ValidationError(f"fraction sweeps need exactly two materials as A+B, got {spec!r}")
    if sweep_arg is None:
        raise ValidationError("A+B mixture specs need --fraction-sweep LO:HI:STEP")
    ys = _parse_range(sweep_arg)
    for y in ys:
        if not 0.0 <= y <= 1.0:
            raise ValidationError(f"swept fraction {y!r} is outside [0,1]")
    return names, [[1.0 - y, y] for y in ys]


def cmd_mix_sweep(args):
    from .mixture import mixture_flame_temperature, mvo1_closure_from_rho_T

    if not args.same_oxygen_balance:
        raise ValidationError(
            "mixture rules assume every component shares the oxygen-balance sign "
            "(no post-combustion between the product gases is modelled); "
            "pass --same-oxygen-balance to declare this holds")
    db = _load_db(args.db)
    mna = args.model == "mna"
    names, fraction_sets = _parse_mixture_spec(args.spec, args.fraction_sweep)
    gases = [db.get(name, Model.NA if mna else Model.VO1) for name in names]
    densities = [(rho, _fmt(rho)) for rho in _parse_float_list(args.rho)]
    if len(fraction_sets) * len(densities) > MAX_GRID_POINTS:
        given = f"{args.spec} --fraction-sweep {args.fraction_sweep}" if args.fraction_sweep else args.spec
        raise ValidationError(f"mix-sweep grid {given} --rho {args.rho} holds more than {MAX_GRID_POINTS} points")
    lines = ["Y,rho_kg_m3,tflame_K,pmax_MPa,c_m_s"]
    for fractions in fraction_sets:
        mix = MixtureSpec(tuple(zip(gases, fractions)), oxygen_balance_declared_uniform=True)
        if not mna:
            mix.virial  # raises unless every component has a > 0, so refuses non-convex records
        T_flame, flame = _flame(mixture_flame_temperature, mix,
                                lambda: ",".join(f"{name}={_fmt(y)}" for name, y in zip(names, fractions)))
        closure, x = ((closure_for(mix.mixed), _flame_energy(mix.mixed)) if mna  # NA: the mixed record's law
                      else (functools.partial(mvo1_closure_from_rho_T, mix), T_flame))  # virial: P solved at T
        lead = _fmt(fractions[-1])
        for rho, rho_text in densities:
            P, _, c = closure(rho, x)
            lines.append(f"{lead},{rho_text},{flame},{_fmt(P / 1e6)},{_fmt(c)}")
    return lines, 0


def cmd_audit(args):
    from .numerics import audit_record

    params = _record(args)
    rhos = _parse_range(args.rho)
    temps = _parse_range(args.T)
    if len(rhos) * len(temps) > MAX_GRID_POINTS:
        raise ValidationError(f"audit grid rho={args.rho} T={args.T} holds more than {MAX_GRID_POINTS} points")
    try:
        report = audit_record(params, rhos, temps)
    except DomainError as exc:
        raise DomainError(f"audit grid rho={args.rho} T={args.T}: {exc}") from None

    lines = [f"audit material={args.material} model={params.model}",
             f"grid rho={args.rho} T={args.T} points={report.points} skipped_rho={report.skipped_rho}"]
    for label, value, limit in zip(_AUDIT_LABELS, report.residuals, report.LIMITS):
        lines.append(f"{label} = {_fmt(value)} limit {_fmt(limit)} {'PASS' if value <= limit else 'FAIL'}")
    for label, count in (("convexity sign mismatches", report.sign_mismatches),
                         ("convexity violations", report.violations)):
        lines.append(f"{label} = {count} {'PASS' if count == 0 else 'FAIL'}")
    lines.append(f"RESULT {'PASS' if report.passed else 'FAIL'}")
    return lines, 0 if report.passed else NumericalError.exit_code


def cmd_state(args):
    params = _record(args)
    _require_convex_record(params)
    keys = frozenset(k for k in ("rho", "T", "P", "e") if getattr(args, k) is not None)
    if keys == {"rho", "T"}:
        build, x, y = state_from_rho_T, args.rho, args.T
    elif keys == {"P", "T"}:
        if not args.P > 0.0:
            raise DomainError(f"--P must be positive, got {args.P!r} MPa")
        if not args.T > 0.0:
            raise DomainError(f"--T must be positive, got {args.T!r} K")
        build, x, y = state_from_P_T, args.P * 1e6, args.T
    elif keys == {"rho", "e"}:
        if not args.e * 1e3 > params.q:
            raise DomainError(
                f"--e must exceed the reference q = {_fmt(params.q / 1e3)} kJ/kg, got {args.e!r} kJ/kg")
        build, x, y = state_from_rho_e, args.rho, args.e * 1e3
    else:
        raise ValidationError(
            "pass exactly one input pair: --rho with --T, --P with --T, or --rho with --e")
    st = build(params, x, y)
    return ["P_MPa,T_K,rho_kg_m3,v_m3_kg,e_kJ_kg,h_kJ_kg,s_J_kgK,c_m_s,Cp_J_kgK,gamma", ",".join([
        _fmt(st.P / 1e6), _fmt(st.T), _fmt(st.rho), _fmt(st.v),
        _fmt(st.e / 1e3), _fmt(st.h / 1e3),
        _fmt(st.s) if st.s is not None else "",
        _fmt(st.c), _fmt(st.Cp), _fmt(st.gamma),
    ])], 0


@functools.cache  # one tree per process: it costs ~1 ms to build, and a parse leaves no state on it
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eos",
        description="Reduced equations of state for combustion gases: "
                    "calibration, state evaluation, sweeps and consistency audits.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    record = argparse.ArgumentParser(add_help=False)  # the options that name one record
    record.add_argument("material")
    record.add_argument("--model", choices=sorted(_MODEL_FLAGS), required=True)
    record.add_argument("--db", help="database file (default: built-in table)")

    p = sub.add_parser("calibrate", help="two-point closed-bomb calibration")
    p.add_argument("model", choices=["na", "vo1"])
    p.add_argument("--points", required=True, help="CSV file rho_kg_m3,pmax_MPa with exactly two rows")
    p.add_argument("--tflame", type=float, required=True, help="flame temperature, K")
    p.add_argument("--gamma", type=float, required=True, help="heat-capacity ratio")
    p.add_argument("--name", help="material name for output and database")
    p.add_argument("--db", help="append the record to this database file")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("calibrate-cvt", help="least-squares Cv(T) fit from inert-diluted runs")
    p.add_argument("--runs", required=True, help="CSV file Y,tflame_K")
    p.add_argument("--inert", choices=sorted(INERT_GASES), required=True)
    p.add_argument("--es-i", dest="es_i", type=float, required=True,
                   help="initial solid energy of the pure reactant, kJ/kg")
    p.add_argument("--t0", type=float, default=298.15, help="initial mixture temperature, K")
    p.add_argument("--db", help="write a VO1_CVT record to this database file")
    p.add_argument("--name", help="material name for the new record")
    p.add_argument("--base", help="existing VO1 material supplying R, a and the density range")
    p.add_argument("--base-db", dest="base_db", help="database holding --base (default: same as --db)")
    p.add_argument("--tflame", type=float, help="flame temperature for the record, K")
    p.set_defaults(func=cmd_calibrate_cvt)

    p = sub.add_parser("sweep", help="closed-bomb prediction over a density range", parents=[record])
    p.add_argument("--rho", required=True, help="density grid LO:HI:STEP, kg/m3")
    p.add_argument("--reference", help="CSV rho_kg_m3,pmax_MPa of external reference pressures")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mix-sweep", help="mixture closed-bomb predictions")
    p.add_argument("spec", help='mixture: "A+B" with --fraction-sweep, or "A=0.5,B=0.5"')
    p.add_argument("--model", choices=["mna", "mvo1"], required=True)
    p.add_argument("--rho", required=True, help="comma-separated loading densities, kg/m3")
    p.add_argument("--fraction-sweep", dest="fraction_sweep",
                   help="LO:HI:STEP mass-fraction sweep of the second material")
    p.add_argument("--same-oxygen-balance", dest="same_oxygen_balance", action="store_true",
                   help="declare that all components share the oxygen-balance sign")
    p.add_argument("--db", help="database file (default: built-in table)")
    p.set_defaults(func=cmd_mix_sweep)

    p = sub.add_parser("audit", help="grid consistency audit of one material record", parents=[record])
    p.add_argument("--rho", default="10:600:50", help="density grid LO:HI:STEP (default 10:600:50)")
    p.add_argument("--T", default="1500:4500:250", help="temperature grid LO:HI:STEP (default 1500:4500:250)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("state", help="full thermodynamic state at one point", parents=[record])
    p.add_argument("--rho", type=float, help="density, kg/m3")
    p.add_argument("--T", type=float, help="temperature, K")
    p.add_argument("--P", type=float, help="pressure, MPa")
    p.add_argument("--e", type=float, help="specific internal energy, kJ/kg")
    p.set_defaults(func=cmd_state)

    # argparse takes only plain negative numbers for values; no option name here looks like a number
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NUMBER_LIKE
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        for k in _NUMERIC_OPTIONS:
            value = getattr(args, k, None)  # a text for grids and lists
            if isinstance(value, float) and not math.isfinite(value * _SI_FACTORS.get(k, 1.0)):
                in_si = " in SI units" if math.isfinite(value) else ""
                raise ValidationError(f"--{k.replace('_', '-')} must be finite{in_si}, got {value!r}")
        lines, code = args.func(args)
        print("\n".join(lines))  # the one write of a command's output
        sys.stdout.flush()  # a reader that stopped early shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout's reader stopped early (`eos sweep ... | head -1`); point stdout at devnull so that
        # the flush at exit cannot fail, and end as a success
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (EosError, OSError, ArithmeticError, ValueError) as exc:
        error = type(exc) if isinstance(exc, EosError) else ParseError if isinstance(exc, OSError) else NumericalError
        if error.tag == NumericalError.tag and error is not _FlameError:  # named by the inputs, not an internal value
            given = " ".join(f"--{k.replace('_', '-')} {getattr(args, k)}"
                             for k in _NUMERIC_OPTIONS if getattr(args, k, None) is not None)
            exc = f"floating-point evaluation failed at {given}"
        print(f"{error.tag}: {exc}", file=sys.stderr)
        return error.exit_code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
