"""Command-line interface.

Human-facing units follow the usual closed-bomb tables: MPa, kJ/kg, K and
kg/m3.  Conversion to the library's SI internals happens here and nowhere
else.  All numeric output is printed with 10 significant digits, '.' as
the decimal separator and newline line endings, so identical inputs give
byte-identical output.

Exit codes: 0 success, 2 parse/validation, 3 numerical/convergence,
4 physical-domain violation.  A stdout whose reader stops early (a pipe into
`head`) ends the command quietly with exit 0: no `E_*` line, no traceback.

A command imports the library modules it runs when it starts, so `state`
never loads `calibration`, `mixture` or `numerics`.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from . import __version__
from .errors import (
    BracketError,
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    EosError,
    ModelMismatchError,
    NumericalError,
    ParseError,
    RankDeficiencyError,
    ValidationError,
)
from .materials import (
    INERT_GASES,
    MaterialDatabase,
    builtin_database,
    load_closed_bomb_csv,
    load_inert_runs_csv,
    load_material_db,
    save_material_db,
)
from .state import closure_from_rho_T, na_specific_volume, state_from_P_T, state_from_rho_T, state_from_rho_e
from .types import MODEL_FIELDS, GasParams, MixtureSpec, Model

_MODEL_FLAGS = {"na": Model.NA, "vo1": Model.VO1, "vo1cvt": Model.VO1_CVT}

_ERROR_TABLE = (
    (ParseError, "E_PARSE", 2),
    (DegenerateDataError, "E_DEGENERATE", 2),
    (ModelMismatchError, "E_MODEL_MISMATCH", 2),
    (ValidationError, "E_VALIDATION", 2),
    (RankDeficiencyError, "E_RANK_DEFICIENT", 3),
    (BracketError, "E_BRACKET", 3),
    (ConvergenceError, "E_CONVERGENCE", 3),
    # a degenerate state, float overflow, division by an underflowed zero or a
    # math-domain error: each at extreme inputs
    ((NumericalError, ArithmeticError, ValueError), "E_NUMERICAL", 3),
    (DomainError, "E_DOMAIN", 4),
    (OSError, "E_PARSE", 2),  # a path that cannot be opened: missing, unreadable or a directory
)

#: Options that carry the numbers a command evaluates, named by a floating-point failure.
_NUMERIC_OPTIONS = ("rho", "P", "T", "e", "fraction_sweep", "tflame", "gamma", "es_i", "t0")

_AUDIT_LABELS = ("maxwell max|res|/P", "sound-speed max|c_analytic - c_oracle|/c",
                 "oracle-forms max disagreement")


#: Arguments that argparse must take as values, not options: -1e3, -.5, -10:600:50, -inf.
_NUMBER_LIKE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

#: Most points one LO:HI:STEP grid may hold.
MAX_GRID_POINTS = 10_000


def _fmt(x):
    """The one formatter of printed numbers; nothing non-finite is printed, nor reads back so."""
    if abs(x) < 1.79769313e308:  # finite, and too far below the float maximum for 10 digits to round past it
        return format(x, ".10g")
    if not math.isfinite(x):
        raise NumericalError(f"result is not finite ({x!r})")
    text = format(x, ".10g")
    return repr(x) if math.isinf(float(text)) else text


def _load_db(path):
    return builtin_database() if path is None else load_material_db(path)


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
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValidationError(f"expected a comma-separated list of numbers, got {text!r}") from None


def _require_finite(flag, value):
    if not math.isfinite(value):
        raise ValidationError(f"{flag} must be finite, got {value!r}")
    return value


def _load_existing(path):
    """The database in ``path``, or None when there is no such file."""
    try:
        return load_material_db(path)
    except FileNotFoundError:
        return None


def _save_record(path, db, params, note):
    """Add ``params`` to ``db`` (new when None), write it to ``path`` and return the line reporting
    it; callers print only after the write, so that an error from ``--db`` leaves stdout empty."""
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
             f"gamma = {_fmt(params.gamma_cal)}",
             f"rho_range (kg/m3) = {_fmt(params.rho_range[0])} {_fmt(params.rho_range[1])}"]
    if args.db:
        lines.append(_save_record(args.db, _load_existing(args.db), params, f"calibrated from {args.points}"))
    print("\n".join(lines))
    return 0


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
        if args.base_db is not None:
            base_source = load_material_db(args.base_db)
        else:
            base_source = out_db if out_db is not None else builtin_database()
        base = base_source.get(args.base, Model.VO1)
        tflame = args.tflame if args.tflame is not None else base.T_flame
        if tflame is None:
            raise ValidationError("no flame temperature available; pass --tflame")
        params = GasParams.virial_cvt(
            args.name, R=base.R, a=base.a, Cv0=fit.Cv0, c=fit.c, q=fit.q,
            e_s_eff=fit.Cv0 * tflame + 0.5 * fit.c * tflame**2,
            T_flame=tflame, rho_range=base.rho_range)
        lines.append(_save_record(args.db, out_db, params, f"Cv(T) fit from {args.runs} with inert {inert.name}"))
    print("\n".join(lines))
    return 0


def cmd_sweep(args):
    from .calibration import predict_closed_bomb

    db = _load_db(args.db)
    params = db.get(args.material, _MODEL_FLAGS[args.model])
    _require_convex_record(params)
    if params.e_s_eff is None:  # predict_closed_bomb refuses it too, but only after the header
        raise ValidationError(f"record {params.name!r} carries no effective energy")
    densities = _parse_range(args.rho)
    reference = {}
    if args.reference:
        for point in load_closed_bomb_csv(args.reference):
            reference[point.rho_load] = point.P_max

    header = "rho_kg_m3,tflame_K,pmax_MPa,extrapolated,c_m_s"
    if reference:
        header += ",pref_MPa"
    print(header)
    had_domain_error = False
    for rho in densities:
        try:
            pred = predict_closed_bomb(params, rho)
            c = closure_from_rho_T(params, rho, pred.T_flame).c  # a row prints c, not a full state
            row = [_fmt(rho), _fmt(pred.T_flame), _fmt(pred.P_max / 1e6),
                   "1" if pred.extrapolated else "0", _fmt(c)]
        except DomainError:
            had_domain_error = True
            row = [_fmt(rho), "", "", "E_DOMAIN", ""]
        if reference:
            match = [p for r, p in reference.items() if abs(r - rho) <= 1e-9 * max(1.0, rho)]
            row.append(_fmt(match[0] / 1e6) if match else "")
        print(",".join(row))
    return 4 if had_domain_error else 0


def _parse_mixture_spec(spec, sweep_arg):
    if "=" in spec:
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
    from .mixture import mixture_flame_temperature, mna_pressure_vt, mna_sound_speed, mvo1_closure_from_rho_T

    if not args.same_oxygen_balance:
        raise ValidationError(
            "mixture rules assume every component shares the oxygen-balance sign "
            "(no post-combustion between the product gases is modelled); "
            "pass --same-oxygen-balance to declare this holds")
    db = _load_db(args.db)
    model = Model.NA if args.model == "mna" else Model.VO1
    names, fraction_sets = _parse_mixture_spec(args.spec, args.fraction_sweep)
    gases = [db.get(name, model) for name in names]
    for gas in gases:
        _require_convex_record(gas)
    densities = [_require_finite("--rho", rho) for rho in _parse_float_list(args.rho)]
    # mixtures, flames and solve brackets are built before the header: an exit 2 leaves stdout empty
    mixtures = []
    for fractions in fraction_sets:
        mix = MixtureSpec(tuple(zip(gases, fractions)), oxygen_balance_declared_uniform=True)
        if args.model == "mvo1":
            mix.virial_bracket  # raises unless every component has a > 0
        mixtures.append((fractions[-1], mix, mixture_flame_temperature(mix).T_flame))

    print("Y,rho_kg_m3,tflame_K,pmax_MPa,c_m_s")
    for y_label, mix, T_flame in mixtures:
        for rho in densities:
            if args.model == "mna":
                v = na_specific_volume(mix.mixed, rho, T_flame)
                if v == math.inf:
                    raise NumericalError(f"the specific volume 1/rho overflows at rho={rho!r}")
                P = mna_pressure_vt(mix, v, T_flame)
                c = mna_sound_speed(mix, P, v)
            else:
                P, _, c = mvo1_closure_from_rho_T(mix, rho, T_flame)
            print(",".join([_fmt(y_label), _fmt(rho), _fmt(T_flame), _fmt(P / 1e6), _fmt(c)]))
    return 0


def cmd_audit(args):
    from .numerics import audit_record

    db = _load_db(args.db)
    params = db.get(args.material, _MODEL_FLAGS[args.model])
    rhos = _parse_range(args.rho)
    temps = _parse_range(args.T)
    try:
        report = audit_record(params, rhos, temps)
    except DomainError as exc:
        raise DomainError(f"audit grid rho={args.rho} T={args.T}: {exc}") from None

    print(f"audit material={args.material} model={params.model}")
    print(f"grid rho={args.rho} T={args.T} points={report.points} skipped_rho={report.skipped_rho}")
    for label, value, limit in zip(_AUDIT_LABELS, report.residuals, report.LIMITS):
        print(f"{label} = {_fmt(value)} limit {_fmt(limit)} {'PASS' if value <= limit else 'FAIL'}")
    for label, count in (("convexity sign mismatches", report.sign_mismatches),
                         ("convexity violations", report.violations)):
        print(f"{label} = {count} {'PASS' if count == 0 else 'FAIL'}")
    print(f"RESULT {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 3


def cmd_state(args):
    db = _load_db(args.db)
    params = db.get(args.material, _MODEL_FLAGS[args.model])
    _require_convex_record(params)
    given = {k: _require_finite(f"--{k}", getattr(args, k))
             for k in ("rho", "T", "P", "e") if getattr(args, k) is not None}
    keys = frozenset(given)
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
    print("P_MPa,T_K,rho_kg_m3,v_m3_kg,e_kJ_kg,h_kJ_kg,s_J_kgK,c_m_s,Cp_J_kgK,gamma")
    print(",".join([
        _fmt(st.P / 1e6), _fmt(st.T), _fmt(st.rho), _fmt(st.v),
        _fmt(st.e / 1e3), _fmt(st.h / 1e3),
        _fmt(st.s) if st.s is not None else "",
        _fmt(st.c), _fmt(st.Cp), _fmt(st.gamma),
    ]))
    return 0


@functools.cache  # one tree per process: it costs ~1 ms to build, and a parse leaves no state on it
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eos",
        description="Reduced equations of state for combustion gases: "
                    "calibration, state evaluation, sweeps and consistency audits.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

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

    p = sub.add_parser("sweep", help="closed-bomb prediction over a density range")
    p.add_argument("material")
    p.add_argument("--model", choices=sorted(_MODEL_FLAGS), required=True)
    p.add_argument("--rho", required=True, help="density grid LO:HI:STEP, kg/m3")
    p.add_argument("--db", help="database file (default: built-in table)")
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

    p = sub.add_parser("audit", help="grid consistency audit of one material record")
    p.add_argument("material")
    p.add_argument("--model", choices=sorted(_MODEL_FLAGS), required=True)
    p.add_argument("--rho", default="10:600:50", help="density grid LO:HI:STEP (default 10:600:50)")
    p.add_argument("--T", default="1500:4500:250", help="temperature grid LO:HI:STEP (default 1500:4500:250)")
    p.add_argument("--db", help="database file (default: built-in table)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("state", help="full thermodynamic state at one point")
    p.add_argument("material")
    p.add_argument("--model", choices=sorted(_MODEL_FLAGS), required=True)
    p.add_argument("--rho", type=float, help="density, kg/m3")
    p.add_argument("--T", type=float, help="temperature, K")
    p.add_argument("--P", type=float, help="pressure, MPa")
    p.add_argument("--e", type=float, help="specific internal energy, kJ/kg")
    p.add_argument("--db", help="database file (default: built-in table)")
    p.set_defaults(func=cmd_state)

    # argparse takes only plain negative numbers for values; no option name here looks like a number
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NUMBER_LIKE
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
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
        for cls, prefix, code in _ERROR_TABLE:
            if isinstance(exc, cls):
                if prefix == "E_NUMERICAL":  # named by the command's inputs, not by an internal value
                    given = " ".join(f"--{k.replace('_', '-')} {getattr(args, k)}"
                                     for k in _NUMERIC_OPTIONS if getattr(args, k, None) is not None)
                    exc = f"floating-point evaluation failed at {given}"
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
