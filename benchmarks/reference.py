"""Closed forms the benchmark checks the program's outputs against.

Everything here is computed from a record's parameters with the paper's
formulas, independently of the library's own code paths:

* Noble-Abel and VO1: P and c from the thermal and caloric laws, to 1e-12.
* VO1 with Cv(T): c^2 = R T (1 + 2 a rho) + T R^2 (1 + a rho)^2 / Cv(T),
  to 1e-6 (the library takes c from its finite-difference oracle).
* MVO1: the component densities at the solved (P, T) must reproduce the
  mixture volume to 1e-12, within 30 iterations.
* CLI rows are printed with 10 significant digits, so parsed values are
  compared to 2e-9 (1e-6 for the Cv(T) sound speed).

A check returns ``None`` when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

MODEL_OF = {"na": "NA", "vo1": "VO1", "vo1cvt": "VO1_CVT", "mna": "NA", "mvo1": "VO1"}

TOL_STATE = 1e-12
TOL_CVT_C = 1e-6
TOL_MVO1_RESIDUAL = 1e-12
MAX_MVO1_ITER = 30
TOL_PRINTED = 2e-9

ARGON_CV = 312.2
T0_DILUTION = 298.15


def _model(params):
    return str(params.model)


def cv(params, T):
    return params.Cv0 + params.c * T if _model(params) == "VO1_CVT" else params.Cv


def energy(params, T):
    if _model(params) == "VO1_CVT":
        return params.Cv0 * T + 0.5 * params.c * T * T + params.q
    return params.Cv * T + params.q


def temperature(params, e):
    E = e - params.q
    if _model(params) == "VO1_CVT":
        return 2.0 * E / (params.Cv0 + math.sqrt(params.Cv0 ** 2 + 2.0 * params.c * E))
    return E / params.Cv


def pressure(params, rho, T):
    if _model(params) == "NA":
        return params.R * T / (1.0 / rho - params.b)
    return rho * params.R * T * (1.0 + params.a * rho)


def density(params, P, T):
    """Inverse of the thermal law at (P, T)."""
    if _model(params) == "NA":
        return 1.0 / (params.R * T / P + params.b)
    R, a = params.R, params.a
    return 2.0 * P / (R * T * (1.0 + math.sqrt(1.0 + 4.0 * a * P / (R * T))))


def sound_speed(params, rho, T):
    R = params.R
    if _model(params) == "NA":
        P = pressure(params, rho, T)
        return math.sqrt((1.0 + R / params.Cv) * P / rho / (1.0 - rho * params.b))
    ar = params.a * rho
    return math.sqrt(R * T * (1.0 + 2.0 * ar) + T * R * R * (1.0 + ar) ** 2 / cv(params, T))


def na_in_domain(params, rho):
    """The Noble-Abel state exists: v > b and 1 - rho b > 0."""
    return 1.0 / rho > params.b and 1.0 - rho * params.b > 0.0


def flame_temperature(params):
    return temperature(params, params.q + params.e_s_eff)


# --- mixtures ---------------------------------------------------------------

def _mix_sums(components):
    fs = math.fsum
    return SimpleNamespace(
        R=fs(y * g.R for g, y in components),
        Cv=fs(y * g.Cv for g, y in components),
        q=fs(y * g.q for g, y in components),
        b=fs(y * g.b for g, y in components) if _model(components[0][0]) == "NA" else None,
        e_s_eff=fs(y * g.e_s_eff for g, y in components),
    )


def mix_energy(mix, T):
    s = _mix_sums(mix.components)
    return s.Cv * T + s.q


def mna_state(components, v, T):
    """(P, c) of the Noble-Abel mixture at (v, T)."""
    s = _mix_sums(components)
    P = s.R * T / (v - s.b)
    return P, math.sqrt((1.0 + s.R / s.Cv) * P * v / (1.0 - s.b / v))


def mvo1_volume_residual(components, rho_mix, P, T):
    """|sum_k Y_k / rho_k(P, T) - 1/rho_mix| * rho_mix."""
    vol = math.fsum(y / density(g, P, T) for g, y in components)
    return abs(vol * rho_mix - 1.0)


def mvo1_sound_speed(components, P, T):
    cv_mix = cp_mix = vol = series = 0.0
    for g, y in components:
        rho_k = density(g, P, T)
        ar = g.a * rho_k
        cv_mix += y * g.Cv
        cp_mix += y * (g.Cv + g.R * (1.0 + ar) ** 2 / (1.0 + 2.0 * ar))
        vol += y / rho_k
        series += y * (1.0 + ar) / (rho_k * (1.0 + 2.0 * ar))
    return math.sqrt(cp_mix * P * vol * vol / (cv_mix * series))


# --- calibration ------------------------------------------------------------

def calibrate(family, points, T_flame, gamma, name):
    """Two-point closed-bomb calibration from the CSV values, as a record."""
    (r1, p1), (r2, p2) = points
    P1, P2, v1, v2 = p1 * 1e6, p2 * 1e6, 1.0 / r1, 1.0 / r2
    rec = SimpleNamespace(name=name, model=MODEL_OF[family], q=0.0, T_flame=T_flame,
                          gamma_cal=gamma, rho_range=(min(r1, r2), max(r1, r2)))
    if family == "na":
        rec.b = (P1 * v1 - P2 * v2) / (P1 - P2)
        rec.R = P1 * (v1 - rec.b) / T_flame
        rec.Cv = rec.R / (gamma - 1.0)
    else:
        denom = P1 * r2 * r2 - P2 * r1 * r1
        rec.a = (P2 * r1 - P1 * r2) / denom
        rec.R = denom / (T_flame * r1 * r2 * (r2 - r1))
        ar = rec.a * 0.5 * (r1 + r2)
        rec.Cv = rec.R / (gamma - 1.0) * (1.0 + ar) ** 2 / (1.0 + 2.0 * ar)
    rec.e_s_eff = rec.Cv * T_flame
    return rec


def dilution_runs(cvt, y0, n):
    """Argon-diluted closed-bomb runs of a Cv(T) record, printed to 10 digits.

    The caloric reference is anchored so the energy vanishes at T0; the
    flame temperature of each run solves the energy balance
    Y e(T) + (1-Y) Cv_in (T - T0) = Y e_s_i in closed form.
    """
    q = -(cvt.Cv0 * T0_DILUTION + 0.5 * cvt.c * T0_DILUTION ** 2)
    T_ref = 3275.0
    e_s_i = cvt.Cv0 * T_ref + 0.5 * cvt.c * T_ref * T_ref + q
    runs = []
    for k in range(n):
        Y = float(f"{y0 + 0.025 * k:.10g}")
        A = 0.5 * Y * cvt.c
        B = Y * cvt.Cv0 + (1.0 - Y) * ARGON_CV
        C = Y * (e_s_i - q) + (1.0 - Y) * ARGON_CV * T0_DILUTION
        runs.append((Y, float(f"{2.0 * C / (B + math.sqrt(B * B + 4.0 * A * C)):.10g}")))
    return runs, e_s_i


class LsqFit(NamedTuple):
    Cv0: float
    c: float
    q: float


def lsq_fit(runs, e_s_i):
    """Least-squares (Cv0, c, q) from the runs, by scaled normal equations."""
    rows, rhs = [], []
    for Y, T in runs:
        rows.append((T * 1e-3, 0.5 * T * T * 1e-7, 1.0))
        rhs.append(e_s_i - (1.0 - Y) / Y * ARGON_CV * (T - T0_DILUTION))
    M = [[math.fsum(r[i] * r[j] for r in rows) for j in range(3)] for i in range(3)]
    b = [math.fsum(r[i] * y for r, y in zip(rows, rhs)) for i in range(3)]
    beta = _solve3(M, b)
    return LsqFit(Cv0=beta[0] * 1e-3, c=beta[1] * 1e-7, q=beta[2])


def _solve3(M, b):
    """Gaussian elimination with partial pivoting on a 3x3 system."""
    A = [row[:] + [rhs] for row, rhs in zip(M, b)]
    for col in range(3):
        piv = max(range(col, 3), key=lambda r: abs(A[r][col]))
        A[col], A[piv] = A[piv], A[col]
        for r in range(col + 1, 3):
            f = A[r][col] / A[col][col]
            for k in range(col, 4):
                A[r][k] -= f * A[col][k]
    x = [0.0, 0.0, 0.0]
    for r in (2, 1, 0):
        x[r] = (A[r][3] - sum(A[r][k] * x[k] for k in range(r + 1, 3))) / A[r][r]
    return x


# --- checks ---------------------------------------------------------------------

def _rel(got, want):
    return abs(got - want) / abs(want)


def _far(label, got, want, tol):
    if not (math.isfinite(got) and _rel(got, want) <= tol):
        return f"{label} = {got!r}, expected {want!r} (tol {tol:g})"
    return None


def check_cell(cell, out):
    """Check one closure result against the closed forms."""
    if cell.op == "mna":
        st, c = out
        P, c_ref = mna_state(cell.arg.components, cell.x, cell.T)
        return (_far("T", st.T, cell.T, TOL_STATE) or _far("P", st.P, P, TOL_STATE)
                or _far("c", c, c_ref, TOL_STATE))
    if cell.op == "mvo1":
        sol, c = out
        comps = cell.arg.components
        if sol.iterations > MAX_MVO1_ITER:
            return f"MVO1 took {sol.iterations} iterations"
        res = mvo1_volume_residual(comps, cell.rho, sol.P, sol.T)
        if not (sol.residual_rel <= TOL_MVO1_RESIDUAL and res <= TOL_MVO1_RESIDUAL):
            return f"MVO1 residual {sol.residual_rel!r} (recomputed {res!r})"
        return _far("T", sol.T, cell.T, TOL_STATE) or _far("c", c, mvo1_sound_speed(comps, sol.P, sol.T), TOL_STATE)
    params = cell.arg
    tol_c = TOL_CVT_C if _model(params) == "VO1_CVT" else TOL_STATE
    if cell.op == "P_T":
        rho = density(params, cell.x, cell.y)
        return (_far("rho", out.rho, rho, TOL_STATE) or _far("P", out.P, cell.x, TOL_STATE)
                or _far("c", out.c, sound_speed(params, rho, cell.y), tol_c))
    T = cell.y if cell.op == "rho_T" else temperature(params, cell.y)
    return (_far("T", out.T, T, TOL_STATE) or _far("P", out.P, pressure(params, cell.x, T), TOL_STATE)
            or _far("c", out.c, sound_speed(params, cell.x, T), tol_c))


def _floats(fields):
    return [float(f) for f in fields]


def check_command(cmd, code, out, err):
    """Check one CLI command's exit code and output.

    Returns ``(problem, items, domain_rows)``: ``problem`` is ``None`` when
    everything matches; ``items`` counts the rows or grid points made.
    """
    e = cmd.expect
    kind = e["kind"]
    lines = out.splitlines()
    try:
        if kind == "sweep":
            return _check_sweep(e, code, lines, err)
        if kind == "mix":
            return _check_mix(e, code, lines, err)
        if kind == "audit":
            return _check_audit(e, code, lines, err)
        if code != 0 or err:
            return f"exit {code}, stderr {err.strip()!r}", 0, 0
        if kind == "state":
            return _check_state(e, lines), 1, 0
        if kind == "calibrate":
            return _check_calibrate(e, lines), 1, 0
        return _check_calibrate_cvt(e, lines), e["runs"], 0
    except (ValueError, IndexError, KeyError) as exc:
        return f"unparsable output ({type(exc).__name__}: {exc})", 0, 0


def _check_sweep(e, code, lines, err):
    params = e["params"]
    rhos = e["rhos"]
    if lines[0] != "rho_kg_m3,tflame_K,pmax_MPa,extrapolated,c_m_s" or len(lines) != len(rhos) + 1:
        return f"sweep printed {len(lines)} lines for {len(rhos)} points", 0, 0
    T = flame_temperature(params)
    tol_c = TOL_CVT_C if _model(params) == "VO1_CVT" else TOL_PRINTED
    lo, hi = params.rho_range
    domain = 0
    for rho, line in zip(rhos, lines[1:]):
        fields = line.split(",")
        if fields[0] != format(rho, ".10g"):
            return f"sweep row {line!r} is not at rho = {rho!r}", 0, 0
        if _model(params) == "NA" and not na_in_domain(params, rho):
            domain += 1
            if fields[1:] != ["", "", "E_DOMAIN", ""]:
                return f"row {line!r} should be E_DOMAIN", 0, 0
            continue
        t, p, flag, c = fields[1], fields[2], fields[3], fields[4]
        problem = (_far("T_flame", float(t), T, TOL_PRINTED)
                   or _far("P_max", float(p), pressure(params, rho, T) / 1e6, TOL_PRINTED)
                   or _far("c", float(c), sound_speed(params, rho, T), tol_c))
        if problem is None and flag != ("0" if lo <= rho <= hi else "1"):
            problem = f"extrapolated flag {flag!r} at rho = {rho!r}"
        if problem:
            return f"sweep {params.name} {params.model}: {problem}", 0, 0
    want_code = 4 if domain else 0
    if code != want_code or err:
        return f"sweep exit {code} (expected {want_code}), stderr {err.strip()!r}", 0, 0
    return None, len(rhos), domain


def _check_mix(e, code, lines, err):
    if code != 0 or err:
        return f"mix-sweep exit {code}, stderr {err.strip()!r}", 0, 0
    rows = [(fs, rho) for fs in e["fraction_sets"] for rho in e["rhos"]]
    if lines[0] != "Y,rho_kg_m3,tflame_K,pmax_MPa,c_m_s" or len(lines) != len(rows) + 1:
        return f"mix-sweep printed {len(lines)} lines for {len(rows)} rows", 0, 0
    na = _model(e["gases"][0]) == "NA"
    for (fractions, rho), line in zip(rows, lines[1:]):
        y, r, t, p, c = _floats(line.split(","))
        comps = tuple(zip(e["gases"], fractions))
        s = _mix_sums(comps)
        T = s.e_s_eff / s.Cv
        problem = _far("Y", y, fractions[-1], TOL_PRINTED) or _far("rho", r, rho, TOL_PRINTED)
        problem = problem or _far("T_flame", t, T, TOL_PRINTED)
        if problem is None and na:
            P_ref, c_ref = mna_state(comps, 1.0 / rho, T)
            problem = _far("P", p, P_ref / 1e6, TOL_PRINTED) or _far("c", c, c_ref, TOL_PRINTED)
        elif problem is None:
            res = mvo1_volume_residual(comps, rho, p * 1e6, T)
            if res > TOL_PRINTED:
                problem = f"printed P = {p!r} MPa leaves volume residual {res!r}"
            problem = problem or _far("c", c, mvo1_sound_speed(comps, p * 1e6, T), TOL_PRINTED)
        if problem:
            return f"mix-sweep row {line!r}: {problem}", 0, 0
    return None, len(rows), 0


def cli_range(text):
    """The points of a LO:HI:STEP range: HI is included when it lands on the grid."""
    lo, hi, step = (float(x) for x in text.split(":"))
    points = []
    while (x := lo + len(points) * step) <= hi * (1.0 + 1e-12) + 1e-12:
        points.append(x)
    return points


def _check_audit(e, code, lines, err):
    params = e["params"]
    if code != 0 or err:
        return f"audit exit {code}, stderr {err.strip()!r}", 0, 0
    n_T = len(cli_range(e["T"]))
    rhos = cli_range(e["rho"])
    skipped = sum(1 for r in rhos if _model(params) == "NA" and 1.0 / r <= params.b * (1.0 + 1e-2))
    points = (len(rhos) - skipped) * n_T
    want = f"grid rho={e['rho']} T={e['T']} points={points} skipped_rho={skipped}"
    if lines[1] != want:
        return f"audit grid line {lines[1]!r}, expected {want!r}", 0, 0
    if len(lines) != 8 or not all(line.endswith("PASS") for line in lines[2:]):
        return f"audit of {params.name} {params.model} did not pass: {lines[2:]!r}", 0, 0
    return None, points, 0


def _check_state(e, lines):
    params = e["params"]
    P, T, rho, v, _e, _h, _s, c, _cp, _g = lines[1].split(",")
    T_want = e["T"]
    rho_want = e["rho"] if e["rho"] is not None else density(params, e["P"], T_want)
    tol_c = TOL_CVT_C if _model(params) == "VO1_CVT" else TOL_PRINTED
    return (_far("T", float(T), T_want, TOL_PRINTED)
            or _far("rho", float(rho), rho_want, TOL_PRINTED)
            or _far("v", float(v), 1.0 / rho_want, TOL_PRINTED)
            or _far("P", float(P), pressure(params, rho_want, T_want) / 1e6, TOL_PRINTED)
            or _far("c", float(c), sound_speed(params, rho_want, T_want), tol_c))


def _check_calibrate(e, lines):
    p = e["params"]
    values = dict(line.split(" = ", 1) for line in lines[1:] if " = " in line)
    problem = (_far("Cv", float(values["Cv (J/kg/K)"]), p.Cv, TOL_PRINTED)
               or _far("R", float(values["R (J/kg/K)"]), p.R, TOL_PRINTED)
               or _far("e_s_eff", float(values["e_s_eff (kJ/kg)"]), p.e_s_eff / 1e3, TOL_PRINTED))
    if problem is None and p.model == "NA":
        problem = _far("b", float(values["b (m3/kg)"]), p.b, TOL_PRINTED)
    elif problem is None:
        problem = _far("a", float(values["a (m3/kg)"]), p.a, TOL_PRINTED)
    if problem is None and lines[-1] != f"saved to {e['db']}":
        problem = f"last line {lines[-1]!r} does not report the --db write"
    return problem


def _check_calibrate_cvt(e, lines):
    fit = e["fit"]
    values = dict(line.split(" = ", 1) for line in lines[1:])
    # the fit is exact on consistent data; the 10-digit CSV values bound
    # its agreement with the pure-Python normal equations
    return (_far("Cv0", float(values["Cv0 (J/kg/K)"]), fit.Cv0, 1e-6)
            or _far("c", float(values["c (J/kg/K2)"]), fit.c, 1e-6)
            or _far("q", float(values["q (kJ/kg)"]), fit.q / 1e3, 1e-6))
