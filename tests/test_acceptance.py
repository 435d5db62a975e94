"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion;
each test also prints an explicit PASS line (visible with ``-s``).
"""

import itertools
import math
import time

import numpy as np
import pytest

import redeos as rx
from redeos.cli import main
from redeos.numerics import STEP_FLOOR

from conftest import CLOSED_BOMB_RUNS, PUBLISHED_PARAMS, closed_bomb_points, write_dilution_runs_csv

RHO_GRID = np.linspace(10.0, 600.0, 13)
T_GRID = np.linspace(1500.0, 4500.0, 13)


def _report(criterion, label):
    print(f"ACCEPTANCE {criterion:02d} {label}: PASS")


def _energy_pressure_fns(params):
    # one caloric law for every model; the virial thermal law serves VO1 and VO1_CVT
    if params.model is rx.Model.NA:
        return (lambda r, t: rx.cvt_energy(params, t),
                lambda r, t: rx.na_pressure_vt(params, 1.0 / r, t))
    return (lambda r, t: rx.cvt_energy(params, t),
            lambda r, t: rx.vo1_pressure(params, r, t))


def test_criterion_01_published_table_reproduction():
    start = time.perf_counter()
    for material in CLOSED_BOMB_RUNS:
        p1, p2, tflame, gamma = closed_bomb_points(material)
        na = rx.calibrate_na(p1, p2, tflame, gamma, name=material)
        vo1 = rx.calibrate_vo1(p1, p2, tflame, gamma, name=material)
        cv_ref, r_ref, es_ref, b_ref = PUBLISHED_PARAMS[material]["NA"]
        assert na.Cv == pytest.approx(cv_ref, rel=1e-3)
        assert na.R == pytest.approx(r_ref, rel=1e-3)
        assert na.e_s_eff == pytest.approx(es_ref * 1e3, rel=1e-3)
        assert na.b == pytest.approx(b_ref, rel=1e-3)
        cv_ref, r_ref, es_ref, a_ref = PUBLISHED_PARAMS[material]["VO1"]
        assert vo1.Cv == pytest.approx(cv_ref, rel=1e-3)
        assert vo1.R == pytest.approx(r_ref, rel=1e-3)
        assert vo1.e_s_eff == pytest.approx(es_ref * 1e3, rel=1e-3)
        assert vo1.a == pytest.approx(a_ref, rel=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "calibrations reproduce the published table within 0.1%")


def test_criterion_02_closed_bomb_round_trip(calibrated):
    for material in CLOSED_BOMB_RUNS:
        p1, p2, _, _ = closed_bomb_points(material)
        for model in ("NA", "VO1"):
            params = calibrated[(material, model)]
            for point in (p1, p2):
                pred = rx.predict_closed_bomb(params, point.rho_load)
                assert pred.P_max == pytest.approx(point.P_max, rel=5e-4)
    _report(2, "predictions at the calibration densities return the inputs within 0.05%")


def test_criterion_03_cvt_effective_energy(nc13_cvt):
    e_eff = rx.cvt_effective_energy(nc13_cvt, 3275.0)
    assert e_eff == pytest.approx(4980.7e3, rel=1e-3)
    T = rx.cvt_temperature(nc13_cvt, nc13_cvt.q + 4980.7e3)
    assert T == pytest.approx(3275.0, rel=5e-4)
    _report(3, "Cv(T) effective energy and its inversion match the published values")


def test_criterion_04_model_divergence_at_high_density(db):
    na = db.get("NC-13", rx.Model.NA)
    vo1 = db.get("NC-13", rx.Model.VO1)
    p_na = rx.na_pressure_vt(na, 1.0 / 400.0, 3275.0)
    p_vo1 = rx.vo1_pressure(vo1, 400.0, 3275.0)
    assert 250e6 <= p_na - p_vo1 <= 300e6
    for material in CLOSED_BOMB_RUNS:
        tflame = CLOSED_BOMB_RUNS[material][2]
        gap = (rx.na_pressure_vt(db.get(material, rx.Model.NA), 1.0 / 400.0, tflame)
               - rx.vo1_pressure(db.get(material, rx.Model.VO1), 400.0, tflame))
        assert gap > 0.0
    _report(4, "covolume law overshoots the virial law by 250-300 MPa at 400 kg/m3")


def test_criterion_05_maxwell_compatibility_suite(db):
    start = time.perf_counter()
    records = [db.get(m, model) for m in CLOSED_BOMB_RUNS
               for model in (rx.Model.NA, rx.Model.VO1)]
    records.append(db.get("NC-13", rx.Model.VO1_CVT))
    for params in records:
        e_fn, p_fn = _energy_pressure_fns(params)
        for rho in RHO_GRID:
            if params.model is rx.Model.NA and 1.0 / rho <= params.b:
                continue
            for T in T_GRID:
                P = p_fn(rho, T)
                dedrho = rx.fd_derivative(lambda r: e_fn(r, T), rho, 1.0)
                dpdT = rx.fd_derivative(lambda t: p_fn(rho, t), T, STEP_FLOOR)
                assert abs(dedrho * rho * rho + T * dpdT - P) < 1e-8 * P
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(5, "thermal/caloric compatibility residual below 1e-8 P on the full grid")


def test_criterion_06_sound_speed_oracle_suite(db, nc13_na, nc13_vo1, nc13_cvt, rdx_na, rdx_vo1):
    worst_forms = 0.0
    for params in (nc13_na, nc13_vo1, nc13_cvt):
        e_fn, p_fn = _energy_pressure_fns(params)
        for rho in RHO_GRID:
            for T in T_GRID:
                P = p_fn(rho, T)
                oracle = rx.sound_speed_fd_oracle(e_fn, p_fn, rho, T)
                worst_forms = max(worst_forms, oracle.rel_disagreement)
                if params.model is rx.Model.NA:
                    analytic = rx.na_sound_speed(params, P, rho)
                else:
                    analytic = rx.vo1_sound_speed(params, P, rho, T)
                assert analytic == pytest.approx(math.sqrt(oracle.c2_energy), rel=1e-5)

    fractions = [0.1 * k for k in range(1, 10)]
    mix_rhos = (50.0, 200.0, 400.0, 600.0)
    mix_temps = (1500.0, 3000.0, 4500.0)
    for Y in fractions:
        mix_na = rx.MixtureSpec(((nc13_na, 1.0 - Y), (rdx_na, Y)))
        mix_vo = rx.MixtureSpec(((nc13_vo1, 1.0 - Y), (rdx_vo1, Y)))
        cv_na, q_na = mix_na.mixed.Cv, mix_na.mixed.q
        cv_vo, q_vo = mix_vo.mixed.Cv, mix_vo.mixed.q
        for rho in mix_rhos:
            for T in mix_temps:
                P = rx.mna_pressure_vt(mix_na, 1.0 / rho, T)
                oracle = rx.sound_speed_fd_oracle(
                    lambda r, t: cv_na * t + q_na,
                    lambda r, t: rx.mna_pressure_vt(mix_na, 1.0 / r, t), rho, T)
                worst_forms = max(worst_forms, oracle.rel_disagreement)
                assert rx.mna_sound_speed(mix_na, P, 1.0 / rho) == pytest.approx(
                    math.sqrt(oracle.c2_energy), rel=1e-5)

                P = rx.mvo1_pressure(mix_vo, rho, T).P
                oracle = rx.sound_speed_fd_oracle(
                    lambda r, t: cv_vo * t + q_vo,
                    lambda r, t: rx.mvo1_pressure(mix_vo, r, t).P, rho, T)
                worst_forms = max(worst_forms, oracle.rel_disagreement)
                assert rx.mvo1_sound_speed(mix_vo, P, T) == pytest.approx(
                    math.sqrt(oracle.c2_energy), rel=1e-5)
    assert worst_forms < 1e-6
    _report(6, "closed-form sound speeds match the difference oracle within 1e-5")


def test_criterion_07_mixture_pressure_solver(db):
    materials = [db.get(m, rx.Model.VO1) for m in ("NC-13", "RDX", "NG", "HMX")]
    rho_grid = np.linspace(50.0, 600.0, 14)
    t_grid = np.linspace(1500.0, 4500.0, 14)
    fractions = [0.1 * k for k in range(1, 10)]

    start = time.perf_counter()
    solves = 0
    max_iterations = 0
    max_residual = 0.0
    for first, second in itertools.combinations(materials, 2):
        for Y in fractions:
            mix = rx.MixtureSpec(((first, 1.0 - Y), (second, Y)))
            for rho in rho_grid:
                for T in t_grid:
                    sol = rx.mvo1_pressure(mix, float(rho), float(T))
                    solves += 1
                    max_iterations = max(max_iterations, sol.iterations)
                    max_residual = max(max_residual, sol.residual_rel)
    elapsed = time.perf_counter() - start
    assert solves >= 10_000
    assert max_residual <= 1e-12
    assert max_iterations <= 30
    assert elapsed < 10.0

    for params in materials:
        single = rx.MixtureSpec(((params, 1.0),))
        split = rx.MixtureSpec(((params, 0.3), (params, 0.7)))
        for rho in (50.0, 300.0, 600.0):
            for T in (1500.0, 4500.0):
                direct = rx.vo1_pressure(params, rho, T)
                assert rx.mvo1_pressure(single, rho, T).P == pytest.approx(direct, rel=1e-12)
                assert rx.mvo1_pressure(split, rho, T).P == pytest.approx(direct, rel=1e-12)
    _report(7, f"{solves} mixture solves: residual <= 1e-12, <= {max_iterations} iterations")


def test_criterion_08_cvt_fit_recovery():
    argon = rx.INERT_GASES["argon"]
    true = dict(Cv0=1416.8, c=0.0637, q=-2e6)
    params = rx.GasParams.virial_cvt("syn", R=322.0, a=0.002359, **true)
    e_s_i = rx.cvt_energy(params, 3275.0)
    ys = [0.15 + 0.025 * k for k in range(35)]
    runs = [rx.InertRunRecord(Y=y, T_flame=rx.dilution_flame_temperature(params, argon, y, e_s_i))
            for y in ys]

    fit = rx.calibrate_cvt(runs, argon, e_s_i)
    assert fit.Cv0 == pytest.approx(true["Cv0"], rel=1e-6)
    assert fit.c == pytest.approx(true["c"], rel=1e-6)
    assert fit.q == pytest.approx(true["q"], rel=1e-6)

    rng = np.random.default_rng(7)
    temps = np.array([r.T_flame for r in runs])
    targets = np.array([e_s_i - (1.0 - r.Y) / r.Y * argon.Cv_in * (r.T_flame - 298.15)
                        for r in runs])
    noisy = targets * (1.0 + 1e-3 * rng.standard_normal(targets.size))
    fit = rx.lsq_fit_3(temps, noisy)
    assert fit.Cv0 == pytest.approx(true["Cv0"], rel=0.02)
    assert fit.c == pytest.approx(true["c"], rel=0.02)
    assert fit.q == pytest.approx(true["q"], rel=0.02)
    _report(8, "Cv(T) fit: exact on clean runs, within 2% under 0.1% noise")


def test_criterion_09_entropy_suite(db):
    ref = rx.EntropyReference(P0=101325.0, T0=298.15, s0=0.0)
    shifted = rx.EntropyReference(P0=3e5, T0=500.0, s0=42.0)
    for material in CLOSED_BOMB_RUNS:
        na = db.get(material, rx.Model.NA)
        vo1 = db.get(material, rx.Model.VO1)
        assert rx.na_entropy(na, ref.P0, ref.T0, ref) == 0.0
        assert rx.na_entropy(na, shifted.P0, shifted.T0, shifted) == 42.0
        assert rx.vo1_entropy(vo1, ref.P0, ref.T0, ref) == 0.0
        assert rx.vo1_entropy(vo1, shifted.P0, shifted.T0, shifted) == 42.0
        for rho, T in ((50.0, 2000.0), (100.0, 3275.0), (400.0, 4000.0)):
            v = 1.0 / rho
            got = rx.fd_derivative(lambda t: rx.na_entropy_vt(na, v, t), T, STEP_FLOOR)
            assert got == pytest.approx(na.Cv / T, rel=1e-6)
            P = rx.na_pressure_vt(na, v, T)
            got = rx.fd_derivative(lambda p: rx.na_entropy(na, p, T), P, STEP_FLOOR)
            assert got == pytest.approx(-na.R / P, rel=1e-6)

            got = rx.fd_derivative(
                lambda t: rx.vo1_entropy(vo1, rx.vo1_pressure(vo1, rho, t), t), T, STEP_FLOOR)
            assert got == pytest.approx(vo1.Cv / T, rel=1e-6)
            P = rx.vo1_pressure(vo1, rho, T)
            got = rx.fd_derivative(lambda p: rx.vo1_entropy(vo1, p, T), P, STEP_FLOOR)
            assert got == pytest.approx(rx.vo1_entropy_dP(vo1, P, T), rel=1e-6)
    _report(9, "entropy anchors exact, differential identities verified to 1e-6")


def test_criterion_10_convexity_suite(db, nc13_na, nc13_vo1):
    for rho in RHO_GRID:
        for T in T_GRID:
            if 1.0 / rho > nc13_na.b:
                e_fn, p_fn = _energy_pressure_fns(nc13_na)
                fd = rx.convexity_audit_fd(e_fn, p_fn, rho, T)
                closed = rx.na_convexity(nc13_na, 1.0 / rho, p_fn(rho, T), T)
                assert closed.convex and fd.convex
                for x, y in zip(fd.criteria, closed.criteria):
                    assert (x > 0.0) == (y > 0.0)
            e_fn, p_fn = _energy_pressure_fns(nc13_vo1)
            fd = rx.convexity_audit_fd(e_fn, p_fn, rho, T)
            closed = rx.vo1_convexity(nc13_vo1, rho, p_fn(rho, T), T)
            assert closed.convex and fd.convex
            for x, y in zip(fd.criteria, closed.criteria):
                assert (x > 0.0) == (y > 0.0)

    # covolume boundary, exact
    assert not rx.na_convexity(nc13_na, nc13_na.b, 1e8, 3000.0).convex
    assert not rx.na_convexity(nc13_na, 0.999 * nc13_na.b, 1e8, 3000.0).convex
    assert rx.na_convexity(nc13_na, nc13_na.b * (1.0 + 1e-12), 1e8, 3000.0).convex

    # constructed negative-a record, boundary at a rho = -1/2 (criterion (d)), exact
    probe = rx.GasParams.virial("probe", R=322.0, a=-0.002, Cv=1640.5)
    assert not rx.vo1_convexity(probe, 250.0, 1e8, 3000.0).convex
    assert rx.vo1_convexity(probe, 250.0 * (1.0 - 1e-12), 1e8, 3000.0).convex
    assert rx.vo1_convexity(probe, 200.0, 1e8, 3000.0).convex
    assert not rx.vo1_convexity(probe, 400.0, 1e8, 3000.0).convex

    # the attainable non-convex state is seen identically by both routes
    strong = rx.GasParams.virial("strong", R=322.0, a=-0.02, Cv=1640.5)
    e_fn, p_fn = _energy_pressure_fns(strong)
    fd = rx.convexity_audit_fd(e_fn, p_fn, 100.0, 3000.0)
    closed = rx.vo1_convexity(strong, 100.0, p_fn(100.0, 3000.0), 3000.0)
    assert not fd.convex and not closed.convex
    for x, y in zip(fd.criteria, closed.criteria):
        assert (x > 0.0) == (y > 0.0)
    _report(10, "closed-form and difference-audit convexity agree; boundaries exact")


def test_criterion_11_cli_determinism(capsys, tmp_path):
    points = tmp_path / "nc13.csv"
    points.write_text("rho_kg_m3,pmax_MPa\n100,130.3\n150,214.1\n")
    runs = tmp_path / "runs.csv"
    e_s_i = write_dilution_runs_csv(runs)

    commands = [
        ["calibrate", "na", "--points", str(points), "--tflame", "3275", "--gamma", "1.207",
         "--name", "NC-13"],
        ["calibrate", "vo1", "--points", str(points), "--tflame", "3275", "--gamma", "1.207",
         "--name", "NC-13"],
        ["calibrate-cvt", "--runs", str(runs), "--inert", "argon",
         "--es-i", f"{e_s_i / 1e3:.10g}"],
        ["sweep", "NC-13", "--model", "na", "--rho", "100:700:100"],
        ["sweep", "NC-13", "--model", "vo1", "--rho", "100:400:50"],
        ["sweep", "NC-13", "--model", "vo1cvt", "--rho", "100:200:50"],
        ["mix-sweep", "NC-13+RDX", "--model", "mna", "--rho", "100,200,400",
         "--fraction-sweep", "0:0.5:0.1", "--same-oxygen-balance"],
        ["mix-sweep", "NC-13+HMX", "--model", "mvo1", "--rho", "200",
         "--fraction-sweep", "0:0.5:0.25", "--same-oxygen-balance"],
        ["mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mvo1", "--rho", "100",
         "--same-oxygen-balance"],
        ["audit", "NC-13", "--model", "vo1", "--rho", "50:600:275", "--T", "1500:4500:1500"],
        ["state", "NC-13", "--model", "na", "--rho", "100", "--T", "3275"],
        ["state", "NC-13", "--model", "vo1", "--P", "130.33", "--T", "3275"],
        ["state", "NC-13", "--model", "vo1cvt", "--rho", "100", "--e", "4556.4"],
    ]
    for argv in commands:
        code_a = main(list(argv))
        first = capsys.readouterr()
        code_b = main(list(argv))
        second = capsys.readouterr()
        assert code_a == code_b
        assert first.out == second.out
        assert first.err == second.err == ""
    _report(11, "every CLI command is byte-deterministic on fixture inputs")
