import json
import math
import pathlib
import re
import sys

import pytest
from hypothesis import given, strategies as st

import redeos as rx
from redeos import numerics
from redeos.cli import _MODEL_FLAGS, _parse_range
from redeos.errors import (BracketError, ConvergenceError, DomainError, NumericalError, RankDeficiencyError,
                           ValidationError)
from redeos.numerics import STEP_FLOOR

from test_golden_cli import Q_DB


class TestSolveMonotone:
    def test_linear(self):
        result = rx.solve_monotone(lambda x: (x - 2.0, None), 0.0, 10.0)
        assert result.root == pytest.approx(2.0, rel=1e-12)

    def test_mixture_volume_closure_single_component(self, nc13_vo1):
        # residual of the specific-volume closure for one component; the
        # root must land on the closed-form virial pressure
        rho, T = 100.0, 3275.0
        RT = nc13_vo1.R * T
        a = nc13_vo1.a

        def g(P):
            return RT * (1.0 + math.sqrt(1.0 + 4.0 * a * P / RT)) / (2.0 * P) - 1.0 / rho, None

        result = rx.solve_monotone(g, 1e6, 1e10)
        assert result.root == pytest.approx(130_331_834.5, rel=1e-10)
        assert result.root == pytest.approx(rx.vo1_pressure(nc13_vo1, rho, T), rel=1e-10)

    def test_same_sign_bracket_rejected(self):
        with pytest.raises(BracketError):
            rx.solve_monotone(lambda x: (x + 5.0, None), 0.0, 10.0)

    def test_iteration_budget(self):
        with pytest.raises(ConvergenceError):
            rx.solve_monotone(lambda x: (x**3 - 2.0, None), 0.0, 10.0, max_iter=1, tol_rel=1e-15)

    def test_newton_path_reports_iterations(self):
        result = rx.solve_monotone(lambda x: (x * x - 2.0, 2.0 * x), 0.0, 2.0, x0=1.5)
        assert result.root == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert result.iterations <= 8

    def test_same_sign_bracket_rejected_after_newton_leaves_it(self):
        # the slope is good, so the endpoints are first read when the step to -5 leaves [0, 10]
        with pytest.raises(BracketError):
            rx.solve_monotone(lambda x: (x + 5.0, 1.0), 0.0, 10.0, x0=5.0)

    @pytest.mark.parametrize("slope", [math.nan, math.inf, 0.0])
    def test_unusable_slope_falls_back_to_the_bracket(self, slope):
        seen = []

        def g(x):
            seen.append(x)
            return x - 2.0, slope

        result = rx.solve_monotone(g, 0.0, 10.0, x0=7.0)
        assert result.root == pytest.approx(2.0, rel=1e-12)
        assert 0.0 in seen and 10.0 in seen

    def test_endpoints_unread_while_newton_stays_inside(self):
        seen = []

        def g(x):
            seen.append(x)
            return x * x - 2.0, 2.0 * x

        result = rx.solve_monotone(g, 0.0, 2.0, x0=1.5)
        assert result.root == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert 0.0 not in seen and 2.0 not in seen

    @pytest.mark.parametrize("lo, hi", [(0.0, 10.0), (10.0, 0.0)])
    def test_given_endpoint_residuals_are_not_evaluated_again(self, lo, hi):
        def g(x):
            seen.append(x)
            return x**3 + x - 30.0, None

        seen = []
        plain = rx.solve_monotone(g, lo, hi)
        seen.clear()
        seeded = rx.solve_monotone(g, lo, hi, ends=(g(lo)[0], g(hi)[0]))
        assert seeded == plain
        solve_calls = seen[2:]  # after the two evaluations made here
        assert 0.0 not in solve_calls and 10.0 not in solve_calls

    @pytest.mark.parametrize("ends, root", [((0.0, 3.0), 0.0), ((-3.0, 0.0), 10.0)])
    def test_given_zero_endpoint_residual_returns_that_endpoint(self, ends, root):
        assert rx.solve_monotone(lambda x: (x - 2.0, None), 0.0, 10.0, ends=ends) == (root, 1)

    def test_given_same_sign_endpoint_residuals_rejected(self):
        with pytest.raises(BracketError):
            rx.solve_monotone(lambda x: (x - 2.0, None), 0.0, 10.0, ends=(1.0, 3.0))

    @given(st.floats(min_value=-500.0, max_value=500.0, allow_nan=False))
    def test_root_stays_inside_bracket(self, offset):
        lo, hi = -10.0, 10.0
        result = rx.solve_monotone(lambda x: (x**3 + x + offset, None), lo, hi)
        assert lo <= result.root <= hi
        assert abs(result.root**3 + result.root + offset) < 1e-6


class TestFdDerivative:
    def test_linear_function(self):
        cv = 1637.1
        assert rx.fd_derivative(lambda T: cv * T, 3275.0, STEP_FLOOR) == pytest.approx(cv, rel=1e-9)

    def test_na_pressure_temperature_slope(self, nc13_na):
        # closed form R/(v - b) as the oracle
        v = 0.01
        got = rx.fd_partial(lambda vv, T: rx.na_pressure_vt(nc13_na, vv, T), (v, 3275.0), 1, STEP_FLOOR)
        assert got == pytest.approx(nc13_na.R / (v - nc13_na.b), rel=1e-8)

    def test_vo1_pressure_density_slope(self, nc13_vo1):
        # closed form R T (1 + 2 a rho) as the oracle
        rho, T = 100.0, 3275.0
        got = rx.fd_partial(lambda r, t: rx.vo1_pressure(nc13_vo1, r, t), (rho, T), 0, STEP_FLOOR)
        want = nc13_vo1.R * T * (1.0 + 2.0 * nc13_vo1.a * rho)
        assert got == pytest.approx(want, rel=1e-8)


class TestSoundSpeedOracle:
    def test_ideal_gas(self):
        ideal = rx.GasParams.noble_abel("ideal", R=338.9, b=0.0, Cv=1637.1)
        oracle = rx.sound_speed_fd_oracle(
            lambda r, t: rx.cvt_energy(ideal, t),
            lambda r, t: rx.na_pressure_vt(ideal, 1.0 / r, t),
            100.0, 3275.0)
        gamma = 1.0 + ideal.R / ideal.Cv
        want = gamma * ideal.R * 3275.0
        assert oracle.c2_energy == pytest.approx(want, rel=1e-6)
        assert oracle.c2_gamma == pytest.approx(want, rel=1e-6)

    def test_noble_abel_closed_form(self, nc13_na):
        rho, T = 100.0, 3275.0
        P = rx.na_pressure_vt(nc13_na, 1.0 / rho, T)
        oracle = rx.sound_speed_fd_oracle(
            lambda r, t: rx.cvt_energy(nc13_na, t),
            lambda r, t: rx.na_pressure_vt(nc13_na, 1.0 / r, t),
            rho, T)
        assert math.sqrt(oracle.c2_energy) == pytest.approx(
            rx.na_sound_speed(nc13_na, P, rho), rel=1e-5)

    def test_virial_closed_form(self, nc13_vo1):
        rho, T = 400.0, 3275.0
        P = rx.vo1_pressure(nc13_vo1, rho, T)
        oracle = rx.sound_speed_fd_oracle(
            lambda r, t: rx.cvt_energy(nc13_vo1, t),
            lambda r, t: rx.vo1_pressure(nc13_vo1, r, t),
            rho, T)
        assert math.sqrt(oracle.c2_energy) == pytest.approx(
            rx.vo1_sound_speed(nc13_vo1, P, rho, T), rel=1e-5)

    @pytest.mark.parametrize("model", [rx.Model.NA, rx.Model.VO1, rx.Model.VO1_CVT])
    def test_evaluations_per_call(self, db, model):
        # 9 pressures for the partials, 2 for the bracket the four constant-density
        # inversions share, 2 per constant-pressure inversion and 2 secant steps in
        # each of the 8 inversions; the solve once evaluated every bracket again
        params = db.get("NC-13", model)
        pressure = rx.state.LAWS[model].pressure
        calls = {"P": 0, "e": 0}

        def e_fn(rho, T):
            calls["e"] += 1
            return rx.cvt_energy(params, T)

        def p_fn(rho, T):
            calls["P"] += 1
            return pressure(params, rho, T)

        rx.sound_speed_fd_oracle(e_fn, p_fn, 200.0, 3000.0)
        assert calls == {"P": 35, "e": 16}

    def test_forms_agree(self, nc13_vo1):
        oracle = rx.sound_speed_fd_oracle(
            lambda r, t: rx.cvt_energy(nc13_vo1, t),
            lambda r, t: rx.vo1_pressure(nc13_vo1, r, t),
            250.0, 2500.0)
        assert oracle.rel_disagreement < 1e-6


def _curved_pressure(rho, T):
    return rho * 322.0 * T + 50.0 * T**1.5


class TestTemperatureInversion:
    """Edge paths of the inversion behind the oracle's constant-P and constant-rho paths.

    The expected temperatures are the results before the bracket pressures
    were shared, bit for bit.
    """

    @pytest.mark.parametrize("T_true, want", [
        (777.7, 777.7),                   # the first bracket misses low: T halves twice
        (23456.7, 23456.700000000004),    # it misses high: T doubles three times
    ], ids=["widen-below", "widen-above"])
    def test_guess_far_off_widens_the_bracket(self, T_true, want):
        got = numerics._invert_temperature(_curved_pressure, 200.0, _curved_pressure(200.0, T_true), 3000.0)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("end", [
        3000.0 * (1.0 - 1e-4), 3000.0 * (1.0 + 1e-4),
        3000.0 * (1.0 - 1e-4) * 0.25, 3000.0 * (1.0 + 1e-4) * 4.0,
    ], ids=["first-low", "first-high", "widened-low", "widened-high"])
    def test_zero_residual_at_a_bracket_end_returns_that_end(self, end):
        got = numerics._invert_temperature(_curved_pressure, 200.0, _curved_pressure(200.0, end), 3000.0)
        assert got.hex() == end.hex()

    @pytest.mark.parametrize("p_fn, target, side", [
        (_curved_pressure, -1.0, "below"),
        (lambda rho, T: min(T, 5000.0), 1e4, "above"),
    ])
    def test_no_bracket_is_a_numerical_error(self, p_fn, target, side):
        with pytest.raises(NumericalError, match=f"failed to bracket from {side}"):
            numerics._invert_temperature(p_fn, 200.0, target, 3000.0)


class TestConvexityAudit:
    def test_noble_abel_valid_state(self, nc13_na):
        rho, T = 100.0, 3275.0
        report = rx.convexity_audit_fd(
            lambda r, t: rx.cvt_energy(nc13_na, t),
            lambda r, t: rx.na_pressure_vt(nc13_na, 1.0 / r, t),
            rho, T)
        assert report.convex
        assert rx.convexity_signs_ok(report.criteria)
        closed = rx.na_convexity(nc13_na, 1.0 / rho, rx.na_pressure_vt(nc13_na, 1.0 / rho, T), T)
        for fd_value, cf_value in zip(report.criteria, closed.criteria):
            assert (fd_value > 0.0) == (cf_value > 0.0)

    def test_virial_valid_state(self, nc13_vo1):
        rho, T = 100.0, 3275.0
        report = rx.convexity_audit_fd(
            lambda r, t: rx.cvt_energy(nc13_vo1, t),
            lambda r, t: rx.vo1_pressure(nc13_vo1, r, t),
            rho, T)
        assert report.convex
        closed = rx.vo1_convexity(nc13_vo1, rho, rx.vo1_pressure(nc13_vo1, rho, T), T)
        for fd_value, cf_value in zip(report.criteria, closed.criteria):
            assert (fd_value > 0.0) == (cf_value > 0.0)

    def test_noble_abel_continuation_below_covolume(self, nc13_na):
        # just past the covolume the verdict must drop; the kernel refuses
        # v <= b, so the audit differences the bare continuation law, where
        # the pressure turns negative
        rho = 1.005 / nc13_na.b
        T = 3000.0

        def p_continued(r, t):
            return nc13_na.R * t / (1.0 / r - nc13_na.b)

        report = rx.convexity_audit_fd(
            lambda r, t: rx.cvt_energy(nc13_na, t), p_continued, rho, T)
        assert not report.convex
        closed = rx.na_convexity(nc13_na, 1.0 / rho, p_continued(rho, T), T)
        assert not closed.convex
        for fd_value, cf_value in zip(report.criteria, closed.criteria):
            assert (fd_value > 0.0) == (cf_value > 0.0)


def _golden_audits():
    cases = json.loads(pathlib.Path(__file__).with_name("golden_cli.json").read_text())
    return [case for case in cases if case.get("argv", [""])[0] == "audit"]


class TestAuditRecord:
    @pytest.mark.parametrize("case", _golden_audits(), ids=lambda case: " ".join(case["argv"][1:4]))
    def test_reports_the_numbers_eos_audit_prints(self, case, tmp_path):
        argv = case["argv"]
        opts = dict(zip(argv[2::2], argv[3::2]))
        if "--db" in opts:
            (tmp_path / "q.eosdb").write_text(Q_DB)
            db = rx.load_material_db(tmp_path / "q.eosdb")
        else:
            db = rx.builtin_database()
        params = db.get(argv[1], _MODEL_FLAGS[opts["--model"]])
        report = rx.audit_record(params, _parse_range(opts["--rho"]), _parse_range(opts["--T"]))
        lines = case["stdout"].splitlines()
        assert lines[1].endswith(f"points={report.points} skipped_rho={report.skipped_rho}")
        for line, value, limit in zip(lines[2:5], report.residuals, rx.AuditReport.LIMITS):
            assert line.split(" = ")[1].startswith(f"{value:.10g} limit {limit:.10g}")
        assert lines[5:7] == [f"convexity sign mismatches = {report.sign_mismatches} PASS",
                              f"convexity violations = {report.violations} PASS"]
        assert report.passed and lines[7] == "RESULT PASS"

    def test_six_differences_per_evaluated_point(self, monkeypatch, nc13_cvt):
        calls = []
        original = numerics.fd_derivative

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(numerics, "fd_derivative", counted)
        report = rx.audit_record(nc13_cvt, [50.0, 200.0, 600.0], [1500.0, 3000.0, 4500.0])
        assert report.points == 9 and report.violations == 0
        assert len(calls) == 6 * report.points

    @pytest.mark.parametrize("model, residuals", [
        (rx.Model.NA, ("0x1.137b10f070fe0p-31", "0x1.943b00e488749p-26", "0x1.954473ab5d3d2p-25")),
        (rx.Model.VO1, ("0x1.3948da103bf23p-31", "0x1.3fd30d3735d7ep-31", "0x1.46f509dde2adcp-30")),
        (rx.Model.VO1_CVT, ("0x1.3948da103bf23p-31", "0x1.5966d9b455b03p-31", "0x1.59f99f35ec31cp-30")),
    ])
    def test_default_grid_residuals_are_pinned(self, db, model, residuals):
        # the bits of the 156-point default grid of `eos audit NC-13`; sharing
        # bracket pressures in the oracle must not move one of them
        report = rx.audit_record(db.get("NC-13", model), _parse_range("10:600:50"), _parse_range("1500:4500:250"))
        assert (report.points, report.skipped_rho) == (156, 0)
        assert tuple(x.hex() for x in report.residuals) == residuals

    @pytest.mark.parametrize("material, model, rho, T, c2", [
        ("NC-13", rx.Model.VO1, 0.001004133605308749, 6.810794049859548e+301, "inf"),
        ("RDX", rx.Model.NA, 0.041467826828875134, 1.4416867988549154e+304, "nan"),
    ])
    def test_non_finite_oracle_is_a_numerical_error(self, db, material, model, rho, T, c2):
        # max() once dropped the nan residual there, and the audit passed
        with pytest.raises(NumericalError, match=re.escape(f"c^2 = {c2} at rho={rho!r}, T={T!r}")):
            rx.audit_record(db.get(material, model), [rho], [T])

    @pytest.mark.parametrize("model", [rx.Model.NA, rx.Model.VO1, rx.Model.VO1_CVT])
    @pytest.mark.parametrize("rhos, temps, named", [
        ([100.0, 1e-310], [3000.0],
         "density 1e-310 kg/m3 does not exceed its difference step 2.2250738585072014e-308 kg/m3"),
        ([100.0], [3000.0, 1e-310],
         "temperature 1e-310 K does not exceed its difference step 2.2250738585072014e-308 K"),
    ], ids=["rho", "T"])
    def test_point_within_a_difference_step_of_zero_is_refused(self, db, model, rhos, temps, named):
        # steps are relative down to the smallest normal float, so only a subnormal value lies within
        # one of zero; it is refused before the closed-form criteria, which underflow there
        with pytest.raises(DomainError, match=named):
            rx.audit_record(db.get("NC-13", model), rhos, temps)

    @pytest.mark.parametrize("model", [rx.Model.NA, rx.Model.VO1, rx.Model.VO1_CVT])
    def test_convex_point_whose_criteria_underflow_is_refused(self, db, model):
        # rho P and P^2 underflow to 0 below about 1e-154 kg/m3; the point was counted as a
        # violation, and the audit of a convex record failed
        with pytest.raises(DomainError, match=re.escape("criteria underflow to zero at rho=1e-200, T=3000.0")):
            rx.audit_record(db.get("NC-13", model), [100.0, 1e-200], [3000.0])
        assert rx.audit_record(db.get("NC-13", model), [1e-160], [3000.0]).passed

    def test_non_convex_point_is_a_violation_even_where_its_criteria_underflow(self):
        # past a rho = -1 the verdict is not convex: counted, never refused; at 1e-300 K the
        # criterion P^2 underflows to 0 as well
        probe = rx.GasParams.virial("probe", R=322.0, a=-0.02, Cv=1640.0)
        assert rx.vo1_convexity(probe, 100.0, rx.vo1_pressure(probe, 100.0, 1e-300), 1e-300).criteria[3] == 0.0
        report = rx.audit_record(probe, [100.0, 200.0], [3000.0, 1e-300])
        assert (report.points, report.violations) == (4, 4)
        assert not report.passed

    def test_noble_abel_counts_covolume_skips(self, nc13_na):
        # 1/b = 673.9 kg/m3: 700 lies beyond it and 670 within 1 % of it
        report = rx.audit_record(nc13_na, [600.0, 670.0, 700.0], [2000.0, 3000.0])
        assert (report.points, report.skipped_rho) == (2, 2)
        assert report.passed

    def test_negative_virial_counts_violations_not_mismatches(self):
        probe = rx.GasParams.virial("probe", R=322.0, a=-0.02, Cv=1640.0)
        report = rx.audit_record(probe, [10.0, 40.0, 70.0, 100.0], [2000.0, 2500.0, 3000.0])
        assert report.points == 12
        assert report.violations > 0 and report.sign_mismatches == 0
        assert not report.passed

    def test_no_point_to_evaluate_is_a_domain_error(self, nc13_na):
        with pytest.raises(DomainError, match="no point to evaluate, all 3 densities"):
            rx.audit_record(nc13_na, [5000.0, 5500.0, 6000.0], [3000.0])


class TestLsqFit3:
    """The Cv(T) least-squares fit, ``redeos.calibration.lsq_fit_3``."""

    def test_exact_rows_recovered(self):
        cv0, c, q = 1000.0, 0.1, 5e5
        temps = [1500.0, 2500.0, 3500.0]
        targets = [cv0 * t + 0.5 * c * t * t + q for t in temps]
        fit = rx.lsq_fit_3(temps, targets)
        assert fit.Cv0 == pytest.approx(cv0, rel=1e-9)
        assert fit.c == pytest.approx(c, rel=1e-9)
        assert fit.q == pytest.approx(q, rel=1e-9)
        assert fit.residual_norm < 1e-6

    def test_noisy_rows_within_two_percent(self):
        import numpy as np

        cv0, c, q = 1000.0, 0.1, 5e5
        rng = np.random.default_rng(4)
        temps = np.linspace(1600.0, 3300.0, 35)
        exact = cv0 * temps + 0.5 * c * temps**2 + q
        noisy = exact * (1.0 + 1e-3 * rng.standard_normal(temps.size))
        fit = rx.lsq_fit_3(temps, noisy)
        assert fit.Cv0 == pytest.approx(cv0, rel=0.02)
        assert fit.c == pytest.approx(c, rel=0.02)
        assert fit.q == pytest.approx(q, rel=0.02)

    def test_equal_temperatures_rank_deficient(self):
        with pytest.raises(RankDeficiencyError):
            rx.lsq_fit_3([2000.0, 2000.0, 2000.0], [1.0, 2.0, 3.0])

    def test_too_few_rows(self):
        with pytest.raises(ValidationError):
            rx.lsq_fit_3([2000.0, 3000.0], [1.0, 2.0])

    def test_residual_invariant_under_rescaled_solver(self):
        import numpy as np

        rng = np.random.default_rng(3)
        temps = np.linspace(1600.0, 3300.0, 20)
        targets = 1200.0 * temps + 0.03 * temps**2 - 1e5 + 50.0 * rng.standard_normal(temps.size)
        fit = rx.lsq_fit_3(temps, targets)
        # raw lstsq as the independent path
        A = np.column_stack([temps, 0.5 * temps**2, np.ones_like(temps)])
        beta, *_ = np.linalg.lstsq(A, targets, rcond=None)
        resid_ref = float(np.linalg.norm(targets - A @ beta))
        assert fit.residual_norm == pytest.approx(resid_ref, rel=1e-10)

    @pytest.mark.parametrize("noise", [0.0, 1e-6], ids=["consistent", "noisy"])
    def test_agrees_with_an_svd_solver(self, noise):
        import numpy as np

        eps = sys.float_info.epsilon
        rng = np.random.default_rng(18)
        conditions = []
        for _ in range(80):
            n = int(rng.integers(3, 40))
            center = rng.uniform(1000.0, 4000.0)
            temps = center + center * 10.0 ** rng.uniform(-2.3, -0.2) * (rng.random(n) - 0.5)
            cv0, c = rng.uniform(500.0, 2000.0), rng.uniform(0.05, 0.2)
            q = rng.choice([-1.0, 1.0]) * rng.uniform(1e5, 1e6)
            targets = (cv0 * temps + 0.5 * c * temps**2 + q) * (1.0 + noise * rng.standard_normal(n))
            # the column-scaled design matrix whose normal matrix the fit solves
            A = np.column_stack((temps * 1e-3, 0.5 * temps**2 * 1e-7, np.ones_like(temps)))
            cond = np.linalg.cond(A.T @ A)
            if cond > 1e9:
                continue
            conditions.append(cond)
            want = np.linalg.lstsq(A, targets, rcond=None)[0] * (1e-3, 1e-7, 1.0)
            fit = rx.lsq_fit_3(temps, targets)
            for got, ref in zip((fit.Cv0, fit.c, fit.q), want):
                assert abs(got - ref) <= 10.0 * eps * cond * abs(ref)
            assert abs(fit.condition - cond) <= eps * cond * cond
        assert len(conditions) >= 20 and max(conditions) > 1e8
