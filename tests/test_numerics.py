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

    def test_iteration_budget(self, monkeypatch):
        # the budget is the library's one constant, so the test lowers it rather than passing one
        assert numerics._ROOT_MAX_ITER == 200
        monkeypatch.setattr(numerics, "_ROOT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match=r"^no convergence within 1 iterations "):
            rx.solve_monotone(lambda x: (x**3 - 2.0, None), 0.0, 10.0)

    @pytest.mark.parametrize("slope", [None, lambda x: 3.0 * x * x])
    def test_reversed_bracket_is_the_ordered_bracket(self, slope):
        # hi < lo swaps the ends: the same evaluations, root and iteration count as the ordered call
        def traced(seen):
            return lambda x: seen.append(x) or (x**3 - 2.0, slope and slope(x))

        ordered, reversed_ = [], []
        want = rx.solve_monotone(traced(ordered), 0.0, 10.0, x0=3.0)
        got = rx.solve_monotone(traced(reversed_), 10.0, 0.0, x0=3.0)
        assert abs(want.root - 2.0 ** (1.0 / 3.0)) <= 1e-13 * want.root and want.iterations > 1
        assert (got.root.hex(), got.iterations) == (want.root.hex(), want.iterations)
        assert reversed_ == ordered and ordered[:2] == [0.0, 10.0]

    def test_newton_path_reports_iterations(self):
        result = rx.solve_monotone(lambda x: (x * x - 2.0, 2.0 * x), 0.0, 2.0, x0=1.5)
        assert result.root == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert result.iterations <= 8

    def test_converged_newton_step_is_returned_unevaluated(self):
        # from 1.5 the fourth step moves by 1.6e-12, below sqrt(0.1 tol_rel) |x|: it is returned
        # without a fifth evaluation, where the step itself once had to fall below tol_rel |x|;
        # the two other evaluations are the ends, read before the first step
        seen = []

        def g(x):
            seen.append(x)
            return x * x - 2.0, 2.0 * x

        result = rx.solve_monotone(g, 0.0, 2.0, x0=1.5)
        assert abs(result.root - math.sqrt(2.0)) <= 1e-13 * math.sqrt(2.0)
        assert result.iterations == 4 and len(seen) == 6 and seen[:2] == [0.0, 2.0]
        assert result.root not in seen

    def test_same_sign_bracket_rejected_before_a_newton_step(self):
        # the slope is good and its step to -5 would leave [0, 10], but the ends are read first
        seen = []

        def g(x):
            seen.append(x)
            return x + 5.0, 1.0

        with pytest.raises(BracketError):
            rx.solve_monotone(g, 0.0, 10.0, x0=5.0)
        assert seen == [0.0, 10.0]

    @pytest.mark.parametrize("root", [0.0, 10.0])
    def test_root_at_an_end_is_returned_after_no_iteration(self, root):
        assert rx.solve_monotone(lambda x: (x - root, 1.0), 0.0, 10.0, x0=5.0) == (root, 0)

    @pytest.mark.parametrize("slope", [math.nan, math.inf, 0.0])
    def test_unusable_slope_falls_back_to_the_bracket(self, slope):
        seen = []

        def g(x):
            seen.append(x)
            return x - 2.0, slope

        result = rx.solve_monotone(g, 0.0, 10.0, x0=7.0)
        assert result.root == pytest.approx(2.0, rel=1e-12)
        assert 0.0 in seen and 10.0 in seen

    def test_wide_positive_bracket_reaches_a_root_near_its_bottom(self):
        # a volume-like residual, 1/x, slope-less on a bracket of 110 decades: an absolute stop
        # floor of 1e-15 of the bracket, 1e85, once returned 7.9e80 for the root 1e-8, and a
        # secant step that barely moved stopped such solves on its own size as well
        result = rx.solve_monotone(lambda x: (1.0 / x - 1e8, None), 1e-10, 1e100)
        assert abs(result.root - 1e-8) <= 1e-13 * 1e-8

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
        # 5 pressures for the partials and 1 per inversion: each of the 4 starts from the
        # oracle's own linearisation, and its first Newton step on P_T is returned as
        # converged; the inversions once took 26 pressures, their brackets included, and
        # Richardson-extrapolated differences took 17 pressures and 16 energies
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
        assert calls == {"P": 9, "e": 8}

    def test_evaluations_at_the_covolume_skip_edge(self, nc13_na):
        # at rho = 1/(1.01 b), where the audit starts to skip densities, the two
        # constant-pressure seeds lie 1.01e-4 T from T, outside the slope's neighbourhood;
        # they take 4 and 5 pressures by secant on the one wide bracket, 16 in all (15 while a
        # secant step could stop on its own size, not the bracket's), where the Richardson
        # differences took 23 and a re-solve on a widened bracket once took 31
        calls = []

        def p_fn(rho, T):
            calls.append(T)
            return rx.na_pressure_vt(nc13_na, 1.0 / rho, T)

        rx.sound_speed_fd_oracle(lambda r, t: rx.cvt_energy(nc13_na, t), p_fn, 1.0 / (1.01 * nc13_na.b), 3000.0)
        assert len(calls) == 16

    def test_inversion_out_of_budget_names_the_point(self, nc13_na, monkeypatch):
        # the inversions at the covolume skip edge reach solve_monotone; a budget it runs out of
        # is reported at the oracle's (rho, T), not at the inversion's bracket
        def exhausted(*args, **kw):
            raise ConvergenceError("no convergence within 200 iterations (bracket [300, 30000])")

        monkeypatch.setattr(numerics, "solve_monotone", exhausted)
        rho = 1.0 / (1.01 * nc13_na.b)
        with pytest.raises(NumericalError) as caught:
            rx.sound_speed_fd_oracle(lambda r, t: rx.cvt_energy(nc13_na, t),
                                     lambda r, t: rx.na_pressure_vt(nc13_na, 1.0 / r, t), rho, 3000.0)
        assert type(caught.value) is NumericalError
        assert str(caught.value) == f"the difference oracle's temperature inversions fail at rho={rho!r}, T=3000.0"

    def test_forms_agree(self, nc13_vo1):
        oracle = rx.sound_speed_fd_oracle(
            lambda r, t: rx.cvt_energy(nc13_vo1, t),
            lambda r, t: rx.vo1_pressure(nc13_vo1, r, t),
            250.0, 2500.0)
        assert oracle.rel_disagreement < 1e-6


def _curved_pressure(rho, T):
    return rho * 322.0 * T + 50.0 * T**1.5


_CURVED_P_T = 200.0 * 322.0 + 75.0 * 3000.0**0.5  # at (200 kg/m3, 3000 K)


def _invert_curved(target, slope_scale):
    """The inversion at (200 kg/m3, 3000 K) from T_guess with ``slope_scale`` times the true P_T."""
    return numerics._invert_temperature(_curved_pressure, 200.0, target, 3000.0, slope_scale * _CURVED_P_T, 3000.0)


class TestTemperatureInversion:
    """Edge paths of the inversion behind the oracle's constant-P and constant-rho paths.

    Each starts at T_guess = 3000 K on the bracket [300 K, 30000 K], with P_T
    as the slope only within 0.3 K of T_guess.
    """

    @pytest.mark.parametrize("T_true", [777.7, 23456.7], ids=["widen-below", "widen-above"])
    def test_guess_far_off_widens_the_bracket(self, T_true):
        # far from T_guess the slope is not used, so a wrong one does not stop the solve early
        for slope_scale in (1.0, 0.5, 0.7, 1.5):
            got = _invert_curved(_curved_pressure(200.0, T_true), slope_scale)
            assert abs(got - T_true) <= 1e-13 * T_true

    @pytest.mark.parametrize("end, slope_scale", [
        (300.0, 0.5), (30000.0, 0.5), (300.0, 1.0), (30000.0, 1.5),
    ], ids=["first-low", "first-high", "without-slope-low", "without-slope-high"])
    def test_zero_residual_at_a_bracket_end_returns_that_end(self, end, slope_scale):
        # the ends are read when the first Newton step leaves the bracket, or when a step
        # lands too far from T_guess for the slope and a secant step needs them
        assert _invert_curved(_curved_pressure(200.0, end), slope_scale).hex() == end.hex()

    def test_seeded_start_takes_one_evaluation(self):
        seen = []

        def p_fn(rho, T):
            seen.append(T)
            return _curved_pressure(rho, T)

        P = _curved_pressure(200.0, 3000.0)
        target = P * (1.0 + 1e-6)
        start = 3000.0 + (target - P) / _CURVED_P_T  # the oracle's seed at constant density
        got = numerics._invert_temperature(p_fn, 200.0, target, 3000.0, _CURVED_P_T, start)
        assert len(seen) == 1
        assert abs(_curved_pressure(200.0, got) - target) <= 1e-13 * target

    @pytest.mark.parametrize("P_T", [0.0, math.inf, -math.inf, math.nan], ids=["zero", "inf", "-inf", "nan"])
    def test_unusable_slope_falls_back_to_the_solver(self, P_T):
        # from the seeded start, a zero slope would divide by zero and an infinite one would
        # return the start unconverged; both, and nan, leave the root to the slope-less solve,
        # whose root leaves a residual of 1.5e-16 P (4.4e-16 while a secant step could stop
        # on its own size)
        P = _curved_pressure(200.0, 3000.0)
        target = P * (1.0 + 1e-6)
        start = 3000.0 + (target - P) / _CURVED_P_T
        got = numerics._invert_temperature(_curved_pressure, 200.0, target, 3000.0, P_T, start)
        assert got.hex() == "0x1.77001815b47d1p+11"

    @pytest.mark.parametrize("p_fn, target, side", [
        (_curved_pressure, -1.0, "below"),
        (lambda rho, T: min(T, 5000.0), 1e4, "above"),
    ])
    def test_no_bracket_is_a_numerical_error(self, p_fn, target, side):
        # the target lies below (above) the pressures of the whole bracket: both residuals
        # are positive (negative)
        sign = "" if side == "below" else "-"
        with pytest.raises(BracketError, match=rf"= {sign}\d.* = {sign}\d.* have the same sign") as caught:
            numerics._invert_temperature(p_fn, 200.0, target, 3000.0, 1.0, 3000.0)
        assert isinstance(caught.value, NumericalError)


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


_fd_convexity = numerics.FdPartials.convexity


def _flipped_fd_convexity(partials):
    """The oracle's convexity report with criterion (b) negated, as a non-convex law would give it."""
    a, b, c, d = _fd_convexity(partials).criteria
    return rx.ConvexityReport(convex=False, criteria=(a, -b, c, d))


_BUILTIN_RECORDS = [
    (name, model) for name in ("NC-13", "RDX", "HMX", "NG") for model in (rx.Model.NA, rx.Model.VO1)
] + [("NC-13", rx.Model.VO1_CVT)]


_BELOW_STEP = "{0} {1} does not exceed its difference step 2.2250738585072014e-308 {1}"


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

    @pytest.mark.parametrize("model", [rx.Model.NA, rx.Model.VO1, rx.Model.VO1_CVT])
    def test_evaluations_per_evaluated_point(self, monkeypatch, db, model):
        # the budget of a default-grid point: the oracle's 9 pressures (5 for the partials, 1 per
        # inversion) and 8 energies, and with the point's own pressure 10 pressures in the audit
        params = db.get("NC-13", model)
        laws = rx.state.LAWS[model]
        calls = {"P": 0, "e": 0}

        def e_fn(rho, T):
            calls["e"] += 1
            return rx.cvt_energy(params, T)

        def p_fn(rho, T):
            calls["P"] += 1
            return laws.pressure(params, rho, T)

        rx.sound_speed_fd_oracle(e_fn, p_fn, 210.0, 3000.0)
        assert calls == {"P": 9, "e": 8}
        calls.update(P=0, e=0)
        monkeypatch.setitem(rx.state.LAWS, model, laws._replace(pressure=lambda *args: p_fn(*args[1:])))
        monkeypatch.setattr(numerics.virial_cvt, "cvt_energy", lambda params, T: e_fn(None, T))
        report = rx.audit_record(params, _parse_range("10:600:50"), _parse_range("1500:4500:250"))
        assert (report.points, report.violations) == (156, 0)
        assert calls == {"P": 10 * 156, "e": 8 * 156}

    @pytest.mark.parametrize("material, model, residuals", [
        ("NC-13", rx.Model.NA, ("0x1.61b87cd71f9cfp-33", "0x1.ffb73f0d968c2p-34", "0x1.9f9e485e839efp-33")),
        ("NC-13", rx.Model.VO1, ("0x1.664035b5d7178p-33", "0x1.098342404e8c5p-33", "0x1.f060bfb7fe7cep-33")),
        ("RDX", rx.Model.NA, ("0x1.44841562d818bp-33", "0x1.079894a894bc5p-33", "0x1.d554f81b79335p-33")),
        ("RDX", rx.Model.VO1, ("0x1.d2f2c7e79c491p-33", "0x1.fc2b03c6d519ep-34", "0x1.1426816ddd637p-32")),
        ("HMX", rx.Model.NA, ("0x1.bf1d4cdc8082fp-33", "0x1.e55d66bbb29aap-34", "0x1.9f35504c26066p-33")),
        ("HMX", rx.Model.VO1, ("0x1.54f30098842dcp-33", "0x1.46b4e81063be3p-33", "0x1.d7256ddf03984p-33")),
        ("NG", rx.Model.NA, ("0x1.40bbabf070784p-33", "0x1.4dbb68306a0e7p-33", "0x1.002c49f884150p-32")),
        ("NG", rx.Model.VO1, ("0x1.6ab6786655999p-33", "0x1.18bf5cff38d0cp-33", "0x1.c89e053966119p-33")),
        ("NC-13", rx.Model.VO1_CVT, ("0x1.664035b5d7178p-33", "0x1.79b82a8593d88p-33", "0x1.85b9191b4936ep-32")),
    ])
    def test_default_grid_residuals_are_pinned(self, db, material, model, residuals):
        # the bits of the 156-point default grid of `eos audit`, as the seeded inversions
        # and single central differences give them; the Maxwell residual takes no
        # inversion, but its P_T and e_rho moved with the difference rule
        report = rx.audit_record(db.get(material, model), _parse_range("10:600:50"), _parse_range("1500:4500:250"))
        assert (report.points, report.skipped_rho) == (156, 0)
        assert (report.sign_mismatches, report.violations) == (0, 0)
        assert tuple(x.hex() for x in report.residuals) == residuals

    @pytest.mark.parametrize("material, model", _BUILTIN_RECORDS)
    def test_default_grid_oracle_error_is_below_1e_8(self, db, material, model):
        # inversions solved to tol_rel = 1e-13 left up to 4e-8 in c and 8e-8 between the
        # oracle's forms (the 1e-6 difference step amplifies them); seeded ones leave < 1e-9
        report = rx.audit_record(db.get(material, model), _parse_range("10:600:50"), _parse_range("1500:4500:250"))
        assert report.points == 156 and report.passed
        assert report.sound_speed <= 1e-8 and report.forms <= 1e-8

    @pytest.mark.parametrize("material, model", _BUILTIN_RECORDS)
    def test_default_grid_oracle_error_is_below_5e_10(self, db, material, model):
        # one central difference leaves at most 1.7e-10 in c and 3.5e-10 between the forms;
        # the Richardson pass amplified rounding to 4.2e-10 and 7.9e-10
        report = rx.audit_record(db.get(material, model), _parse_range("10:600:50"), _parse_range("1500:4500:250"))
        assert report.sound_speed <= 5e-10 and report.forms <= 5e-10

    def test_near_the_covolume_every_residual_is_below_1e_7(self, nc13_na):
        # the O(h^2) truncation grows as 1/rho nears b: the forms residual reaches 8.2e-9 at
        # 1/rho = 1.0101 b, still 120 times below its limit; the Richardson pass left 3.1e-10
        rhos = [1.0 / (k * nc13_na.b) for k in (1.0101, 1.05, 2.0)]
        report = rx.audit_record(nc13_na, rhos, [300.0, 3000.0, 1e5])
        assert (report.points, report.skipped_rho) == (9, 0) and report.passed
        assert max(report.residuals) <= 1e-7

    @pytest.mark.parametrize("material, model, rho, T", [
        ("NC-13", rx.Model.VO1, 0.01, 1e303),
        ("RDX", rx.Model.NA, 0.041467826828875134, 1.4416867988549154e+304),
    ])
    def test_non_finite_oracle_is_a_numerical_error(self, db, material, model, rho, T):
        # max() once dropped a nan residual at such a point, and the audit passed; the RDX
        # point gave c^2 = nan with the Richardson pass
        with pytest.raises(NumericalError, match=re.escape(f"c^2 = inf at rho={rho!r}, T={T!r}")):
            rx.audit_record(db.get(material, model), [rho], [T])

    def test_point_whose_richardson_pass_overflowed_audits(self, db):
        # 4 d2 of the extrapolation overflowed here, and the oracle's c^2 was inf
        assert rx.audit_record(db.get("NC-13", rx.Model.VO1), [0.001004133605308749], [6.810794049859548e+301]).passed

    @pytest.mark.parametrize("model", [rx.Model.NA, rx.Model.VO1, rx.Model.VO1_CVT])
    def test_overflowing_pressure_is_a_numerical_error(self, db, model):
        # a nan inversion start reached the law, and a DomainError named T=nan, an internal probe
        with pytest.raises(NumericalError, match=re.escape("the pressure is not finite at rho=100.0, T=1e+304")):
            rx.audit_record(db.get("NC-13", model), [100.0, 200.0], [3000.0, 1e304])

    @pytest.mark.parametrize("model, T", [
        (rx.Model.NA, 4.5173069e303), (rx.Model.VO1, 4.5172727e303), (rx.Model.VO1_CVT, 4.5172727e303),
    ])
    def test_pressure_overflowing_at_a_difference_point_is_a_numerical_error(self, db, model, T):
        # P is finite within 1e-6 below its overflow, but not at rho + h: the seed of a
        # constant-pressure inversion was inf/inf, and the law refused T=nan as a DomainError
        with pytest.raises(NumericalError):
            rx.audit_record(db.get("NC-13", model), [100.0], [T])

    @pytest.mark.parametrize("model, T", [
        (rx.Model.NA, 4.5173069e303), (rx.Model.NA, 4.5173046e303), (rx.Model.VO1, 4.51727e303),
        (rx.Model.VO1, 4.5172695e303), (rx.Model.VO1_CVT, 4.5173069e303),
    ])
    def test_oracle_inversion_that_cannot_bracket_names_the_grid_point(self, db, model, T):
        # P is finite, but P_T or the inversion target P + h overflows: a BracketError once
        # named the bracket, g(4.51731e+302) = -inf and g(4.51731e+304) = nan
        with pytest.raises(NumericalError) as raised:
            rx.audit_record(db.get("NC-13", model), [100.0], [T])
        assert type(raised.value) is NumericalError
        assert f"at rho=100.0, T={T!r}" in str(raised.value)

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

    @pytest.mark.parametrize("model, rhos, temps, error", [
        (model, rhos, temps, error) for model, positive in (
            (rx.Model.NA, "temperature must be positive, got -5.0"),
            (rx.Model.VO1, "density and temperature must be positive, got rho={rho}, T=-5.0"),
            (rx.Model.VO1_CVT, "density and temperature must be positive, got rho={rho}, T=-5.0"),
        ) for rhos, temps, error in (
            # the law refuses the point before its subnormal density is checked
            ([1e-320], [-5.0, 3000.0], positive.format(rho=1e-320)),
            ([1e-320], [3000.0, -5.0], _BELOW_STEP.format("density 1e-320", "kg/m3")),
            ([100.0, 1e-320], [3000.0, -5.0], positive.format(rho=100.0)),
            ([100.0, 200.0], [3000.0, 1e-310], _BELOW_STEP.format("temperature 1e-310", "K")),
            ([100.0, 1e-310], [3000.0, 4000.0], _BELOW_STEP.format("density 1e-310", "kg/m3")),
            ([100.0, 1e-320], [1e-310, 3000.0], _BELOW_STEP.format("temperature 1e-310", "K")),
            ([1e-310], [1e-310], _BELOW_STEP.format("density 1e-310", "kg/m3")),
            ([200.0, -1.0], [3000.0, 1e-310], _BELOW_STEP.format("temperature 1e-310", "K")),
        )
    ])
    def test_first_refusal_on_the_grid_is_reported(self, db, model, rhos, temps, error):
        # the grid runs rho by rho, T within; at each point the law is evaluated first, then the
        # density and the temperature are checked against their difference steps
        with pytest.raises(DomainError) as raised:
            rx.audit_record(db.get("NC-13", model), rhos, temps)
        assert type(raised.value) is DomainError and str(raised.value) == error

    @pytest.mark.parametrize("material, model", [(m, model) for m, model in _BUILTIN_RECORDS if model is not rx.Model.NA])
    def test_virial_records_show_no_mismatch_up_to_1e150_kg_m3(self, db, material, model):
        # the oracle's criterion (d) was a bracket whose terms of size R a rho^2 T cancel: from
        # rho ~ 2e19 kg/m3 up its sign was rounding noise, and about 700 of these 2,402 points
        # were counted as mismatches on every virial record
        rhos = [10.0 ** (k / 4) for k in range(-600, 601)]
        report = rx.audit_record(db.get(material, model), rhos, [300.0, 3000.0])
        assert (report.points, report.sign_mismatches, report.violations) == (2402, 0, 0)
        assert report.passed

    @pytest.mark.parametrize("model", [rx.Model.NA, rx.Model.VO1, rx.Model.VO1_CVT])
    def test_convex_point_whose_criteria_underflow_is_refused(self, db, model):
        # rho P and P^2 underflow to 0 below about 1e-154 kg/m3; the point was counted as a
        # violation, and the audit of a convex record failed
        with pytest.raises(DomainError, match=re.escape("criteria underflow to zero at rho=1e-200, T=3000.0")):
            rx.audit_record(db.get("NC-13", model), [100.0, 1e-200], [3000.0])
        assert rx.audit_record(db.get("NC-13", model), [1e-160], [3000.0]).passed

    @pytest.mark.parametrize("model, rho, T", [
        (rx.Model.NA, 5.623413251903491e-165, 300.0),
        (rx.Model.VO1_CVT, 5.623413251903491e-165, 300.0),
        (rx.Model.VO1, 1.7782794100389227e69, 1e-300),
    ])
    def test_criteria_underflow_through_subnormals_is_a_domain_error(self, db, model, rho, T):
        # P^2 or rho P is subnormal here, not zero, and the criterion built on it underflows; the
        # factors of (rho, T) in the criteria are all finite, so no overflow is reported
        with pytest.raises(DomainError, match=re.escape(f"criteria underflow to zero at rho={rho!r}, T={T!r}")):
            rx.audit_record(db.get("NC-13", model), [rho], [T])

    @pytest.mark.parametrize("material, model, rho, T", [
        ("NC-13", rx.Model.VO1, 5.623413251903491e152, 300.0),
        ("NG", rx.Model.VO1, 1e153, 300.0),
        ("NC-13", rx.Model.VO1, 5.6234132519034906e156, 1e-10),
        ("NC-13", rx.Model.VO1_CVT, 1e-200, 1.7e308),
        ("NC-13", rx.Model.VO1, 1e157, 1e-300),
    ])
    def test_convex_point_whose_criteria_overflow_to_zero_is_numerical(self, db, material, model, rho, T):
        # criterion (b)'s rho R Cv (1 + a rho), or (d)'s R Cv(T) or (1 + a rho)^2, overflows to inf at a
        # finite P, so the criterion is 0; the audit once refused it as an underflow with a DomainError,
        # and the last point raised a bare OverflowError from (1 + a rho) ** 2
        params = db.get(material, model)
        assert 0.0 in rx.vo1_convexity(params, rho, rx.vo1_pressure(params, rho, T), T).criteria
        with pytest.raises(NumericalError, match=re.escape(f"criteria overflow at rho={rho!r}, T={T!r}")):
            rx.audit_record(params, [rho], [T])

    def test_squared_density_underflow_is_numerical(self, db):
        # rho^2 underflows to zero in the oracle's Cp; a bare ZeroDivisionError escaped
        with pytest.raises(NumericalError, match=re.escape("oracle divides by zero at rho=1e-162, T=3000.0")):
            rx.audit_record(db.get("NC-13", rx.Model.VO1), [1e-162], [3000.0])

    def test_convex_point_whose_criteria_overflow_to_nan_is_refused(self, db):
        # P^2 and R Cv(T) (1 + a rho)^2 both overflow, so criterion (d) is inf/inf; the point was
        # counted as a violation, and the audit of a convex record failed with every residual 0
        with pytest.raises(NumericalError, match=re.escape("criteria are nan at rho=1e-10, T=1.7e+307")):
            rx.audit_record(db.get("NC-13", rx.Model.VO1_CVT), [1e-10], [1.7e307])

    def test_non_convex_point_at_a_pole_is_a_violation(self):
        # at a rho = -1 the pressure is 0 and _div gives criterion (b) as 0/0 = nan: counted, not refused
        probe = rx.GasParams.virial("probe", R=322.0, a=-0.5, Cv=1640.0)
        assert math.isnan(rx.vo1_convexity(probe, 2.0, 0.0, 3000.0).criteria[1])
        report = rx.audit_record(probe, [0.5, 2.0], [3000.0])
        assert (report.points, report.violations, report.sign_mismatches) == (2, 1, 0)
        assert not report.passed

    def test_criteria_of_other_sign_than_the_oracle_are_mismatches(self, db, monkeypatch):
        monkeypatch.setattr(numerics.FdPartials, "convexity", _flipped_fd_convexity)
        report = rx.audit_record(db.get("NC-13", rx.Model.VO1), [50.0, 325.0, 600.0], [1500.0, 3000.0])
        assert report.violations == 0 and report.sign_mismatches == report.points == 6
        assert report.passed is False

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
