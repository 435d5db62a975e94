import math

import pytest
from hypothesis import given, strategies as st

import redeos as rx
from redeos.errors import DomainError, ModelMismatchError, NumericalError
from redeos.numerics import STEP_FLOOR


class TestPressure:
    def test_calibration_point(self, nc13_vo1):
        # 100 * 322 * 3275 * (1 + 0.2359)
        assert rx.vo1_pressure(nc13_vo1, 100.0, 3275.0) == pytest.approx(130_331_834.5, rel=1e-12)
        assert rx.vo1_pressure(nc13_vo1, 100.0, 3275.0) == pytest.approx(130.33e6, rel=1e-4)

    def test_ideal_gas_limit(self):
        ideal = rx.GasParams.virial("ideal", R=322.0, a=0.0, Cv=1640.5)
        # rho R T = 100 * 322 * 3275
        assert rx.vo1_pressure(ideal, 100.0, 3275.0) == pytest.approx(105_455_000.0, rel=1e-12)

    def test_high_density_extrapolation(self, nc13_vo1):
        # 400 * 322 * 3275 * (1 + 0.9436)
        assert rx.vo1_pressure(nc13_vo1, 400.0, 3275.0) == pytest.approx(819_849_352.0, rel=1e-12)

    @given(st.floats(min_value=1.0, max_value=600.0), st.floats(min_value=1.0, max_value=100.0),
           st.floats(min_value=500.0, max_value=5000.0))
    def test_strictly_increasing_in_density(self, rho, drho, T):
        params = rx.GasParams.virial("probe", R=322.0, a=0.002359, Cv=1640.5)
        assert rx.vo1_pressure(params, rho + drho, T) > rx.vo1_pressure(params, rho, T)


class TestDensity:
    def test_inverts_calibration_pressure(self, nc13_vo1):
        P = rx.vo1_pressure(nc13_vo1, 100.0, 3275.0)
        assert rx.vo1_density(nc13_vo1, P, 3275.0) == pytest.approx(100.0, rel=1e-12)

    def test_ideal_branch(self):
        ideal = rx.GasParams.virial("ideal", R=322.0, a=0.0, Cv=1640.5)
        assert rx.vo1_density(ideal, 105_455_000.0, 3275.0) == pytest.approx(100.0, rel=1e-12)

    def test_inverts_high_density_pressure(self, nc13_vo1):
        assert rx.vo1_density(nc13_vo1, 819_849_352.0, 3275.0) == pytest.approx(400.0, rel=1e-12)

    def test_negative_discriminant(self):
        probe = rx.GasParams.virial("probe", R=322.0, a=-0.02, Cv=1640.5)
        with pytest.raises(NumericalError):
            rx.vo1_density(probe, 1e9, 300.0)

    @given(st.floats(min_value=1.0, max_value=600.0), st.floats(min_value=1500.0, max_value=4500.0),
           st.floats(min_value=1e-6, max_value=0.01))
    def test_round_trip_identity(self, rho, T, a):
        params = rx.GasParams.virial("probe", R=322.0, a=a, Cv=1640.5)
        P = rx.vo1_pressure(params, rho, T)
        assert rx.vo1_density(params, P, T) == pytest.approx(rho, rel=1e-12)

    def test_small_group_branch_continuity(self):
        # both root forms agree at the branch seam
        T = 3000.0
        for a in (1e-14, 1e-12, 1e-10):
            params = rx.GasParams.virial("probe", R=322.0, a=a, Cv=1640.5)
            P = rx.vo1_pressure(params, 120.0, T)
            assert rx.vo1_density(params, P, T) == pytest.approx(120.0, rel=1e-10)


class TestPressureFromEnergy:
    def test_composes_with_caloric_law(self, nc13_vo1):
        e = nc13_vo1.q + nc13_vo1.Cv * 3275.0
        want = rx.vo1_pressure(nc13_vo1, 100.0, 3275.0)
        assert rx.vo1_pressure(nc13_vo1, 100.0, rx.cvt_temperature(nc13_vo1, e)) == pytest.approx(want, rel=1e-15)

    def test_energy_floor(self, nc13_vo1):
        with pytest.raises(DomainError):
            rx.vo1_pressure(nc13_vo1, 100.0, rx.cvt_temperature(nc13_vo1, nc13_vo1.q))

    def test_ideal_gas_reduction(self):
        ideal = rx.GasParams.virial("ideal", R=400.0, a=0.0, Cv=1000.0)
        rho, e = 80.0, 2.5e6
        want = (ideal.R / ideal.Cv) * rho * e   # (gamma - 1) rho e
        assert rx.vo1_pressure(ideal, rho, rx.cvt_temperature(ideal, e)) == pytest.approx(want, rel=1e-12)


class TestDerived:
    def test_gamma_at_mean_calibration_density(self, nc13_vo1):
        # the density-dependent Mayer relation gives the calibration gamma back
        gamma = rx.vo1_cp(nc13_vo1, 125.0, 3275.0) / rx.cvt_cv(nc13_vo1, 3275.0)
        assert gamma == pytest.approx(1.2070, rel=1e-4)

    def test_ideal_limits(self):
        ideal = rx.GasParams.virial("ideal", R=322.0, a=0.0, Cv=1640.5)
        rho, T = 100.0, 3275.0
        P = rx.vo1_pressure(ideal, rho, T)
        d = rx.state_from_P_T(ideal, P, T)
        assert d.Cp == pytest.approx(ideal.Cv + ideal.R, rel=1e-12)
        assert d.gamma == pytest.approx(1.0 + ideal.R / ideal.Cv, rel=1e-12)
        assert d.c == pytest.approx(math.sqrt(d.gamma * P / rho), rel=1e-12)

    def test_sound_speed_against_fd_oracle(self, nc13_vo1):
        rho, T = 100.0, 3275.0
        P = rx.vo1_pressure(nc13_vo1, rho, T)
        oracle = rx.sound_speed_fd_oracle(
            lambda r, t: rx.cvt_energy(nc13_vo1, t),
            lambda r, t: rx.vo1_pressure(nc13_vo1, r, t), rho, T)
        assert rx.vo1_sound_speed(nc13_vo1, P, rho, T) == pytest.approx(math.sqrt(oracle.c2_energy), rel=1e-5)

    def test_enthalpy_forms_agree(self, nc13_vo1):
        # Cv T + P/rho + q equals the expanded closed form through the
        # density root: 2 a P / (-1 + sqrt(1 + 4 a P/(R T)))
        P, T = 130.33e6, 3275.0
        d = rx.state_from_P_T(nc13_vo1, P, T)
        x = 4.0 * nc13_vo1.a * P / (nc13_vo1.R * T)
        h_expanded = nc13_vo1.Cv * T + 2.0 * nc13_vo1.a * P / (-1.0 + math.sqrt(1.0 + x)) + nc13_vo1.q
        assert d.h == pytest.approx(h_expanded, rel=1e-12)

    @pytest.mark.parametrize("kernel", [rx.vo1_cp, lambda p, rho, T: rx.state_from_rho_T(p, rho, T).gamma],
                             ids=["cp", "gamma"])
    @pytest.mark.parametrize("rho, T", [(-1.0, 3275.0), (0.0, 3275.0), (100.0, -5.0), (100.0, math.nan)])
    def test_derived_domain(self, nc13_cvt, kernel, rho, T):
        # a negative density once returned a value
        with pytest.raises(DomainError, match=r"density and temperature must be positive"):
            kernel(nc13_cvt, rho, T)

    def test_cp_at_the_former_pole_is_refused(self, nc13_vo1):
        # once a bare ZeroDivisionError, at 1 + 2 a rho = 0
        with pytest.raises(DomainError, match=r"density and temperature must be positive"):
            rx.vo1_cp(nc13_vo1, -1.0 / (2.0 * nc13_vo1.a), 3275.0)

    @pytest.mark.parametrize("kernel, args, pole", [
        (rx.vo1_cp, (250.0, 3000.0), r"1 \+ 2 a rho = 0: rho=250\.0 \(a rho = -0\.5\)"),
        (lambda p, rho, T: rx.state_from_rho_T(p, rho, T).gamma, (250.0, 3000.0),
         r"1 \+ 2 a rho = 0: rho=250\.0 \(a rho = -0\.5\)"),
        (rx.vo1_sound_speed, (1e8, 500.0, 3000.0), r"1 \+ a rho = 0: rho=500\.0 \(a rho = -1\.0\)"),
    ], ids=["cp", "gamma", "sound_speed"])
    def test_negative_a_pole_is_refused(self, kernel, args, pole):
        # once a bare ZeroDivisionError, at rho = -1/(2a) > 0 and at a rho = -1
        neg = rx.GasParams.virial("neg", R=322.0, a=-0.002, Cv=1640.5)
        with pytest.raises(DomainError, match=f"pole at {pole}$"):
            kernel(neg, *args)

    def test_sound_speed_continuous_as_a_vanishes(self):
        tiny = rx.GasParams.virial("tiny", R=322.0, a=1e-12, Cv=1640.5)
        ideal = rx.GasParams.virial("ideal", R=322.0, a=0.0, Cv=1640.5)
        P, rho, T = 1.3e8, 100.0, 3275.0
        assert rx.vo1_sound_speed(tiny, P, rho, T) == pytest.approx(
            rx.vo1_sound_speed(ideal, P, rho, T), rel=1e-9)


class TestModelGuard:
    @pytest.mark.parametrize("kernel, args", [
        (rx.vo1_cp, (100.0, 3275.0)),
        (rx.vo1_sound_speed, (1.3e8, 100.0, 3275.0)),
        (rx.vo1_convexity, (100.0, 1.3e8, 3275.0)),
    ], ids=["cp", "sound_speed", "convexity"])
    def test_noble_abel_record_is_refused(self, nc13_na, kernel, args):
        with pytest.raises(ModelMismatchError):
            kernel(nc13_na, *args)

    def test_entropy_refuses_cvt_record(self, nc13_cvt):
        with pytest.raises(ModelMismatchError):
            rx.vo1_entropy(nc13_cvt, 1.3e8, 3275.0)


class TestEntropy:
    def test_reference_state_exact(self, nc13_vo1):
        ref = rx.EntropyReference()
        assert rx.vo1_entropy(nc13_vo1, ref.P0, ref.T0, ref) == 0.0
        shifted = rx.EntropyReference(P0=5e5, T0=500.0, s0=-77.7)
        assert rx.vo1_entropy(nc13_vo1, shifted.P0, shifted.T0, shifted) == -77.7

    def test_finite_where_p_t0_overflows(self, nc13_vo1):
        # P T0 overflows above ~6e305 Pa, and the log of inf / inf was nan
        P, T = 1e308, 1e305
        s = rx.vo1_entropy(nc13_vo1, P, T)
        # scaling P and T together keeps u and P/T, so only Cv ln(T/T0) moves
        below = rx.vo1_entropy(nc13_vo1, P / 1e10, T / 1e10)
        assert s - below == pytest.approx(nc13_vo1.Cv * math.log(1e10), rel=1e-12)

    def test_temperature_slope_is_cv_over_t(self, nc13_vo1):
        # at constant density: s(rho, T) through the thermal law
        rho, T = 100.0, 3275.0
        got = rx.fd_derivative(
            lambda t: rx.vo1_entropy(nc13_vo1, rx.vo1_pressure(nc13_vo1, rho, t), t), T, STEP_FLOOR)
        assert got == pytest.approx(nc13_vo1.Cv / T, rel=1e-6)

    def test_pressure_slope_matches_closed_form(self, nc13_vo1):
        P, T = 130.33e6, 3275.0
        got = rx.fd_derivative(lambda p: rx.vo1_entropy(nc13_vo1, p, T), P, STEP_FLOOR)
        assert got == pytest.approx(rx.vo1_entropy_dP(nc13_vo1, P, T), rel=1e-6)

    def test_rejects_ideal_gas(self):
        ideal = rx.GasParams.virial("ideal", R=322.0, a=0.0, Cv=1640.5)
        with pytest.raises(DomainError):
            rx.vo1_entropy(ideal, 1e8, 3000.0)

    def test_pressure_slope_ideal_limit(self):
        # the closed-form slope tends to -R/P as a -> 0
        tiny = rx.GasParams.virial("tiny", R=322.0, a=1e-14, Cv=1640.5)
        P = 1e8
        assert rx.vo1_entropy_dP(tiny, P, 3000.0) == pytest.approx(-tiny.R / P, rel=1e-9)


class TestMaxwellCompatibility:
    def test_residual_on_grid(self, nc13_vo1):
        # (de/drho)_T + T/rho^2 (dP/dT)_rho - P/rho^2, scaled by rho^2,
        # must vanish to 1e-8 P
        for rho in (10.0, 150.0, 400.0, 600.0):
            for T in (1500.0, 3000.0, 4500.0):
                P = rx.vo1_pressure(nc13_vo1, rho, T)
                dedrho = rx.fd_derivative(lambda r: rx.cvt_energy(nc13_vo1, T), rho, 1.0)
                dpdT = rx.fd_derivative(lambda t: rx.vo1_pressure(nc13_vo1, rho, t), T, STEP_FLOOR)
                assert abs(dedrho * rho * rho + T * dpdT - P) < 1e-8 * P


class TestConvexity:
    def test_positive_coefficient_always_convex(self, nc13_vo1):
        for rho in (1.0, 100.0, 600.0):
            P = rx.vo1_pressure(nc13_vo1, rho, 3275.0)
            report = rx.vo1_convexity(nc13_vo1, rho, P, 3275.0)
            assert report.convex
            assert rx.convexity_signs_ok(report.criteria)

    def test_constructed_violation(self):
        probe = rx.GasParams.virial("probe", R=322.0, a=-0.02, Cv=1640.5)
        report = rx.vo1_convexity(probe, 100.0, 1e8, 3000.0)
        assert not report.convex   # a rho = -2

    def test_criteria_signs_at_calibration_state(self, nc13_vo1):
        P = rx.vo1_pressure(nc13_vo1, 100.0, 3275.0)
        a, b, c, d = rx.vo1_convexity(nc13_vo1, 100.0, P, 3275.0).criteria
        assert a > 0 and b > 0 and c < 0 and d > 0

    def test_boundary_is_exact(self):
        # criterion (d) carries the factor 1 + 2 a rho, so the verdict turns at a rho = -1/2
        probe = rx.GasParams.virial("probe", R=322.0, a=-0.01, Cv=1640.5)
        assert not rx.vo1_convexity(probe, 50.0, 1e8, 3000.0).convex       # a rho = -1/2
        assert rx.vo1_convexity(probe, 50.0 * (1 - 1e-12), 1e8, 3000.0).convex

    @pytest.mark.parametrize("rho", [10.0, 49.0, 50.0, 51.0, 75.0, 99.0, 100.0, 150.0])
    def test_verdict_is_the_sign_test_of_its_criteria(self, rho):
        # between a rho = -1 and -1/2 the verdict once said convex while (a) and (d) were negative
        report = rx.vo1_convexity(rx.GasParams.virial("probe", R=322.0, a=-0.01, Cv=1640.5), rho, 1e8, 3000.0)
        assert report.convex == rx.convexity_signs_ok(report.criteria)


#: a rho = -0.875 exactly at 56 kg/m3, where 1 + a rho > 0 but c^2 < 0
_PAST_THE_BOUNDARY = rx.GasParams.virial("probe", R=322.0, a=-0.015625, Cv=1640.0)


@pytest.mark.parametrize("call, raised, message", [
    (lambda na, vo: rx.vo1_density(na, 1e8, 3000.0), ModelMismatchError,
     "operation requires a VO1 or VO1_CVT record, got NA ('NC-13')"),
    (lambda na, vo: rx.vo1_density(vo, 0.0, 3000.0), DomainError,
     "pressure and temperature must be positive, got P=0.0, T=3000.0"),
    (lambda na, vo: rx.vo1_sound_speed(_PAST_THE_BOUNDARY, 1e8, 56.0, 3000.0), DomainError,
     "squared sound speed is not positive at rho=56.0 (a rho = -0.875)"),
    (lambda na, vo: rx.vo1_entropy(vo, -1.0, 3000.0), DomainError,
     "pressure and temperature must be positive, got P=-1.0, T=3000.0"),
    (lambda na, vo: rx.vo1_entropy_dP(na, 1e8, 3000.0), ModelMismatchError,
     "operation requires a VO1 record, got NA ('NC-13')"),
    (lambda na, vo: rx.vo1_entropy_dP(vo, 1e8, 0.0), DomainError,
     "pressure and temperature must be positive, got P=100000000.0, T=0.0"),
    (lambda na, vo: rx.vo1_convexity(vo, 0.0, 1e8, 3000.0), DomainError, "density must be positive, got 0.0"),
], ids=["density-model", "density-P", "sound-speed-c2", "entropy-P", "entropy-dP-model", "entropy-dP-T",
        "convexity-rho"])
def test_refusals_name_their_input(nc13_na, nc13_vo1, call, raised, message):
    with pytest.raises(raised) as info:
        call(nc13_na, nc13_vo1)
    assert (type(info.value), str(info.value)) == (raised, message)
