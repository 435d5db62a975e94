import math

import pytest
from hypothesis import given, strategies as st

import redeos as rx
from redeos.errors import DomainError, ModelMismatchError
from redeos.numerics import STEP_FLOOR


class TestPressure:
    def test_calibration_point(self, nc13_na):
        # published parameters round-trip the closed-bomb table
        assert rx.na_pressure_vt(nc13_na, 0.01, 3275.0) == pytest.approx(130.33e6, rel=1e-4)

    def test_ideal_gas_limit(self):
        ideal = rx.GasParams.noble_abel("ideal", R=338.9, b=0.0, Cv=1637.1)
        # R T / v = 338.9 * 3275 / 0.01
        assert rx.na_pressure_vt(ideal, 0.01, 3275.0) == pytest.approx(110_989_750.0, rel=1e-12)

    def test_high_density_extrapolation(self, nc13_na):
        # direct evaluation at rho = 400: 338.9 * 3275 / (0.0025 - 0.001484)
        assert rx.na_pressure_vt(nc13_na, 0.0025, 3275.0) == pytest.approx(1_092_418_799.2, rel=1e-9)

    def test_covolume_violation(self, nc13_na):
        with pytest.raises(DomainError):
            rx.na_pressure_vt(nc13_na, nc13_na.b, 3275.0)
        with pytest.raises(DomainError):
            rx.na_pressure_vt(nc13_na, 0.5 * nc13_na.b, 3275.0)

    @given(st.floats(min_value=0.002, max_value=0.1), st.floats(min_value=1e-5, max_value=0.05),
           st.floats(min_value=500.0, max_value=5000.0))
    def test_strictly_decreasing_in_volume(self, v, dv, T):
        params = rx.GasParams.noble_abel("probe", R=340.0, b=0.0015, Cv=1640.0)
        assert rx.na_pressure_vt(params, v + dv, T) < rx.na_pressure_vt(params, v, T)


class TestCaloric:
    def test_energy_at_flame_temperature(self, nc13_na):
        # Cv * T with the published Cv; matches the tabulated effective energy scale
        assert rx.cvt_energy(nc13_na, 3275.0) == pytest.approx(5.3615e6, rel=1e-4)

    def test_unit_inversion(self, nc13_na):
        e = nc13_na.q + nc13_na.Cv * 1.0
        assert rx.cvt_temperature(nc13_na, e) == pytest.approx(1.0, rel=1e-14)

    def test_round_trip(self, nc13_na):
        e = rx.cvt_energy(nc13_na, 3275.0)
        assert rx.cvt_temperature(nc13_na, e) == pytest.approx(3275.0, rel=1e-15)

    def test_energy_floor(self, nc13_na):
        with pytest.raises(DomainError):
            rx.cvt_temperature(nc13_na, nc13_na.q)


class TestPressureFromEnergy:
    def test_composes_with_caloric_inverse(self, nc13_na):
        e = rx.cvt_energy(nc13_na, 3275.0)
        want = rx.na_pressure_vt(nc13_na, 0.01, 3275.0)
        assert rx.na_pressure_vt(nc13_na, 0.01, rx.cvt_temperature(nc13_na, e)) == pytest.approx(want, rel=1e-14)
        assert rx.na_pressure_vt(nc13_na, 0.01, rx.cvt_temperature(nc13_na, e)) == pytest.approx(130.33e6, rel=1e-4)

    def test_zero_temperature_boundary(self, nc13_na):
        with pytest.raises(DomainError):
            rx.na_pressure_vt(nc13_na, 0.01, rx.cvt_temperature(nc13_na, nc13_na.q))

    def test_domain_errors_name_the_input(self, nc13_na):
        with pytest.raises(DomainError, match=r"internal energy -1\.0 J/kg does not exceed the reference q = 0\.0"):
            rx.na_pressure_vt(nc13_na, 0.01, rx.cvt_temperature(nc13_na, -1.0))
        with pytest.raises(DomainError, match=r"specific volume 0\.001 m3/kg does not exceed the covolume"):
            rx.na_pressure_vt(nc13_na, 0.001, rx.cvt_temperature(nc13_na, 5e6))

    @given(st.floats(min_value=5.0, max_value=650.0), st.floats(min_value=1e4, max_value=1e7),
           st.sampled_from([0.0, -412345.6789, 287123.4567]))
    def test_is_the_thermal_law_at_the_caloric_temperature(self, rho, E, q):
        # one P(rho, e) rule: the state builder and the composition agree bit for bit
        params = rx.GasParams.noble_abel("p", R=338.9, b=0.001484, Cv=1637.1, q=q)
        v, e = 1.0 / rho, q + E
        assert rx.na_pressure_vt(params, v, rx.cvt_temperature(params, e)) == rx.state_from_rho_e(params, rho, e).P

    def test_ideal_gas_reduction(self):
        # with b = 0 and q = 0 the law collapses to P = (gamma - 1) rho e
        ideal = rx.GasParams.noble_abel("ideal", R=400.0, b=0.0, Cv=1000.0)
        gamma = 1.0 + ideal.R / ideal.Cv
        rho, e = 50.0, 3e6
        P = rx.na_pressure_vt(ideal, 1.0 / rho, rx.cvt_temperature(ideal, e))
        assert P == pytest.approx((gamma - 1.0) * rho * e, rel=1e-12)


class TestDerived:
    def test_volume_inverts_pressure(self, nc13_na):
        P = rx.na_pressure_vt(nc13_na, 0.01, 3275.0)
        assert rx.state_from_P_T(nc13_na, P, 3275.0).v == pytest.approx(0.01, rel=1e-12)

    def test_gamma(self, nc13_na):
        # 1 + 338.9/1637.1
        assert rx.na_gamma(nc13_na) == pytest.approx(1.2070, rel=1e-4)

    def test_sound_speed_value(self, nc13_na):
        # gamma P / rho / (1 - rho b) at the calibration state, c about 1359 m/s
        P = rx.na_pressure_vt(nc13_na, 0.01, 3275.0)
        d = rx.state_from_P_T(nc13_na, P, 3275.0)
        assert d.c == pytest.approx(1359.13, rel=1e-4)

    def test_sound_speed_against_fd_oracle(self, nc13_na):
        rho, T = 100.0, 3275.0
        P = rx.na_pressure_vt(nc13_na, 1.0 / rho, T)
        oracle = rx.sound_speed_fd_oracle(
            lambda r, t: rx.cvt_energy(nc13_na, t),
            lambda r, t: rx.na_pressure_vt(nc13_na, 1.0 / r, t), rho, T)
        assert rx.na_sound_speed(nc13_na, P, rho) == pytest.approx(math.sqrt(oracle.c2_energy), rel=1e-5)

    def test_sound_speed_against_isentrope_path(self, nc13_na):
        # third, fully independent route: build the isentrope through the
        # entropy function and difference the pressure along it
        rho, T = 100.0, 3275.0
        s0 = rx.na_entropy_vt(nc13_na, 1.0 / rho, T)

        def temperature_on_isentrope(r):
            return rx.solve_monotone(
                lambda t: (rx.na_entropy_vt(nc13_na, 1.0 / r, t) - s0, None),
                0.25 * T, 4.0 * T).root

        h = 1e-4 * rho
        P_plus = rx.na_pressure_vt(nc13_na, 1.0 / (rho + h), temperature_on_isentrope(rho + h))
        P_minus = rx.na_pressure_vt(nc13_na, 1.0 / (rho - h), temperature_on_isentrope(rho - h))
        c_fd = math.sqrt((P_plus - P_minus) / (2.0 * h))
        P = rx.na_pressure_vt(nc13_na, 1.0 / rho, T)
        assert rx.na_sound_speed(nc13_na, P, rho) == pytest.approx(c_fd, rel=1e-5)

    def test_enthalpy_definition(self, nc13_na):
        P, T = 130.33e6, 3275.0
        d = rx.state_from_P_T(nc13_na, P, T)
        assert d.h == pytest.approx(rx.cvt_energy(nc13_na, T) + P * d.v, rel=1e-12)
        assert d.Cp == nc13_na.R + nc13_na.Cv

    @pytest.mark.parametrize("P, T", [(-1.3e8, 3275.0), (0.0, 3275.0), (1.3e8, -5.0), (1.3e8, math.nan)])
    def test_enthalpy_domain(self, nc13_na, P, T):
        with pytest.raises(DomainError, match=r"pressure and temperature must be positive"):
            rx.state_from_P_T(nc13_na, P, T).h


class TestEntropy:
    def test_reference_state_exact(self, nc13_na):
        ref = rx.EntropyReference(P0=101325.0, T0=298.15, s0=0.0)
        assert rx.na_entropy(nc13_na, ref.P0, ref.T0, ref) == 0.0
        shifted = rx.EntropyReference(P0=2e5, T0=400.0, s0=123.456)
        assert rx.na_entropy(nc13_na, shifted.P0, shifted.T0, shifted) == 123.456

    def test_temperature_slope_is_cv_over_t(self, nc13_na):
        # (ds/dT) at constant volume must equal Cv/T
        v, T = 0.01, 3275.0
        got = rx.fd_derivative(lambda t: rx.na_entropy_vt(nc13_na, v, t), T, STEP_FLOOR)
        assert got == pytest.approx(nc13_na.Cv / T, rel=1e-6)

    def test_pressure_slope_is_minus_r_over_p(self, nc13_na):
        P, T = 130.33e6, 3275.0
        got = rx.fd_derivative(lambda p: rx.na_entropy(nc13_na, p, T), P, STEP_FLOOR)
        assert got == pytest.approx(-nc13_na.R / P, rel=1e-6)


class TestIdealGasReduction:
    def test_b_to_zero_matches_ideal_formulas(self):
        params = rx.GasParams.noble_abel("ideal", R=320.0, b=0.0, Cv=1600.0)
        rho, T = 150.0, 2800.0
        gamma = 1.0 + params.R / params.Cv
        P = rx.na_pressure_vt(params, 1.0 / rho, T)
        assert P == pytest.approx(rho * params.R * T, rel=1e-12)
        assert rx.na_sound_speed(params, P, rho) == pytest.approx(math.sqrt(gamma * P / rho), rel=1e-12)
        s_ideal = -params.R * math.log(P / 101325.0) + (params.Cv + params.R) * math.log(T / 298.15)
        assert rx.na_entropy(params, P, T) == pytest.approx(s_ideal, rel=1e-12)


class TestMaxwellCompatibility:
    def test_residual_on_grid(self, nc13_na):
        # (de/dv)_T - [T (dP/dT)_v - P] must vanish to 1e-8 P
        for rho in (10.0, 150.0, 400.0, 600.0):
            v = 1.0 / rho
            for T in (1500.0, 3000.0, 4500.0):
                P = rx.na_pressure_vt(nc13_na, v, T)
                dedv = rx.fd_derivative(lambda vv: rx.cvt_energy(nc13_na, T), v, 1e-4)
                dpdT = rx.fd_derivative(lambda t: rx.na_pressure_vt(nc13_na, v, t), T, STEP_FLOOR)
                assert abs(dedv - (T * dpdT - P)) < 1e-8 * P


class TestConvexity:
    def test_valid_state(self, nc13_na):
        report = rx.na_convexity(nc13_na, 0.01, 130.33e6, 3275.0)
        assert report.convex
        assert rx.convexity_signs_ok(report.criteria)
        a, b, c, d = report.criteria
        assert a > 0 and b > 0 and c < 0 and d > 0

    def test_below_covolume(self, nc13_na):
        report = rx.na_convexity(nc13_na, 0.001, 130.33e6, 3275.0)
        assert not report.convex

    def test_criterion_b_flips_below_covolume(self, nc13_na):
        # physical (positive) pressure handed in with v < b: the covolume
        # criterion changes sign
        report = rx.na_convexity(nc13_na, 0.999 * nc13_na.b, 100e6, 3000.0)
        assert report.criteria[1] < 0.0
        assert not report.convex

    def test_boundary_is_exact(self, nc13_na):
        assert not rx.na_convexity(nc13_na, nc13_na.b, 1e6, 300.0).convex
        assert rx.na_convexity(nc13_na, nc13_na.b * (1.0 + 1e-12), 1e6, 300.0).convex


class TestModelGuard:
    KERNELS = [
        (rx.na_pressure_vt, (0.01, 3000.0)),
        (rx.na_volume, (1e8, 3000.0)),
        (rx.na_cp, ()),
        (rx.na_gamma, ()),
        (rx.na_sound_speed, (1e8, 100.0)),
        (rx.na_entropy, (1e8, 3000.0)),
        (rx.na_entropy_vt, (0.01, 3000.0)),
        (rx.na_convexity, (0.01, 1e8, 3000.0)),
    ]

    @pytest.mark.parametrize("kernel, args", KERNELS, ids=[k.__name__ for k, _ in KERNELS])
    @pytest.mark.parametrize("record", ["nc13_vo1", "nc13_cvt"])
    def test_virial_records_are_refused(self, request, kernel, args, record):
        with pytest.raises(ModelMismatchError):
            kernel(request.getfixturevalue(record), *args)


@pytest.mark.parametrize("call, message", [
    (lambda p: rx.na_sound_speed(p, 1e8, 1000.0), "density 1000.0 kg/m3 reaches the covolume packing limit"),
    (lambda p: rx.na_entropy(p, 0.0, 3000.0), "pressure and temperature must be positive, got P=0.0, T=3000.0"),
    (lambda p: rx.na_entropy(p, 1e8, -1.0), "pressure and temperature must be positive, got P=100000000.0, T=-1.0"),
], ids=["sound-speed-past-1/b", "entropy-P", "entropy-T"])
def test_refusals_name_their_input(nc13_na, call, message):
    with pytest.raises(DomainError) as raised:
        call(nc13_na)
    assert (type(raised.value), str(raised.value)) == (DomainError, message)
