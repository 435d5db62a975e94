import math

import pytest
from hypothesis import assume, given, strategies as st

import redeos as rx
from redeos.errors import DomainError


class TestCaloric:
    def test_energy_at_flame_temperature(self, nc13_cvt):
        # 1416.8 * 3275 + 0.5 * 0.0637 * 3275^2
        assert rx.cvt_energy(nc13_cvt, 3275.0) - nc13_cvt.q == pytest.approx(4_981_631.15625, rel=1e-12)
        # tabulated effective energy 4980.7 kJ/kg within 0.1%
        assert rx.cvt_energy(nc13_cvt, 3275.0) - nc13_cvt.q == pytest.approx(4.9807e6, rel=1e-3)

    def test_constant_cv_reduction(self):
        params = rx.GasParams.virial_cvt("flat", R=322.0, a=0.002359, Cv0=1640.5, c=0.0, q=5.0)
        assert rx.cvt_energy(params, 2000.0) == 1640.5 * 2000.0 + 5.0

    def test_reference_closure(self):
        # with q chosen so that e(T_ref) = 0, the energy vanishes there
        t0 = 298.15
        q = -(1416.8 * t0 + 0.5 * 0.0637 * t0 * t0)
        params = rx.GasParams.virial_cvt("anchored", R=322.0, a=0.002359, Cv0=1416.8, c=0.0637, q=q)
        assert rx.cvt_energy(params, t0) == pytest.approx(0.0, abs=1e-9)

    def test_constant_cv_is_exact_at_any_temperature(self, nc13_vo1):
        # c = 0 must not turn Cv into 0 * inf = nan, which would hide a non-finite input
        assert rx.cvt_cv(nc13_vo1, math.inf) == nc13_vo1.Cv
        assert rx.cvt_cv(nc13_vo1, 3275.0) == nc13_vo1.Cv

    @given(st.floats(min_value=1e-3, max_value=1e4), st.sampled_from([0.0, -424987.6543, 287123.4567]))
    def test_energy_is_effective_energy_plus_q(self, T, q):
        for params in (rx.GasParams.noble_abel("p", R=338.9, b=0.001484, Cv=1637.1, q=q),
                       rx.GasParams.virial("p", R=322.0, a=0.002359, Cv=1640.5, q=q),
                       rx.GasParams.virial_cvt("p", R=322.0, a=0.002359, Cv0=1416.8, c=0.0637, q=q)):
            assert rx.cvt_energy(params, T) == rx.cvt_effective_energy(params, T) + q

    def test_cv_is_linear(self, nc13_cvt):
        assert rx.cvt_cv(nc13_cvt, 2000.0) == pytest.approx(1416.8 + 0.0637 * 2000.0, rel=1e-15)

    @given(st.booleans(),
           st.one_of(st.floats(min_value=1e-3, max_value=1e6), st.floats(min_value=1e154, max_value=1e308)),
           st.floats(min_value=1e-300, max_value=1e308),
           st.floats(min_value=-1e6, max_value=1e6),
           st.one_of(st.floats(min_value=1e-300, max_value=1e300), st.floats(min_value=1e307, max_value=1.7e308)))
    def test_constant_cv_law_is_exact(self, noble_abel, Cv, T, q, E):
        # NA and VO1 records are the c = 0 case: the shared law must give the
        # constant-Cv results bit for bit, also where Cv*Cv or 2*(e-q) overflow
        if noble_abel:
            params = rx.GasParams.noble_abel("p", R=300.0, b=0.001, Cv=Cv, q=q)
        else:
            params = rx.GasParams.virial("p", R=300.0, a=0.002, Cv=Cv, q=q)
        assert rx.cvt_energy(params, T) == Cv * T + q
        e = q + E
        assume(e > q)
        assert rx.cvt_temperature(params, e) == (e - q) / Cv


class TestTemperature:
    def test_flame_energy_inverts(self, nc13_cvt):
        # quadratic root at e - q = 4.98163 MJ/kg lands on the flame temperature
        T = rx.cvt_temperature(nc13_cvt, nc13_cvt.q + 4.98163e6)
        assert T == pytest.approx(3275.0, rel=1e-5)

    def test_constant_cv_limit(self):
        params = rx.GasParams.virial_cvt("flat", R=322.0, a=0.002359, Cv0=1640.5, c=0.0)
        assert rx.cvt_temperature(params, 1640.5 * 2000.0) == pytest.approx(2000.0, rel=1e-12)

    def test_round_trip_at_lower_validity_bound(self, nc13_cvt):
        e = rx.cvt_energy(nc13_cvt, 1600.0)
        assert rx.cvt_temperature(nc13_cvt, e) == pytest.approx(1600.0, rel=1e-10)

    @pytest.mark.parametrize("c", [0.0, 1e-12, 0.0637])
    @pytest.mark.parametrize("T", [300.0, 1000.0, 2000.0, 3500.0, 5000.0])
    def test_round_trip_across_slopes(self, c, T):
        params = rx.GasParams.virial_cvt("probe", R=322.0, a=0.002359, Cv0=1416.8, c=c)
        assert rx.cvt_temperature(params, rx.cvt_energy(params, T)) == pytest.approx(T, rel=1e-10)

    @given(st.floats(min_value=300.0, max_value=5000.0))
    def test_round_trip_property(self, T):
        params = rx.GasParams.virial_cvt("probe", R=322.0, a=0.002359, Cv0=1416.8, c=0.0637)
        assert rx.cvt_temperature(params, rx.cvt_energy(params, T)) == pytest.approx(T, rel=1e-10)

    def test_branch_seam_continuity(self):
        # series branch and quadratic branch agree where they meet
        cv0 = 1416.8
        E = 3e6
        c_seam = 1e-8 * cv0 * cv0 / (2.0 * E)
        for c in (c_seam * 0.99, c_seam * 1.01):
            params = rx.GasParams.virial_cvt("probe", R=322.0, a=0.002359, Cv0=cv0, c=c)
            T = rx.cvt_temperature(params, E)
            assert rx.cvt_energy(params, T) == pytest.approx(E, rel=1e-12)

    def test_energy_floor(self, nc13_cvt):
        with pytest.raises(DomainError):
            rx.cvt_temperature(nc13_cvt, nc13_cvt.q)

    def test_huge_energy_has_a_finite_root(self, nc13_cvt):
        # 2 (e-q) overflowed above ~9e307 J/kg, and T came back inf
        T = rx.cvt_temperature(nc13_cvt, 1e308)
        assert T == pytest.approx(5.6e154, rel=1e-2)
        assert rx.cvt_energy(nc13_cvt, T) == pytest.approx(1e308, rel=1e-12)
        assert rx.closure_from_rho_e(nc13_cvt, 1.0, 1e308).T == T

    def test_root_where_the_discriminant_overflows(self):
        # 2 c (e-q) overflowed to inf, and T came back 0.0, which the closure blamed
        params = rx.GasParams.virial_cvt("probe", R=322.0, a=0.002359, Cv0=1416.8, c=1.0)
        T = rx.cvt_temperature(params, 1e308)
        assert T == pytest.approx(2.0**0.5 * 1e154, rel=1e-15)
        assert rx.closure_from_rho_e(params, 100.0, 1e308).T == T

    @given(st.one_of(st.floats(min_value=1e-3, max_value=1e300), st.floats(min_value=1e300, max_value=1.7e308)),
           st.one_of(st.floats(min_value=1e-12, max_value=1e3), st.floats(min_value=1e3, max_value=1.7e308)))
    def test_overflowing_discriminant_changes_no_finite_root(self, E, c):
        # the hypotenuse is taken only where disc is inf; elsewhere the root keeps its bits
        params = rx.GasParams.virial_cvt("probe", R=322.0, a=0.002359, Cv0=1416.8, c=c)
        disc = 1416.8 * 1416.8 + 2.0 * c * E
        T = rx.cvt_temperature(params, E)
        if disc < math.inf:
            assert T == E / (0.5 * (1416.8 + math.sqrt(disc)))
        else:
            assert 0.0 < T < math.inf
            assert rx.cvt_energy(params, T) == pytest.approx(E, rel=1e-14)

    @pytest.mark.parametrize("c", [0.0, 0.0637])
    def test_infinite_energy_is_refused(self, c):
        params = rx.GasParams.virial_cvt("probe", R=322.0, a=0.002359, Cv0=1416.8, c=c)
        with pytest.raises(DomainError, match=r"^internal energy inf J/kg is not finite$"):
            rx.cvt_temperature(params, math.inf)

    @given(st.floats(min_value=1e-3, max_value=8e307), st.floats(min_value=-1e-3, max_value=1.0))
    def test_root_is_the_rationalized_form_bit_for_bit(self, E, c):
        # halving the denominator instead of doubling E changes no bit where 2 E is finite
        params = rx.GasParams.virial_cvt("probe", R=322.0, a=0.002359, Cv0=1416.8, c=c)
        disc = 1416.8 * 1416.8 + 2.0 * c * E
        assume(disc >= 0.0 and c != 0.0)
        assert rx.cvt_temperature(params, E) == 2.0 * E / (1416.8 + math.sqrt(disc))


class TestPressure:
    def test_thermal_law_is_shared_with_constant_cv_variant(self, nc13_cvt, nc13_vo1):
        # same (R, a): identical code path, identical bits
        for rho in (10.0, 100.0, 400.0):
            for T in (1600.0, 3275.0):
                assert rx.vo1_pressure(nc13_cvt, rho, T) == rx.vo1_pressure(nc13_vo1, rho, T)
                assert rx.vo1_pressure(nc13_cvt, rho, T) == rho * nc13_cvt.R * T * (1.0 + nc13_cvt.a * rho)
                assert rx.vo1_pressure(nc13_cvt, rho, T) == pytest.approx(
                    rho * 322.0 * T * (1.0 + 0.002359 * rho), rel=1e-15)

    def test_pressure_from_energy_closed_form(self, nc13_cvt):
        # inserting the temperature root into the thermal law must equal the
        # expanded form rho R/c [sqrt(Cv0^2 + 2c(e-q)) - Cv0] (1 + a rho)
        rho = 100.0
        e = nc13_cvt.q + 4.98163e6
        got = rx.vo1_pressure(nc13_cvt, rho, rx.cvt_temperature(nc13_cvt, e))
        root = math.sqrt(nc13_cvt.Cv0**2 + 2.0 * nc13_cvt.c * (e - nc13_cvt.q)) - nc13_cvt.Cv0
        want = rho * nc13_cvt.R / nc13_cvt.c * root * (1.0 + nc13_cvt.a * rho)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(130.33e6, rel=1e-4)

    def test_energy_floor(self, nc13_cvt):
        with pytest.raises(DomainError):
            rx.vo1_pressure(nc13_cvt, 100.0, rx.cvt_temperature(nc13_cvt, nc13_cvt.q))

    def test_double_reduction(self):
        params = rx.GasParams.virial_cvt("flat", R=322.0, a=0.0, Cv0=1640.5, c=0.0)
        rho, e = 100.0, 3e6
        assert rx.vo1_pressure(params, rho, rx.cvt_temperature(params, e)) == pytest.approx(
            rho * params.R * e / params.Cv0, rel=1e-12)

    def test_matches_constant_cv_kernel_when_c_is_zero(self, nc13_vo1):
        # a flat Cv(T) record and the constant-Cv record both follow
        # e = Cv T + q and P = rho R T (1 + a rho), written out here
        flat = rx.GasParams.virial_cvt("flat", R=nc13_vo1.R, a=nc13_vo1.a, Cv0=nc13_vo1.Cv, c=0.0)
        for T in (1500.0, 3275.0, 4500.0):
            e_want = 1640.5 * T
            p_want = 200.0 * 322.0 * T * (1.0 + 0.002359 * 200.0)
            for params in (flat, nc13_vo1):
                e = rx.cvt_energy(params, T)
                assert e == pytest.approx(e_want, rel=1e-12)
                assert rx.cvt_temperature(params, e) == pytest.approx(T, rel=1e-12)
                assert rx.vo1_pressure(params, 200.0, rx.cvt_temperature(params, e)) == pytest.approx(p_want, rel=1e-12)

class TestClosedForms:
    # the energy depends on T only, so the virial closed forms hold with Cv(T) = Cv0 + c T
    def test_written_out_formulas(self, nc13_cvt):
        R, a = 322.0, 0.002359
        for rho in (10.0, 150.0, 600.0):
            for T in (1500.0, 3275.0, 4500.0):
                cv = 1416.8 + 0.0637 * T
                cp = cv + R * (1.0 + a * rho) ** 2 / (1.0 + 2.0 * a * rho)
                c2 = R * T * (1.0 + 2.0 * a * rho) + T * R * R * (1.0 + a * rho) ** 2 / cv
                st = rx.state_from_rho_T(nc13_cvt, rho, T)
                assert st.c == pytest.approx(math.sqrt(c2), rel=1e-13)
                assert st.Cp == pytest.approx(cp, rel=1e-13)
                assert st.gamma == pytest.approx(cp / cv, rel=1e-13)
                assert rx.vo1_sound_speed(nc13_cvt, st.P, rho, T) == st.c
                assert rx.vo1_cp(nc13_cvt, rho, T) == st.Cp

    def test_sound_speed_against_fd_oracle(self, nc13_cvt):
        for rho in (10.0, 100.0, 250.0, 400.0, 600.0):
            for T in (1500.0, 2500.0, 3500.0, 4500.0):
                oracle = rx.sound_speed_fd_oracle(
                    lambda r, t: rx.cvt_energy(nc13_cvt, t),
                    lambda r, t: rx.vo1_pressure(nc13_cvt, r, t), rho, T)
                c = rx.state_from_rho_T(nc13_cvt, rho, T).c
                assert c == pytest.approx(math.sqrt(oracle.c2_energy), rel=1e-8)
                assert c == pytest.approx(math.sqrt(oracle.c2_gamma), rel=1e-8)

    def test_convexity_criteria_read_cv_of_t(self, nc13_cvt):
        rho, T = 100.0, 3275.0
        P = rx.vo1_pressure(nc13_cvt, rho, T)
        report = rx.vo1_convexity(nc13_cvt, rho, P, T)
        assert report.convex and rx.convexity_signs_ok(report.criteria)
        assert report.criteria[2] == pytest.approx(-P / (1416.8 + 0.0637 * T), rel=1e-15)

    @pytest.mark.parametrize("T", [1000.0, 1500.0], ids=["cv_zero", "cv_negative"])
    @pytest.mark.parametrize("kernel", [
        lambda p, T: rx.vo1_cp(p, 100.0, T),
        lambda p, T: rx.vo1_sound_speed(p, 1e7, 100.0, T),
        lambda p, T: rx.vo1_convexity(p, 100.0, 1e7, T),
        lambda p, T: rx.state_from_rho_T(p, 100.0, T),
    ], ids=["vo1_cp", "sound_speed", "convexity", "state"])
    def test_non_positive_cv_is_refused(self, kernel, T):
        # Cv(T) = 1000 - T: once a bare ZeroDivisionError at 1000 K and a "degenerate" state at 1500 K
        falling = rx.GasParams.virial_cvt("falling", R=322.0, a=0.002, Cv0=1000.0, c=-1.0)
        with pytest.raises(DomainError, match=rf"is not positive at T={T!r}"):
            kernel(falling, T)


class TestEffectiveEnergy:
    def test_tabulated_value(self, nc13_cvt):
        # 4981.6 kJ/kg computed, 4980.7 tabulated: 0.02% apart
        got = rx.cvt_effective_energy(nc13_cvt, 3275.0)
        assert got == pytest.approx(4_981_631.15625, rel=1e-12)
        assert got == pytest.approx(4.9807e6, rel=1e-3)

    def test_constant_cv_consistency(self):
        # with c = 0 and the constant-Cv value the published 5371.9 kJ/kg scale returns
        params = rx.GasParams.virial_cvt("flat", R=322.0, a=0.002359, Cv0=1640.5, c=0.0)
        assert rx.cvt_effective_energy(params, 3275.0) == pytest.approx(5_372_637.5, rel=1e-12)
        assert rx.cvt_effective_energy(params, 3275.0) == pytest.approx(5.3719e6, rel=2e-3)

    def test_zero_temperature(self, nc13_cvt):
        assert rx.cvt_effective_energy(nc13_cvt, 0.0) == 0.0


class TestMaxwellCompatibility:
    def test_residual_on_grid(self, nc13_cvt):
        from redeos.numerics import STEP_FLOOR
        for rho in (10.0, 150.0, 600.0):
            for T in (1500.0, 3000.0, 4500.0):
                P = rx.vo1_pressure(nc13_cvt, rho, T)
                dedrho = rx.fd_derivative(lambda r: rx.cvt_energy(nc13_cvt, T), rho, 1.0)
                dpdT = rx.fd_derivative(lambda t: rx.vo1_pressure(nc13_cvt, rho, t), T, STEP_FLOOR)
                assert abs(dedrho * rho * rho + T * dpdT - P) < 1e-8 * P


@pytest.mark.parametrize("call, message", [
    (lambda p: rx.cvt_energy(p, 0.0), "temperature must be positive, got 0.0"),
    (lambda p: rx.cvt_effective_energy(p, -1.0), "flame temperature must be non-negative, got -1.0"),
], ids=["energy-T", "effective-energy-T"])
def test_refusals_name_their_input(nc13_cvt, call, message):
    with pytest.raises(DomainError) as raised:
        call(nc13_cvt)
    assert (type(raised.value), str(raised.value)) == (DomainError, message)
