import math

import pytest
from hypothesis import given, strategies as st

import redeos as rx
from redeos.errors import DegenerateDataError, DomainError, RankDeficiencyError, ValidationError

from conftest import CLOSED_BOMB_RUNS, PUBLISHED_PARAMS, closed_bomb_points


def bisect_na(p1, p2, T_flame):
    """Brute-force solve of the two-point covolume system by bisection."""
    def residual(b):
        return p1.P_max * (p1.v - b) - p2.P_max * (p2.v - b)

    lo, hi = 0.0, min(p1.v, p2.v)
    assert residual(lo) * residual(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(lo) * residual(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    b = 0.5 * (lo + hi)
    return b, p1.P_max * (p1.v - b) / T_flame


def bisect_vo1(p1, p2, T_flame):
    """Brute-force solve of the two-point virial system by bisection."""
    def residual(a):
        return p1.P_max * p2.rho_load * (1.0 + a * p2.rho_load) \
            - p2.P_max * p1.rho_load * (1.0 + a * p1.rho_load)

    lo, hi = -0.5, 0.5
    assert residual(lo) * residual(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(lo) * residual(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    a = 0.5 * (lo + hi)
    return a, p1.P_max / (p1.rho_load * T_flame * (1.0 + a * p1.rho_load))


class TestCalibrateNa:
    @pytest.mark.parametrize("material", sorted(CLOSED_BOMB_RUNS))
    def test_reproduces_published_table(self, material):
        p1, p2, tflame, gamma = closed_bomb_points(material)
        params = rx.calibrate_na(p1, p2, tflame, gamma, name=material)
        cv_ref, r_ref, es_ref, b_ref = PUBLISHED_PARAMS[material]["NA"]
        assert params.Cv == pytest.approx(cv_ref, rel=1e-3)
        assert params.R == pytest.approx(r_ref, rel=1e-3)
        assert params.e_s_eff == pytest.approx(es_ref * 1e3, rel=1e-3)
        assert params.b == pytest.approx(b_ref, rel=1e-3)
        assert params.rho_range == (100.0, 150.0)

    @pytest.mark.parametrize("material", sorted(CLOSED_BOMB_RUNS))
    def test_matches_bisection_oracle(self, material):
        p1, p2, tflame, gamma = closed_bomb_points(material)
        params = rx.calibrate_na(p1, p2, tflame, gamma)
        b_ref, r_ref = bisect_na(p1, p2, tflame)
        assert params.b == pytest.approx(b_ref, rel=1e-10)
        assert params.R == pytest.approx(r_ref, rel=1e-10)

    def test_identical_points_rejected(self):
        point = rx.ClosedBombPoint(100.0, 130.3e6)
        with pytest.raises(DegenerateDataError):
            rx.calibrate_na(point, point, 3275.0, 1.207)

    def test_equal_pressures_rejected(self):
        with pytest.raises(DegenerateDataError):
            rx.calibrate_na(rx.ClosedBombPoint(100.0, 130.3e6),
                            rx.ClosedBombPoint(150.0, 130.3e6), 3275.0, 1.207)

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_scale_consistency(self, k):
        p1, p2, tflame, gamma = closed_bomb_points("NC-13")
        base = rx.calibrate_na(p1, p2, tflame, gamma)
        scaled = rx.calibrate_na(
            rx.ClosedBombPoint(p1.rho_load, k * p1.P_max),
            rx.ClosedBombPoint(p2.rho_load, k * p2.P_max), tflame, gamma)
        assert scaled.b == pytest.approx(base.b, rel=1e-12)
        assert scaled.R == pytest.approx(k * base.R, rel=1e-12)
        assert scaled.e_s_eff == pytest.approx(k * base.e_s_eff, rel=1e-12)


class TestCalibrateVo1:
    @pytest.mark.parametrize("material", sorted(CLOSED_BOMB_RUNS))
    def test_reproduces_published_table(self, material):
        p1, p2, tflame, gamma = closed_bomb_points(material)
        params = rx.calibrate_vo1(p1, p2, tflame, gamma, name=material)
        cv_ref, r_ref, es_ref, a_ref = PUBLISHED_PARAMS[material]["VO1"]
        assert params.Cv == pytest.approx(cv_ref, rel=1e-3)
        assert params.R == pytest.approx(r_ref, rel=1e-3)
        assert params.e_s_eff == pytest.approx(es_ref * 1e3, rel=1e-3)
        assert params.a == pytest.approx(a_ref, rel=1e-3)

    @pytest.mark.parametrize("material", sorted(CLOSED_BOMB_RUNS))
    def test_matches_bisection_oracle(self, material):
        p1, p2, tflame, gamma = closed_bomb_points(material)
        params = rx.calibrate_vo1(p1, p2, tflame, gamma)
        a_ref, r_ref = bisect_vo1(p1, p2, tflame)
        assert params.a == pytest.approx(a_ref, rel=1e-8)
        assert params.R == pytest.approx(r_ref, rel=1e-8)

    def test_ideal_gas_data_rejected(self):
        # points generated from an exact ideal gas give a = 0
        R, T = 340.0, 3300.0
        p1 = rx.ClosedBombPoint(100.0, 100.0 * R * T)
        p2 = rx.ClosedBombPoint(150.0, 150.0 * R * T)
        with pytest.raises(ValidationError, match="ideal gas"):
            rx.calibrate_vo1(p1, p2, T, 1.2)

    def test_degenerate_points_rejected(self):
        point = rx.ClosedBombPoint(100.0, 130.3e6)
        with pytest.raises(DegenerateDataError):
            rx.calibrate_vo1(point, point, 3275.0, 1.207)

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_scale_consistency(self, k):
        p1, p2, tflame, gamma = closed_bomb_points("NC-13")
        base = rx.calibrate_vo1(p1, p2, tflame, gamma)
        scaled = rx.calibrate_vo1(
            rx.ClosedBombPoint(p1.rho_load, k * p1.P_max),
            rx.ClosedBombPoint(p2.rho_load, k * p2.P_max), tflame, gamma)
        assert scaled.a == pytest.approx(base.a, rel=1e-12)
        assert scaled.R == pytest.approx(k * base.R, rel=1e-12)


class TestInterpolatoryConsistency:
    @pytest.mark.parametrize("material", sorted(CLOSED_BOMB_RUNS))
    @pytest.mark.parametrize("model", ["NA", "VO1"])
    def test_predictions_reproduce_input_points(self, material, model, calibrated):
        p1, p2, _, _ = closed_bomb_points(material)
        params = calibrated[(material, model)]
        for point in (p1, p2):
            pred = rx.predict_closed_bomb(params, point.rho_load)
            assert pred.P_max == pytest.approx(point.P_max, rel=1e-12)
            assert not pred.extrapolated


class TestPredictClosedBomb:
    def test_calibration_state(self, nc13_na):
        pred = rx.predict_closed_bomb(nc13_na, 100.0)
        assert pred.T_flame == pytest.approx(3275.0, rel=1e-3)
        assert pred.P_max == pytest.approx(130.3e6, rel=1e-3)
        assert not pred.extrapolated

    def test_extrapolation_flag(self, nc13_vo1):
        pred = rx.predict_closed_bomb(nc13_vo1, 400.0)
        assert pred.extrapolated
        assert pred.P_max == pytest.approx(819.9e6, rel=1e-3)

    def test_covolume_singularity(self, nc13_na):
        with pytest.raises(DomainError):
            rx.predict_closed_bomb(nc13_na, 1.0 / nc13_na.b)
        with pytest.raises(DomainError):
            rx.predict_closed_bomb(nc13_na, 1.05 / nc13_na.b)

    @pytest.mark.parametrize("rho", [0.0, -100.0, math.nan])
    def test_non_positive_loading_density_is_refused(self, nc13_vo1, rho):
        with pytest.raises(DomainError) as refused:
            rx.predict_closed_bomb(nc13_vo1, rho)
        assert str(refused.value) == f"loading density must be positive, got {rho!r}"

    def test_cvt_record(self, nc13_cvt):
        pred = rx.predict_closed_bomb(nc13_cvt, 100.0)
        # tabulated e_s_eff is 0.02% below the exact value, so the inverted
        # flame temperature sits just below 3275 K
        assert pred.T_flame == pytest.approx(3275.0, rel=5e-4)
        assert pred.P_max == pytest.approx(130.3e6, rel=1e-3)

    def test_requires_effective_energy(self):
        bare = rx.GasParams.virial("bare", R=322.0, a=0.002359, Cv=1640.5)
        with pytest.raises(ValidationError):
            rx.predict_closed_bomb(bare, 100.0)


class TestCalibrateCvt:
    TRUE = dict(Cv0=1416.8, c=0.0637, q=-2e6)

    def _runs(self, e_s_i, params):
        argon = rx.INERT_GASES["argon"]
        ys = [0.15 + 0.025 * k for k in range(35)]
        return [rx.InertRunRecord(Y=y, T_flame=rx.dilution_flame_temperature(params, argon, y, e_s_i))
                for y in ys]

    def test_recovers_generator_parameters(self):
        params = rx.GasParams.virial_cvt("syn", R=322.0, a=0.002359, **self.TRUE)
        e_s_i = rx.cvt_energy(params, 3275.0)
        runs = self._runs(e_s_i, params)
        fit = rx.calibrate_cvt(runs, rx.INERT_GASES["argon"], e_s_i)
        assert fit.Cv0 == pytest.approx(self.TRUE["Cv0"], rel=1e-6)
        assert fit.c == pytest.approx(self.TRUE["c"], rel=1e-6)
        assert fit.q == pytest.approx(self.TRUE["q"], rel=1e-6)
        assert fit.residual_norm < 1e-6 * abs(e_s_i)

    def test_identical_temperatures_rejected(self):
        runs = [rx.InertRunRecord(Y=y, T_flame=3000.0) for y in (0.2, 0.5, 0.8)]
        with pytest.raises(RankDeficiencyError):
            rx.calibrate_cvt(runs, rx.INERT_GASES["argon"], 5e6)

    def test_too_few_runs_rejected(self):
        runs = [rx.InertRunRecord(Y=0.5, T_flame=3000.0)]
        with pytest.raises(ValidationError):
            rx.calibrate_cvt(runs, rx.INERT_GASES["argon"], 5e6)

    def test_published_parameter_regression(self, nc13_cvt):
        # runs regenerated from the published Cv(T) parameters; the fit must
        # hand them back (fixture-based regression, not a from-scratch claim)
        t0 = 298.15
        q = -(nc13_cvt.Cv0 * t0 + 0.5 * nc13_cvt.c * t0 * t0)
        anchored = rx.GasParams.virial_cvt(
            "NC-13", R=nc13_cvt.R, a=nc13_cvt.a, Cv0=nc13_cvt.Cv0, c=nc13_cvt.c, q=q)
        e_s_i = rx.cvt_energy(anchored, 3275.0)
        runs = self._runs(e_s_i, anchored)
        assert runs[0].T_flame == pytest.approx(1700.3, rel=1e-4)   # dilution reaches the low range
        fit = rx.calibrate_cvt(runs, rx.INERT_GASES["argon"], e_s_i)
        assert fit.Cv0 == pytest.approx(1416.8, rel=1e-9)
        assert fit.c == pytest.approx(0.0637, rel=1e-9)


class TestFrozennessCheck:
    def test_constant_molar_mass_is_frozen(self):
        report = rx.frozenness_check([(y, 25.82) for y in (0.15, 0.4, 0.7, 1.0)])
        assert report.frozen
        assert report.max_rel_spread == 0.0

    def test_drifting_molar_mass_is_not(self):
        report = rx.frozenness_check([(0.15, 24.0), (0.5, 26.0), (1.0, 28.0)])
        assert not report.frozen
        assert report.max_rel_spread == pytest.approx(4.0 / 26.0, rel=1e-12)

    def test_threshold_is_inclusive(self):
        entries = [(0.2, 25.0), (0.8, 25.3)]
        spread = rx.frozenness_check(entries).max_rel_spread
        assert rx.frozenness_check(entries, threshold=spread).frozen

    def test_needs_two_entries(self):
        with pytest.raises(ValidationError):
            rx.frozenness_check([(1.0, 25.82)])


#: a VO1_CVT record whose Cv(T) slope is negative, so a large energy has no flame temperature
_FALLING_CV = rx.GasParams.virial_cvt("falling", R=300.0, a=0.001, Cv0=1000.0, c=-1.0)


@pytest.mark.parametrize("call, raised, message", [
    (lambda p: rx.lsq_fit_3(5.0, [1.0, 2.0, 3.0]), ValidationError,
     "temperatures and targets must be 1-d arrays of equal length"),
    (lambda p: rx.lsq_fit_3([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0]), ValidationError,
     "temperatures and targets must be 1-d arrays of equal length"),
    (lambda p: rx.lsq_fit_3([1.0, 2.0, 3.0], [1.0, 2.0]), ValidationError,
     "temperatures and targets must be 1-d arrays of equal length"),
    (lambda p: rx.dilution_flame_temperature(p, rx.INERT_GASES["argon"], 0.0, 4.5e6), DomainError,
     "reactant mass fraction must lie in (0,1], got 0.0"),
    (lambda p: rx.dilution_flame_temperature(p, rx.INERT_GASES["argon"], 1.0, p.q), DomainError,
     "the mixture holds no energy above the caloric reference"),
    (lambda p: rx.dilution_flame_temperature(_FALLING_CV, rx.INERT_GASES["argon"], 1.0, 1e6), DomainError,
     "energy balance has no real flame temperature"),
    (lambda p: rx.frozenness_check([(0.2, 28.0), (0.5, 0.0)]), ValidationError,
     "molar mass must be positive, got 0.0"),
], ids=["lsq-scalar", "lsq-2d", "lsq-lengths", "dilution-Y", "dilution-no-energy", "dilution-no-root",
        "frozenness-molar-mass"])
def test_refusals_name_their_input(nc13_cvt, call, raised, message):
    with pytest.raises(raised) as info:
        call(nc13_cvt)
    assert (type(info.value), str(info.value)) == (raised, message)
