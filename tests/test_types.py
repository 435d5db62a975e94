import dataclasses
import inspect
import math

import pytest

import redeos as rx
from redeos.errors import ModelMismatchError, ValidationError


def test_universal_constants():
    assert rx.R_UNIVERSAL == 8.314462618
    assert rx.T_REF == 298.15
    assert rx.P_REF == 101325.0


def test_molar_mass_of_published_record(nc13_vo1):
    # 8.314462618 / 322.0 in g/mol
    assert rx.R_UNIVERSAL / nc13_vo1.R * 1e3 == pytest.approx(25.82, rel=1e-3)


class TestGasParams:
    def test_rejects_nonpositive_R(self):
        with pytest.raises(ValidationError):
            rx.GasParams.noble_abel("x", R=-1.0, b=0.001, Cv=1500.0)

    def test_rejects_negative_covolume(self):
        with pytest.raises(ValidationError):
            rx.GasParams.noble_abel("x", R=300.0, b=-0.001, Cv=1500.0)

    def test_rejects_field_of_other_model(self):
        with pytest.raises(ValidationError):
            rx.GasParams(name="x", model=rx.Model.NA, R=300.0, b=0.001, Cv=1500.0, a=0.002)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValidationError, match="^unknown model 'BOGUS'; expected NA, VO1 or VO1_CVT$"):
            rx.GasParams(name="x", model="BOGUS", R=300.0, b=0.001, Cv=1500.0)

    def test_rejects_bad_rho_range(self):
        with pytest.raises(ValidationError):
            rx.GasParams.virial("x", R=300.0, a=0.002, Cv=1500.0, rho_range=(150.0, 100.0))

    def test_negative_virial_coefficient_is_representable(self):
        params = rx.GasParams.virial("probe", R=300.0, a=-0.02, Cv=1500.0)
        assert params.a == -0.02

    def test_cvt_requires_cv0_and_c(self):
        with pytest.raises(ValidationError):
            rx.GasParams(name="x", model=rx.Model.VO1_CVT, R=300.0, a=0.002, Cv0=1400.0)

    def test_kernel_rejects_wrong_model(self, nc13_vo1, nc13_na):
        with pytest.raises(ModelMismatchError):
            rx.na_pressure_vt(nc13_vo1, 0.01, 3000.0)
        with pytest.raises(ModelMismatchError):
            rx.vo1_pressure(nc13_na, 100.0, 3000.0)


class TestMixtureSpec:
    def test_accepts_exact_closure(self, nc13_na, rdx_na):
        mix = rx.MixtureSpec(((nc13_na, 0.25), (rdx_na, 0.75)))
        assert tuple(y for _, y in mix.components) == (0.25, 0.75)

    def test_rejects_closure_violation(self, nc13_na, rdx_na):
        with pytest.raises(ValidationError):
            rx.MixtureSpec(((nc13_na, 0.5), (rdx_na, 0.5 + 1e-9)))

    def test_rejects_fraction_outside_unit_interval(self, nc13_na, rdx_na):
        with pytest.raises(ValidationError):
            rx.MixtureSpec(((nc13_na, -0.25), (rdx_na, 1.25)))

    def test_uniform_model_check(self, nc13_na, nc13_vo1):
        mix = rx.MixtureSpec(((nc13_na, 0.5), (nc13_vo1, 0.5)))
        with pytest.raises(ModelMismatchError):
            mix.uniform_model()


class TestInertGasParams:
    def test_argon_specific_gas_constant(self):
        argon = rx.INERT_GASES["argon"]
        assert rx.R_UNIVERSAL / (argon.W_in * 1e-3) == pytest.approx(208.1, rel=1e-3)


_STATE = dict(P=1e6, T=300.0, rho=10.0, v=0.1, e=1e5, h=2e5, s=0.0, c=300.0, Cp=1000.0, gamma=1.3)


class TestThermoState:
    def test_constructor_takes_the_fields_in_order(self):
        # the constructor is written by hand; its parameter list must not drift from the fields
        names = list(inspect.signature(rx.ThermoState.__init__).parameters)[1:]
        assert names == [f.name for f in dataclasses.fields(rx.ThermoState)]
        assert rx.ThermoState(*_STATE.values()) == rx.ThermoState(**_STATE)

    def test_replace_validates_and_fields_are_frozen(self):
        st_ = rx.ThermoState(**_STATE)
        assert dataclasses.replace(st_) == st_ and hash(dataclasses.replace(st_)) == hash(st_)
        with pytest.raises(ValidationError, match=r"^c must be positive and finite, got inf$"):
            dataclasses.replace(st_, c=math.inf)
        with pytest.raises(dataclasses.FrozenInstanceError):
            st_.P = 2e6

    @pytest.mark.parametrize("changes, message", [
        *[({name: value}, f"{name} must be positive and finite, got {value!r}")
          for name in ("P", "T", "rho", "c") for value in (None, math.nan, math.inf, 0.0)],
        ({"v": 0.2}, "v and rho are inconsistent: v*rho = 2.0"),
        ({"gamma": 1.0}, "gamma must exceed 1, got 1.0"),
        ({"gamma": 0.9}, "gamma must exceed 1, got 0.9"),
        ({"gamma": math.nan}, "gamma must exceed 1, got nan"),
        ({"P": -1.0, "c": 0.0, "gamma": 0.5}, "P must be positive and finite, got -1.0"),
        ({"gamma": math.inf}, "gamma must be finite, got inf"),
        ({"h": math.inf}, "h must be finite, got inf"),
        ({"h": math.nan}, "h must be finite, got nan"),
        ({"s": -math.inf}, "s must be finite, got -inf"),
        ({"s": math.nan}, "s must be finite, got nan"),
        ({"h": math.inf, "s": math.nan, "gamma": math.inf}, "gamma must be finite, got inf"),
    ])
    def test_first_failing_check_is_reported(self, changes, message):
        with pytest.raises(ValidationError) as exc:
            rx.ThermoState(**{**_STATE, **changes})
        assert str(exc.value) == message

    def test_volume_density_consistency_enforced(self):
        with pytest.raises(ValidationError):
            rx.ThermoState(P=1e6, T=300.0, rho=10.0, v=0.2, e=1e5, h=2e5,
                           s=0.0, c=300.0, Cp=1000.0, gamma=1.3)

    def test_gamma_must_exceed_one(self):
        with pytest.raises(ValidationError):
            rx.ThermoState(P=1e6, T=300.0, rho=10.0, v=0.1, e=1e5, h=2e5,
                           s=0.0, c=300.0, Cp=1000.0, gamma=0.9)

    def test_entropy_may_be_absent(self):
        st_ = rx.ThermoState(P=1e6, T=300.0, rho=10.0, v=0.1, e=1e5, h=2e5,
                             s=None, c=300.0, Cp=1000.0, gamma=1.3)
        assert st_.s is None


def test_closed_bomb_point_positivity():
    with pytest.raises(ValidationError):
        rx.ClosedBombPoint(rho_load=0.0, P_max=1e6)
    with pytest.raises(ValidationError):
        rx.ClosedBombPoint(rho_load=100.0, P_max=-1e6)
    assert rx.ClosedBombPoint(rho_load=100.0, P_max=1e6).v == 0.01


def test_closed_bomb_point_needs_a_finite_specific_volume():
    # 1/rho overflows at a subnormal density; the calibrations once blamed their covolume or a
    with pytest.raises(ValidationError, match="loading density 1e-320 kg/m3 has no finite specific volume"):
        rx.ClosedBombPoint(rho_load=1e-320, P_max=1e6)
    assert rx.ClosedBombPoint(rho_load=1e-300, P_max=1e6).v == 1.0 / 1e-300


def test_inert_run_record_bounds():
    with pytest.raises(ValidationError):
        rx.InertRunRecord(Y=0.0, T_flame=2000.0)
    with pytest.raises(ValidationError):
        rx.InertRunRecord(Y=0.5, T_flame=-1.0)
    assert rx.InertRunRecord(Y=1.0, T_flame=3275.0).Y == 1.0


@pytest.mark.parametrize("record, fields", [
    (rx.RootResult, ("root", "iterations")),
    (rx.Mvo1Solution, ("P", "T", "rho_components", "iterations", "residual_rel")),
    (rx.ConvexityReport, ("convex", "criteria")),
    (rx.FrozennessReport, ("frozen", "max_rel_spread")),
    (rx.OracleSoundSpeed, ("c2_energy", "c2_gamma", "partials")),
])
def test_result_records_keep_their_fields(record, fields):
    assert record._fields == fields


def _one_gas_mix(y):
    return rx.MixtureSpec(((rx.GasParams.noble_abel("x", R=300.0, b=0.001, Cv=1500.0), y),))


@pytest.mark.parametrize("call, message", [
    (lambda: rx.GasParams.noble_abel("x", R=300.0, b=0.001, Cv=1500.0, gamma_cal=1.0),
     "gamma_cal must exceed 1, got 1.0"),
    (lambda: rx.MixtureSpec(()), "mixture needs at least one component"),
    (lambda: rx.GasParams(name="x", model="bogus", R=300.0, b=0.001, Cv=1500.0),
     "unknown model 'bogus'; expected NA, VO1 or VO1_CVT"),
    (lambda: rx.builtin_database().get("NC-13", "bogus"), "unknown model 'bogus'; expected NA, VO1 or VO1_CVT"),
    (lambda: rx.GasParams.virial("x", R=300.0, a=0.002, Cv=1500.0, rho_range=(1.0,)),
     "rho_range must be a pair (lo, hi), got (1.0,)"),
    (lambda: rx.GasParams.virial("x", R=300.0, a=0.002, Cv=1500.0, rho_range=100.0),
     "rho_range must be a pair (lo, hi), got 100.0"),
    (lambda: rx.GasParams("x", "NA", -1.0, 1500.0, 0.001), "R must be positive and finite, got -1.0"),
    (lambda: rx.GasParams.noble_abel("x", R=300.0, b=0.001, Cv=1500.0, q=math.nan), "q must be finite, got nan"),
    (lambda: rx.GasParams("x", rx.Model.NA, 300.0, b=0.001), "Cv must be positive and finite, got None"),
    (lambda: rx.GasParams.virial_cvt("x", R=300.0, a=0.002, Cv0=0.0, c=0.06),
     "Cv0 must be positive and finite, got 0.0"),
    (lambda: rx.GasParams.noble_abel("x", R=300.0, b=-0.001, Cv=1500.0), "covolume b must be >= 0, got -0.001"),
    (lambda: rx.GasParams.virial("x", R=300.0, a=math.inf, Cv=1500.0), "a must be finite, got inf"),
    (lambda: rx.GasParams.virial_cvt("x", R=300.0, a=0.002, Cv0=1400.0, c=math.nan), "c must be finite, got nan"),
    (lambda: rx.GasParams("x", rx.Model.NA, 300.0, 1500.0, 0.001, 0.002), "field 'a' does not apply to model NA"),
    (lambda: rx.GasParams.virial("x", R=300.0, a=0.002, Cv=1500.0, e_s_eff=0.0),
     "e_s_eff must be positive and finite, got 0.0"),
    (lambda: rx.GasParams.virial("x", R=300.0, a=0.002, Cv=1500.0, T_flame=-1.0),
     "T_flame must be positive and finite, got -1.0"),
    (lambda: rx.GasParams.virial("x", R=300.0, a=0.002, Cv=1500.0, rho_range=(0.0, 10.0)),
     "rho_range[0] must be positive and finite, got 0.0"),
    (lambda: rx.GasParams.virial("x", R=300.0, a=0.002, Cv=1500.0, rho_range=(150, 100)),
     "rho_range must satisfy lo < hi, got (150, 100)"),
    (lambda: rx.InertGasParams("argon", 0.0, 39.95), "Cv_in must be positive and finite, got 0.0"),
    (lambda: rx.InertGasParams("argon", Cv_in=312.2, W_in=math.nan), "W_in must be positive and finite, got nan"),
    (lambda: rx.ClosedBombPoint(0.0, 1e6), "rho_load must be positive and finite, got 0.0"),
    (lambda: rx.ClosedBombPoint(rho_load=100.0, P_max=-1e6), "P_max must be positive and finite, got -1000000.0"),
    (lambda: rx.ClosedBombPoint(1e-320, 1e6), "loading density 1e-320 kg/m3 has no finite specific volume"),
    (lambda: _one_gas_mix(1.25), "mass fraction of 'x' out of [0,1]: 1.25"),
    (lambda: _one_gas_mix(0.5), "mass fractions must sum to 1 within 1e-12, got 0.5"),
    (lambda: rx.InertRunRecord(0.0, 2000.0), "reactant mass fraction must lie in (0,1], got 0.0"),
    (lambda: rx.InertRunRecord(Y=1.5, T_flame=2000.0), "reactant mass fraction must lie in (0,1], got 1.5"),
    (lambda: rx.InertRunRecord(0.5, -1.0), "T_flame must be positive and finite, got -1.0"),
    (lambda: rx.MaterialDatabase({}).get("NC-13", "NA"), "material 'NC-13' with model NA is not in the database"),
], ids=["gamma-cal", "empty-mixture", "unknown-model", "db-unknown-model", "short-rho-range", "scalar-rho-range",
        "negative-R", "nan-q", "missing-Cv", "zero-Cv0", "negative-b", "infinite-a", "nan-c", "foreign-field",
        "zero-e-s-eff", "negative-T-flame", "zero-rho-range-lo", "reversed-rho-range", "zero-Cv-in", "nan-W-in",
        "zero-rho-load", "negative-P-max", "subnormal-rho-load", "fraction-above-one", "fractions-short-of-one",
        "zero-Y", "Y-above-one", "negative-run-T-flame", "absent-record"])
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValidationError) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (ValidationError, message)
