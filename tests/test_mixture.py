import collections
import math
import random
import re
import sys

import pytest

import redeos as rx
from redeos.errors import (BracketError, ConvergenceError, DomainError, EosError, ModelMismatchError, NumericalError,
                           ValidationError)
from redeos.cli import _parse_range
from redeos.mixture import _mixture_volume
from redeos.types import MODEL_FIELDS
from redeos.virial import virial_density_pt


def bisect_mixture_pressure(mix, rho_mix, T, iters=200):
    """Brute-force bisection on the specific-volume closure residual."""
    def residual(P):
        total = 0.0
        for gas, y in mix.components:
            total += y * 2.0 * gas.a / (-1.0 + math.sqrt(1.0 + 4.0 * gas.a * P / (gas.R * T)))
        return total - 1.0 / rho_mix

    lo, hi = 1.0, 1e12
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture
def half_na(nc13_na, rdx_na):
    return rx.MixtureSpec(((nc13_na, 0.5), (rdx_na, 0.5)))


@pytest.fixture
def half_vo1(nc13_vo1, rdx_vo1):
    return rx.MixtureSpec(((nc13_vo1, 0.5), (rdx_vo1, 0.5)))


def written_out_record(mix):
    """The mixture record with every mass-weighted sum written out."""
    pairs = mix.components
    model = pairs[0][0].model
    fields = {key: math.fsum(y * getattr(gas, key) for gas, y in pairs)
              for key in ("R", *MODEL_FIELDS[model], "q", "e_s_eff")}
    return rx.GasParams(name="+".join(gas.name for gas, _ in pairs), model=model, **fields)


def with_q(gas, q):
    kept = {key: getattr(gas, key) for key in ("R", *MODEL_FIELDS[gas.model], "e_s_eff")}
    return rx.GasParams(name=gas.name, model=gas.model, q=q, **kept)


class TestMixedRecord:
    @pytest.mark.parametrize("model", list(rx.Model))
    def test_is_the_written_out_sums(self, db, model):
        if model is rx.Model.VO1_CVT:  # the built-in table holds one Cv(T) record
            rdx = rx.GasParams.virial_cvt("RDX-cvt", R=330.1, a=0.002251, Cv0=1420.3, c=0.071,
                                          q=-3.1e5, e_s_eff=6.2e6)
        else:
            rdx = db.get("RDX", model)
        mix = rx.MixtureSpec(((with_q(db.get("NC-13", model), 1.7e5), 0.3), (rdx, 0.7)))
        assert mix.mixed == written_out_record(mix)
        assert mix.mixed.model is model
        assert mix.mixed is mix.mixed

    def test_no_effective_energy_without_every_component(self, nc13_vo1):
        bare = rx.GasParams.virial("bare", R=330.0, a=0.0022, Cv=1600.0)
        mixed = rx.MixtureSpec(((nc13_vo1, 0.5), (bare, 0.5))).mixed
        assert mixed.e_s_eff is None
        assert mixed.R == math.fsum((0.5 * nc13_vo1.R, 0.5 * bare.R))

    def test_mixed_models_construct_but_have_no_record(self, nc13_na, nc13_vo1):
        mix = rx.MixtureSpec(((nc13_na, 0.5), (nc13_vo1, 0.5)))
        with pytest.raises(ModelMismatchError):
            mix.mixed


class TestMnaIsNobleAbelOnTheRecord:
    @pytest.fixture
    def mix(self, nc13_na, rdx_na):
        return rx.MixtureSpec(((with_q(nc13_na, -2.3e5), 0.35), (with_q(rdx_na, 4.1e5), 0.65)))

    def test_laws_equal_the_kernels(self, mix):
        mixed = mix.mixed
        for rho in (50.0, 200.0, 400.0, 600.0):
            v = 1.0 / rho
            for T in (1500.0, 3000.0, 4500.0):
                P = rx.mna_pressure_vt(mix, v, T)
                assert P == rx.na_pressure_vt(mixed, v, T)
                assert rx.mna_sound_speed(mix, P, v) == rx.na_sound_speed(mixed, P, 1.0 / v)
                e = rx.cvt_energy(mixed, T)
                state = rx.mna_pressure(mix, v, e)
                assert state.P == rx.na_pressure_vt(mixed, v, rx.cvt_temperature(mixed, e))
                assert state.T == rx.cvt_temperature(mixed, e)

    def test_closure_of_the_record_is_the_mixture_route(self, db):
        # what `eos mix-sweep --model mna` evaluates; c now reads rho where mna_sound_speed read
        # 1/v = 1/(1/rho), so it may differ in the last bits, up to the packing limit 1/b
        rng = random.Random(2101)
        names = ("NC-13", "RDX", "HMX", "NG")
        for _ in range(200):
            a, b = rng.sample(names, 2)
            y = rng.random()
            mix = rx.MixtureSpec(((db.get(a, rx.Model.NA), 1.0 - y), (db.get(b, rx.Model.NA), y)))
            for _ in range(10):
                rho, T = rng.uniform(1e-4, 0.999) / mix.mixed.b, rng.uniform(300.0, 6000.0)
                P, T_got, c = rx.closure_from_rho_T(mix.mixed, rho, T)
                v = 1.0 / rho
                P_mix = rx.mna_pressure_vt(mix, v, T)
                assert (P.hex(), T_got) == (P_mix.hex(), T), (mix, rho, T)
                assert abs(c - rx.mna_sound_speed(mix, P_mix, v)) <= 4.0 * math.ulp(c), (mix, rho, T)

    def test_flame_is_the_closed_bomb_rule(self, mix, half_vo1):
        for each in (mix, half_vo1):
            assert rx.mixture_flame_temperature(each) == rx.predict_closed_bomb(each.mixed, 150.0).T_flame

    @pytest.mark.parametrize("v", [0.0, -0.01, math.nan])
    def test_sound_speed_refuses_non_positive_volume(self, mix, v):
        with pytest.raises(DomainError):
            rx.mna_sound_speed(mix, 1e8, v)


class TestMnaCoefficients:
    def test_equal_split_arithmetic(self, half_na):
        coeffs = rx.mna_coefficients(half_na)
        assert coeffs.R == pytest.approx(342.55, rel=1e-12)
        assert coeffs.Cv == pytest.approx(1639.0, rel=1e-12)
        assert coeffs.b == pytest.approx(0.001462, rel=1e-12)
        assert coeffs.q == 0.0

    def test_single_component_degenerates(self, nc13_na):
        coeffs = rx.mna_coefficients(rx.MixtureSpec(((nc13_na, 1.0),)))
        assert coeffs.R == nc13_na.R
        assert coeffs.Cv == nc13_na.Cv
        assert coeffs.b == nc13_na.b

    def test_zero_weight_component(self, nc13_na, rdx_na):
        coeffs = rx.mna_coefficients(rx.MixtureSpec(((nc13_na, 1.0), (rdx_na, 0.0))))
        assert coeffs.R == nc13_na.R
        assert coeffs.Cv == nc13_na.Cv

    def test_mixed_models_rejected(self, nc13_na, nc13_vo1):
        with pytest.raises(ModelMismatchError):
            rx.mna_coefficients(rx.MixtureSpec(((nc13_na, 0.5), (nc13_vo1, 0.5))))

    def test_virial_mixture_rejected(self, half_vo1):
        # the mixed record of VO1 components carries a, not b
        with pytest.raises(ModelMismatchError, match=r"^operation requires a NA record, got VO1 \('NC-13\+RDX'\)$"):
            rx.mna_coefficients(half_vo1)


class TestMnaPressure:
    def test_equal_split_example(self, half_na):
        # e_mix = mean of the two effective energies, v = 0.005 (rho = 200)
        e_mix = 0.5 * (5360.7e3 + 6629.3e3)
        state = rx.mna_pressure(half_na, 0.005, e_mix)
        assert state.T == pytest.approx(3657.7, rel=1e-4)
        assert state.P == pytest.approx(354.1e6, rel=1e-3)
        assert state.P == pytest.approx(354_141_136.88, rel=1e-9)

    def test_single_component_matches_kernel(self, nc13_na):
        mix = rx.MixtureSpec(((nc13_na, 1.0),))
        e = 5361.5e3
        state = rx.mna_pressure(mix, 0.01, e)
        assert state.P == pytest.approx(rx.na_pressure_vt(nc13_na, 0.01, rx.cvt_temperature(nc13_na, e)), rel=1e-15)
        assert state.P == pytest.approx(130.33e6, rel=1e-3)

    def test_covolume_floor(self, half_na):
        coeffs = rx.mna_coefficients(half_na)
        with pytest.raises(DomainError):
            rx.mna_pressure(half_na, coeffs.b, 6e6)

    def test_energy_floor(self, half_na):
        with pytest.raises(DomainError):
            rx.mna_pressure(half_na, 0.005, 0.0)


class TestMnaSoundSpeed:
    def test_single_component_matches_kernel(self, nc13_na):
        mix = rx.MixtureSpec(((nc13_na, 1.0),))
        P, v = 130.33e6, 0.01
        assert rx.mna_sound_speed(mix, P, v) == pytest.approx(
            rx.na_sound_speed(nc13_na, P, 1.0 / v), rel=1e-12)
        assert rx.mna_sound_speed(mix, P, v) == pytest.approx(1359.0, rel=1e-3)

    def test_ideal_mixture_limit(self):
        g1 = rx.GasParams.noble_abel("i1", R=300.0, b=0.0, Cv=1500.0)
        g2 = rx.GasParams.noble_abel("i2", R=350.0, b=0.0, Cv=1700.0)
        mix = rx.MixtureSpec(((g1, 0.4), (g2, 0.6)))
        coeffs = rx.mna_coefficients(mix)
        gamma_mix = 1.0 + coeffs.R / coeffs.Cv
        P, v = 5e7, 0.01
        assert rx.mna_sound_speed(mix, P, v) == pytest.approx(math.sqrt(gamma_mix * P * v), rel=1e-12)

    def test_against_fd_oracle(self, half_na):
        coeffs = rx.mna_coefficients(half_na)
        rho, T = 200.0, 3657.7
        P = rx.mna_pressure_vt(half_na, 1.0 / rho, T)
        oracle = rx.sound_speed_fd_oracle(
            lambda r, t: coeffs.Cv * t + coeffs.q,
            lambda r, t: rx.mna_pressure_vt(half_na, 1.0 / r, t), rho, T)
        assert rx.mna_sound_speed(half_na, P, 1.0 / rho) == pytest.approx(
            math.sqrt(oracle.c2_energy), rel=1e-5)


class TestMvo1Pressure:
    def test_single_component_matches_kernel(self, nc13_vo1):
        mix = rx.MixtureSpec(((nc13_vo1, 1.0),))
        sol = rx.mvo1_pressure(mix, 100.0, 3275.0)
        assert sol.P == pytest.approx(rx.vo1_pressure(nc13_vo1, 100.0, 3275.0), rel=1e-12)

    def test_identical_components_collapse(self, nc13_vo1):
        mix = rx.MixtureSpec(((nc13_vo1, 0.3), (nc13_vo1, 0.7)))
        sol = rx.mvo1_pressure(mix, 200.0, 3275.0)
        # direct thermal-law evaluation: 200 * 322 * 3275 * (1 + 0.4718)
        assert sol.P == pytest.approx(310_417_338.0, rel=1e-12)
        assert sol.P == pytest.approx(rx.vo1_pressure(nc13_vo1, 200.0, 3275.0), rel=1e-12)

    def test_component_densities_close_the_volume(self, half_vo1):
        sol = rx.mvo1_pressure(half_vo1, 400.0, 3657.7)
        assert sol.residual_rel <= 1e-12
        v_mix = math.fsum(y / r for (_, y), r in zip(half_vo1.components, sol.rho_components))
        assert v_mix == pytest.approx(1.0 / 400.0, rel=1e-12)

    def test_bounded_by_pure_pressures(self, half_vo1, nc13_vo1, rdx_vo1):
        T = rx.mixture_flame_temperature(half_vo1)
        sol = rx.mvo1_pressure(half_vo1, 400.0, T)
        bounds = sorted((rx.vo1_pressure(nc13_vo1, 400.0, T), rx.vo1_pressure(rdx_vo1, 400.0, T)))
        assert bounds[0] < sol.P < bounds[1]

    def test_matches_bisection_oracle(self, half_vo1):
        for rho, T in ((100.0, 3275.0), (400.0, 3657.7), (600.0, 1500.0)):
            sol = rx.mvo1_pressure(half_vo1, rho, T)
            assert sol.P == pytest.approx(bisect_mixture_pressure(half_vo1, rho, T), rel=1e-10)

    def test_iteration_budget(self, half_vo1):
        for rho in (50.0, 200.0, 600.0):
            for T in (1500.0, 3000.0, 4500.0):
                sol = rx.mvo1_pressure(half_vo1, rho, T)
                assert sol.iterations <= 30
                assert sol.residual_rel <= 1e-12

    def test_virial_start_converges_in_three_iterations(self, db):
        # seeded NC-13/RDX/HMX pairs over the closed-bomb ranges; the
        # mixture record's own virial law starts within ~2e-4 of the root
        rng = random.Random(401)
        names = ("NC-13", "RDX", "HMX")
        for _ in range(300):
            a, b = rng.sample(names, 2)
            Y = rng.random()
            mix = rx.MixtureSpec(((db.get(a, rx.Model.VO1), 1.0 - Y), (db.get(b, rx.Model.VO1), Y)))
            sol = rx.mvo1_pressure(mix, rng.uniform(10.0, 600.0), rng.uniform(1500.0, 4500.0))
            assert sol.iterations <= 3
            assert sol.residual_rel <= 1e-12

    def test_wide_cells_return_a_converged_newton_step(self, db):
        # 2-4 components over rho 1e-3-2e3 kg/m3 and T 316-1e4 K; a Newton step below
        # sqrt(1e-14) |P| is returned without a residual pass at it, against a reference
        # that takes secant steps on the same residual until its bracket is within 1e-13 |P|
        rng = random.Random(2202)
        names = ("NC-13", "RDX", "HMX", "NG")
        iterations = []
        for _ in range(500):
            parts = rng.sample(names, rng.randint(2, 4))
            weights = [rng.random() for _ in parts]
            mix = rx.MixtureSpec(tuple((db.get(name, rx.Model.VO1), w / sum(weights))
                                       for name, w in zip(parts, weights)))
            rho, T = 10.0 ** rng.uniform(-3.0, 3.3), 10.0 ** rng.uniform(2.5, 4.0)
            sol = rx.mvo1_pressure(mix, rho, T)
            ref = rx.solve_monotone(lambda P: (_mixture_volume(mix.virial[3], P, T)[1] - 1.0 / rho, None),
                                    0.5 * sol.P, 2.0 * sol.P).root
            iterations.append(sol.iterations)
            assert sol.residual_rel <= 1e-13
            assert abs(sol.P - ref) <= 1e-13 * ref
        assert sum(iterations) / len(iterations) < 2.0

    def test_virial_view_holds_the_bracket_and_component_terms(self, nc13_vo1, rdx_vo1):
        mix = rx.MixtureSpec(((nc13_vo1, 0.25), (rdx_vo1, 0.75)))
        gases = (nc13_vo1, rdx_vo1)
        assert mix.virial == (min(g.R for g in gases), max(g.R for g in gases), 2 * max(g.a for g in gases),
                              ((nc13_vo1.R, nc13_vo1.a, 0.25, nc13_vo1.Cv), (rdx_vo1.R, rdx_vo1.a, 0.75, rdx_vo1.Cv)))
        assert mix.virial is mix.virial  # built once

    def test_rejects_non_positive_virial(self, nc13_vo1):
        flat = rx.GasParams.virial("flat", R=322.0, a=0.0, Cv=1640.5)
        with pytest.raises(ValidationError):
            rx.mvo1_pressure(rx.MixtureSpec(((nc13_vo1, 0.5), (flat, 0.5))), 100.0, 3000.0)

    def test_rejects_mixed_models(self, nc13_na, nc13_vo1):
        with pytest.raises(ModelMismatchError):
            rx.mvo1_pressure(rx.MixtureSpec(((nc13_na, 0.5), (nc13_vo1, 0.5))), 100.0, 3000.0)

    @pytest.mark.parametrize("rho, T", [(1e300, 3657.7), (1.7929302344219824e152, 3600.0)])
    def test_overflowing_pressure_is_numerical(self, half_vo1, rho, T):
        # the solve once returned P = inf with nan component densities and residual; where only the
        # bracket top overflowed, its stop floor was inf and it returned after one step, 41% off
        for call in (rx.mvo1_pressure, rx.mvo1_closure_from_rho_T):
            with pytest.raises(NumericalError, match=re.escape(f"mixture pressure overflows at rho={rho!r}, T={T!r}")):
                call(half_vo1, rho, T)


class TestMvo1PressureFromEnergy:
    def test_single_component(self, nc13_vo1):
        mix = rx.MixtureSpec(((nc13_vo1, 1.0),))
        e = nc13_vo1.q + nc13_vo1.Cv * 3275.0
        sol = rx.mvo1_pressure_from_energy(mix, 100.0, e)
        assert sol.P == pytest.approx(rx.vo1_pressure(nc13_vo1, 100.0, 3275.0), rel=1e-12)
        assert sol.P == pytest.approx(130.33e6, rel=1e-3)

    def test_energy_floor(self, half_vo1):
        with pytest.raises(DomainError):
            rx.mvo1_pressure_from_energy(half_vo1, 100.0, 0.0)

    def test_nc13_hmx_equal_split(self, nc13_vo1, db):
        # flame-energy state at rho = 100; bisection oracle plus the
        # mean-parameter single-gas evaluation as a sanity bound
        hmx = db.get("HMX", rx.Model.VO1)
        mix = rx.MixtureSpec(((nc13_vo1, 0.5), (hmx, 0.5)))
        e_mix = 0.5 * (5371.9e3 + 6601.1e3)
        sol = rx.mvo1_pressure_from_energy(mix, 100.0, e_mix)
        assert sol.P == pytest.approx(146_220_966.7, rel=1e-9)
        assert sol.P == pytest.approx(bisect_mixture_pressure(mix, 100.0, sol.T), rel=1e-10)
        mean = rx.GasParams.virial(
            "mean", R=0.5 * (nc13_vo1.R + hmx.R), a=0.5 * (nc13_vo1.a + hmx.a),
            Cv=0.5 * (nc13_vo1.Cv + hmx.Cv))
        assert abs(sol.P - rx.vo1_pressure(mean, 100.0, sol.T)) < 1e6


class TestMvo1SoundSpeed:
    def test_single_component_matches_kernel(self, nc13_vo1):
        mix = rx.MixtureSpec(((nc13_vo1, 1.0),))
        P, T = 130.33e6, 3275.0
        rho = rx.vo1_density(nc13_vo1, P, T)
        assert rx.mvo1_sound_speed(mix, P, T) == pytest.approx(
            rx.vo1_sound_speed(nc13_vo1, P, rho, T), rel=1e-12)

    def test_ideal_mixture_limit(self):
        # a -> 0: c^2 -> (Cp_mix/Cv_mix) P / rho_mix
        g1 = rx.GasParams.virial("i1", R=300.0, a=1e-13, Cv=1500.0)
        g2 = rx.GasParams.virial("i2", R=350.0, a=1e-13, Cv=1700.0)
        mix = rx.MixtureSpec(((g1, 0.4), (g2, 0.6)))
        P, T = 5e7, 3000.0
        rho_mix = 1.0 / (0.4 / rx.vo1_density(g1, P, T) + 0.6 / rx.vo1_density(g2, P, T))
        cp_mix = 0.4 * (g1.Cv + g1.R) + 0.6 * (g2.Cv + g2.R)
        cv_mix = 0.4 * g1.Cv + 0.6 * g2.Cv
        want = math.sqrt(cp_mix / cv_mix * P / rho_mix)
        assert rx.mvo1_sound_speed(mix, P, T) == pytest.approx(want, rel=1e-9)

    def test_against_fd_oracle(self, half_vo1):
        cv_mix, q_mix = half_vo1.mixed.Cv, half_vo1.mixed.q
        rho, T = 200.0, 3657.7
        P = rx.mvo1_pressure(half_vo1, rho, T).P
        oracle = rx.sound_speed_fd_oracle(
            lambda r, t: cv_mix * t + q_mix,
            lambda r, t: rx.mvo1_pressure(half_vo1, r, t).P, rho, T)
        assert rx.mvo1_sound_speed(half_vo1, P, T) == pytest.approx(
            math.sqrt(oracle.c2_energy), rel=1e-5)

    @pytest.mark.parametrize("P, T, error, message", [
        (0.0, 3000.0, DomainError, "pressure and temperature must be positive, got P=0.0, T=3000.0"),
        (1e8, -1.0, DomainError, "pressure and temperature must be positive, got P=100000000.0, T=-1.0"),
        (math.nan, 3000.0, DomainError, "pressure and temperature must be positive, got P=nan, T=3000.0"),
        # the component densities underflow to zero, or c^2 overflows
        (1e-320, 3000.0, NumericalError, "the sound speed at P=1e-320, T=3000.0 is degenerate: c=nan"),
        (sys.float_info.max, 3000.0, NumericalError,
         "the sound speed at P=1.7976931348623157e+308, T=3000.0 is degenerate: c=inf"),
    ])
    def test_refusals_name_the_input(self, half_vo1, P, T, error, message):
        _, refused = _outcome(rx.mvo1_sound_speed, half_vo1, P, T)
        assert (type(refused), str(refused)) == (error, message)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # the refusal is compared, not raised
        return None, exc


def _two_calls(mix, rho, T):
    sol = rx.mvo1_pressure(mix, rho, T)
    return sol.P, sol.T, rx.mvo1_sound_speed(mix, sol.P, sol.T)


def _hex(values):
    return tuple(x.hex() for x in values)


class TestMvo1Closure:
    """One mixture solve gives P, T and c bit for bit as the pressure solve and the sound speed do."""

    def test_is_the_two_call_path_bit_for_bit(self, db):
        rng = random.Random(2001)
        names = ("NC-13", "RDX", "HMX")
        mixes = [rx.MixtureSpec(((db.get(a, rx.Model.VO1), 1.0 - y), (db.get(b, rx.Model.VO1), y)))
                 for a, b, y in ((*rng.sample(names, 2), rng.random()) for _ in range(30))]
        mixes.append(rx.MixtureSpec(tuple((db.get(name, rx.Model.VO1), y) for name, y in zip(names, (0.2, 0.3, 0.5)))))
        for mix in mixes:
            for _ in range(10):
                rho, T = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(300.0, 6000.0)
                got = rx.mvo1_closure_from_rho_T(mix, rho, T)
                assert _hex(got) == _hex(_two_calls(mix, rho, T)), (mix, rho, T)
                e = rx.cvt_energy(mix.mixed, T)
                want = rx.mvo1_closure_from_rho_T(mix, rho, rx.cvt_temperature(mix.mixed, e))
                assert _hex(rx.mvo1_closure_from_rho_e(mix, rho, e)) == _hex(want)

    def test_closure_fields(self, half_vo1):
        got = rx.mvo1_closure_from_rho_T(half_vo1, 200.0, 3657.7)
        assert isinstance(got, rx.Closure) and got._fields == ("P", "T", "c")

    @pytest.mark.parametrize("rho, T, raised", [
        (0.0, 3000.0, DomainError), (-1.0, 3000.0, DomainError),
        (100.0, 0.0, DomainError), (100.0, -5.0, DomainError),
        (1e300, 3657.7, NumericalError),
    ])
    def test_refuses_what_the_two_call_path_refuses(self, half_vo1, rho, T, raised):
        _, got = _outcome(rx.mvo1_closure_from_rho_T, half_vo1, rho, T)
        _, want = _outcome(_two_calls, half_vo1, rho, T)
        assert type(got) is type(want) is raised
        assert str(got) == str(want)

    @pytest.mark.parametrize("other, raised", [
        ("na", ModelMismatchError),
        (rx.GasParams.virial("flat", R=322.0, a=0.0, Cv=1640.5), ValidationError),
        (rx.GasParams.virial("neg", R=322.0, a=-0.002, Cv=1640.5), ValidationError),
    ], ids=["na-component", "a-zero", "a-negative"])
    def test_refuses_the_components_the_solve_refuses(self, nc13_na, nc13_vo1, other, raised):
        mix = rx.MixtureSpec(((nc13_vo1, 0.5), (nc13_na if other == "na" else other, 0.5)))
        for closure in (rx.mvo1_closure_from_rho_T, rx.mvo1_closure_from_rho_e):
            _, got = _outcome(closure, mix, 100.0, 3000.0)
            _, want = _outcome(_two_calls, mix, 100.0, 3000.0)
            assert type(got) is type(want) is raised
            assert str(got) == str(want)

    @pytest.mark.parametrize("spec", ["NC-13=0.5,RDX=0.5", "NC-13=0.2,RDX=0.3,HMX=0.5"])
    def test_a_mix_sweep_row_finds_each_density_once_per_pass(self, db, monkeypatch, capsys, spec):
        # one _mixture_volume pass (every rho_k once) per residual of the solve and one at the
        # root; a sound speed taken after the solve would make one pass more
        from redeos import mixture
        from redeos.cli import main
        parts = [part.split("=") for part in spec.split(",")]
        mix = rx.MixtureSpec(tuple((db.get(name, rx.Model.VO1), float(y)) for name, y in parts))
        T = rx.mixture_flame_temperature(mix)
        iterations = rx.mvo1_pressure(mix, 200.0, T).iterations
        passes = []
        volume = mixture._mixture_volume
        monkeypatch.setattr(mixture, "_mixture_volume", lambda *args: passes.append(args) or volume(*args))
        assert main(["mix-sweep", spec, "--model", "mvo1", "--rho", "200", "--same-oxygen-balance"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert len(passes) == iterations + 1


def _kernel_volume(terms, P, T):
    """A residual pass that takes each rho_k from the kernel, virial_density_pt."""
    rhos = []
    v = S = 0.0
    for R, a, y, _ in terms:
        rho = virial_density_pt(R, a, P, T)
        rhos.append(rho)
        v += y / rho
        S += y / (rho * rho * R * T * (1.0 + 2.0 * a * rho))
    return rhos, v, S


def _kernel_solve(mix, rho_mix, T):
    """``(P, iterations, rhos, residual_rel, c)`` as solve_monotone finds them from the
    bracket and start of mvo1_pressure on the kernels' residual, each Cp_k from vo1_cp;
    c is None where its division by S fails."""
    R_min, R_max, a_n, terms = mix.virial
    if not (rho_mix > 0.0 and T > 0.0):
        raise DomainError(f"density and temperature must be positive, got rho={rho_mix!r}, T={T!r}")
    v_mix, mixed = 1.0 / rho_mix, mix.mixed
    P_hi = rho_mix * R_max * T * (1.0 + a_n * rho_mix) * (1.0 + 1e-7)
    if not P_hi < math.inf:
        raise NumericalError(f"the mixture pressure overflows at rho={rho_mix!r}, T={T!r}")
    P_lo = rho_mix * R_min * T * (1.0 - 1e-7)

    def g(P):
        _, v, S = _kernel_volume(terms, P, T)
        return v - v_mix, -S

    try:
        P, iterations = rx.solve_monotone(g, P_lo, P_hi, x0=rx.vo1_pressure(mixed, rho_mix, T))
    except BracketError:  # the bracket is analytic, so only nan or overflowing ends share a sign
        raise NumericalError(f"the mixture volume is degenerate at rho={rho_mix!r}, T={T!r}") from None
    except ConvergenceError:
        raise NumericalError(f"the mixture pressure solve runs out of iterations at rho={rho_mix!r}, T={T!r}") from None
    rhos, v, S = _kernel_volume(terms, P, T)
    residual = abs(math.fsum([y / rho for (_, _, y, _), rho in zip(terms, rhos)]) - v_mix) / v_mix
    cp = 0.0
    for (gas, y), rho in zip(mix.components, rhos):
        cp += y * rx.vo1_cp(gas, rho, T)
    c = math.sqrt(cp * v * v / (mixed.Cv * S)) if mixed.Cv * S else None
    return P, iterations, rhos, residual, c


def _assert_is_the_kernel_solve(mix, rho, T):
    """mvo1_pressure and the closure against :func:`_kernel_solve`: the same bits where it
    returns an accepted state, the same refusal where it raises an EosError or breaks the
    1e-12 residual, and a NumericalError where it fails otherwise (a zero division)."""
    want, refused = _outcome(_kernel_solve, mix, rho, T)
    sol, sol_refused = _outcome(rx.mvo1_pressure, mix, rho, T)
    closure, closure_refused = _outcome(rx.mvo1_closure_from_rho_T, mix, rho, T)
    if refused is not None:
        if isinstance(refused, EosError):
            for got in (sol_refused, closure_refused):
                assert (type(got), str(got)) == (type(refused), str(refused)), (mix, rho, T)
        else:
            assert isinstance(refused, ZeroDivisionError), (mix, rho, T)
            assert type(sol_refused) is type(closure_refused) is NumericalError, (mix, rho, T)
        return
    P, iterations, rhos, residual, c = want
    if not residual <= 1e-12:  # the solve's volume contract, which the closure keeps as well
        for got in (sol_refused, closure_refused):
            assert (type(got), str(got)) == (NumericalError, f"the mixture volume residual {residual!r} "
                                             f"exceeds 1e-12 at rho={rho!r}, T={T!r}"), (mix, rho, T)
        return
    assert sol is not None, (mix, rho, T, sol_refused)
    assert (_hex((sol.P, *sol.rho_components, sol.residual_rel)), sol.iterations) == (
        _hex((P, *rhos, residual)), iterations), (mix, rho, T)
    if c is not None and 0.0 < P < math.inf and 0.0 < c < math.inf:
        assert closure is not None and _hex(closure) == _hex((P, T, c)), (mix, rho, T, closure_refused)
    else:
        assert type(closure_refused) is NumericalError, (mix, rho, T)


def _wide_range_cells(n, seed):
    """``(mix, rho, T)`` of contrived VO1 mixtures of 1-3 components: R 1e-3-1e6 J/(kg K),
    a 1e-300-1e3 m3/kg, rho 1e-50-1e160 kg/m3 and T 1e-3-1e8 K, log-uniform; in every third
    cell the added components' mass fractions reach down to 1e-12."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))

    for i in range(n):
        k = rng.choice((1, 2, 2, 3))
        ys = [log_uniform(1e-12, 1.0) if i % 3 == 0 else rng.random() for _ in range(k - 1)]
        ys = [y / (1.0 + math.fsum(ys)) for y in ys]
        gases = [rx.GasParams.virial(f"g{j}", R=log_uniform(1e-3, 1e6), a=log_uniform(1e-300, 1e3), Cv=1000.0)
                 for j in range(k)]
        yield (rx.MixtureSpec(tuple(zip(gases, [1.0 - math.fsum(ys), *ys]))),
               log_uniform(1e-50, 1e160), log_uniform(1e-3, 1e8))


@pytest.fixture
def fallbacks(monkeypatch):
    """The arguments of every solve_monotone call the library makes, the oracle's and the solve's."""
    from redeos import mixture, numerics
    calls = []
    solve = rx.solve_monotone  # bound in the package now, so _kernel_solve's calls are not counted

    def counted(*args, **kw):
        calls.append(args[1:])
        return solve(*args, **kw)

    monkeypatch.setattr(numerics, "solve_monotone", counted)
    monkeypatch.setattr(mixture, "solve_monotone", counted)
    return calls


class TestInlineSolve:
    """The solve's inline Newton path and inline laws are solve_monotone on the kernels' residual."""

    def test_seeded_cells_are_the_kernel_solve(self, db, fallbacks):
        # 20,000 cells of NC-13/RDX/HMX pairs, rho 1e-3-2e3 kg/m3, T 300-6000 K; none leaves
        # Newton's path, not even the ~1% whose start is the root to the last bit, and a
        # bracket narrowed wrongly would hand many of them to solve_monotone
        rng = random.Random(2604)
        names = ("NC-13", "RDX", "HMX")
        for _ in range(200):
            a, b = rng.sample(names, 2)
            y = rng.random()
            mix = rx.MixtureSpec(((db.get(a, rx.Model.VO1), 1.0 - y), (db.get(b, rx.Model.VO1), y)))
            for _ in range(100):
                _assert_is_the_kernel_solve(mix, 10.0 ** rng.uniform(-3.0, math.log10(2e3)),
                                            rng.uniform(300.0, 6000.0))
        assert not fallbacks

    def test_wide_range_cells_are_the_kernel_solve(self):
        # the closures once returned 54 of these states although mvo1_pressure refuses their volume
        # residual; 100 were refused on it while solve_monotone's stop floor, 1e-15 of the bracket,
        # and its step test after a secant step ended them short of the root.  None is now, and
        # every refusal names the cell, not the solver's bracket.  One cell takes 105 iterations: a budget
        # of 100 refused it, and the library's one budget of 200 solves it
        refused = collections.Counter()
        iterations = []
        for mix, rho, T in _wide_range_cells(2000, 2801):
            _assert_is_the_kernel_solve(mix, rho, T)
            solution, error = _outcome(rx.mvo1_pressure, mix, rho, T)
            if error is not None:
                assert str(error).endswith(f" at rho={rho!r}, T={T!r}"), error
                refused[str(error).split(" at rho=")[0]] += 1
                assert _outcome(rx.mvo1_closure_from_rho_T, mix, rho, T)[1] is not None, (mix, rho, T)
            else:
                iterations.append(solution.iterations)
        assert refused == {"the mixture pressure overflows": 9, "the component densities underflow": 1}
        assert (len(iterations), max(iterations)) == (1990, 105)

    def test_only_edge_cells_reach_solve_monotone(self, db, half_vo1, fallbacks):
        # the inline Newton paths alone serve the default-grid audits, as they serve the seeded cells
        from test_numerics import _BUILTIN_RECORDS
        for material, model in _BUILTIN_RECORDS:
            report = rx.audit_record(db.get(material, model), _parse_range("10:600:50"),
                                     _parse_range("1500:4500:250"))
            assert report.points == 156 and report.passed
        assert not fallbacks
        # at 1e-160 kg/m3 the slope S overflows to inf, and the solve falls back to the bracket
        assert rx.mvo1_pressure(half_vo1, 1e-160, 3600.0).residual_rel <= 1e-12
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("rho", [0.0, -1.0, 5e-324, 1e-300, 1e-170, 1e-160, 1e-100, 1.0, 200.0,
                                     1e100, 3.254852618965709e150, 1e300, sys.float_info.max,
                                     math.inf, math.nan])
    def test_edge_cells_are_the_kernel_solve(self, db, rho):
        mix = rx.MixtureSpec(tuple((db.get(name, rx.Model.VO1), y) for name, y in (("NC-13", 0.5), ("RDX", 0.5))))
        for T in (0.0, 5e-324, 1e-300, 1.0, rx.mixture_flame_temperature(mix), 1e300, math.inf, math.nan):
            _assert_is_the_kernel_solve(mix, rho, T)

    @pytest.mark.parametrize("rho, T", [(1e-160, 3600.0), (1e-170, 3600.0), (3.254852618965709e150, None),
                                        (0.1, 2.7925438412375077e306)])
    def test_degenerate_cells_are_refused_naming_the_input(self, half_vo1, rho, T):
        T = T or rx.mixture_flame_temperature(half_vo1)
        for call in (rx.mvo1_closure_from_rho_T, rx.mvo1_pressure):
            _, refused = _outcome(call, half_vo1, rho, T)
            if call is rx.mvo1_pressure and refused is None:
                continue  # at 1e-160 P and its residual are fine; only c is not
            assert type(refused) is NumericalError
            assert f"rho={rho!r}, T={T!r}" in str(refused)

    @pytest.mark.parametrize("a", [1e-300, 0.002359, 1e300])
    @pytest.mark.parametrize("R", [1e-300, 322.0, 1e300])
    def test_density_root_is_virial_density_pt(self, R, a):
        edges = (0.0, 5e-324, 1e-310, 1e-160, 1.0, 3.7e8, 1e154, 1e300, sys.float_info.max, math.inf, math.nan)
        for P in edges:
            for T in edges[1:]:
                want, want_raised = _outcome(virial_density_pt, R, a, P, T)
                got, got_raised = _outcome(_mixture_volume, ((R, a, 1.0, None),), P, T)
                if got_raised is None:
                    assert got[0][0].hex() == want.hex(), (P, T)
                else:  # R T underflows, which the kernel refuses, or the pass divides by a root or a square that does
                    assert type(got_raised) is ZeroDivisionError, (P, T)
                    assert (type(want_raised) is NumericalError or want == 0.0
                            or want * want * R * T * (1.0 + 2.0 * a * want) == 0.0), (P, T)

    @pytest.mark.parametrize("a", [1e-300, 0.002359, 1e300])
    @pytest.mark.parametrize("R", [1e-300, 322.0, 1e300])
    def test_cp_is_vo1_cp(self, monkeypatch, R, a):
        # with v = S = Cv = Y = 1 and the square root taken out, the sound speed is the inline Cp
        from redeos import mixture
        monkeypatch.setattr(mixture, "sqrt", lambda x: x)
        gas = rx.GasParams.virial("edge", R=R, a=a, Cv=1.0)
        mix = rx.MixtureSpec(((gas, 1.0),))
        for rho in (5e-324, 1e-310, 1e-160, 1.0, 200.0, 1e154, 1e300, sys.float_info.max, math.inf):
            got, got_raised = _outcome(mixture._sound_speed, mix, 3000.0, ([rho], 1.0, 1.0))
            want, want_raised = _outcome(rx.vo1_cp, gas, rho, 3000.0)
            if want_raised is None:
                assert got.hex() == want.hex(), rho
            else:
                assert (type(got_raised), str(got_raised)) == (type(want_raised), str(want_raised)), rho


class TestMixtureFlameTemperature:
    def test_equal_split(self, half_na):
        assert half_na.mixed.e_s_eff == pytest.approx(5_995_000.0, rel=1e-12)
        assert rx.mixture_flame_temperature(half_na) == pytest.approx(3657.7, rel=1e-4)

    def test_pure_components(self, nc13_na, rdx_na):
        assert rx.mixture_flame_temperature(
            rx.MixtureSpec(((nc13_na, 1.0),))) == pytest.approx(3275.0, rel=1e-3)
        assert rx.mixture_flame_temperature(
            rx.MixtureSpec(((nc13_na, 0.0), (rdx_na, 1.0)))) == pytest.approx(4040.0, rel=1e-3)

    def test_requires_effective_energy(self):
        bare = rx.GasParams.virial("bare", R=322.0, a=0.002359, Cv=1640.5)
        with pytest.raises(ValidationError):
            rx.mixture_flame_temperature(rx.MixtureSpec(((bare, 1.0),)))
