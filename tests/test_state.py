import dataclasses
import math
import random
import sys

import pytest

import redeos as rx
from redeos import state


class TestNobleAbelStates:
    def test_input_pairs_agree(self, nc13_na):
        rho, T = 100.0, 3275.0
        from_rho_T = rx.state_from_rho_T(nc13_na, rho, T)
        from_P_T = rx.state_from_P_T(nc13_na, from_rho_T.P, T)
        from_rho_e = rx.state_from_rho_e(nc13_na, rho, from_rho_T.e)
        for other in (from_P_T, from_rho_e):
            assert other.P == pytest.approx(from_rho_T.P, rel=1e-12)
            assert other.T == pytest.approx(T, rel=1e-12)
            assert other.rho == pytest.approx(rho, rel=1e-12)
            assert other.s == pytest.approx(from_rho_T.s, rel=1e-12)

    def test_fields_are_consistent(self, nc13_na):
        st = rx.state_from_rho_T(nc13_na, 100.0, 3275.0)
        assert st.v * st.rho == pytest.approx(1.0, rel=1e-15)
        assert st.h == pytest.approx(st.e + st.P * st.v, rel=1e-12)
        assert st.gamma == pytest.approx(st.Cp / nc13_na.Cv, rel=1e-12)
        assert st.c == pytest.approx(1359.1, rel=1e-3)

    def test_packing_limit_is_named_as_a_density(self, nc13_na):
        # once named the internal specific volume 1/rho; a bad T is still named first
        with pytest.raises(rx.DomainError, match=r"^density 700\.0 kg/m3 is not below the packing limit 1/b = 673"):
            rx.state_from_rho_T(nc13_na, 700.0, 3000.0)
        with pytest.raises(rx.DomainError, match=r"^temperature must be positive, got -5\.0"):
            rx.state_from_rho_T(nc13_na, 700.0, -5.0)

    def test_enthalpy_overflow_is_numerical(self, nc13_na):
        # e + P/rho overflows here; the state was returned with h = inf
        with pytest.raises(rx.NumericalError, match=r"^the state at rho=0\.001, T=1e\+305 is degenerate: h must be finite"):
            rx.state_from_rho_T(nc13_na, 1e-3, 1e305)

    def test_root_on_the_covolume_is_numerical(self, nc13_na):
        # R T / P underflows against b, so the root is b itself
        with pytest.raises(rx.NumericalError, match=r"underflows against the covolume"):
            rx.state_from_P_T(nc13_na, 1e306, 1e-300)

    def test_overflowing_volume_is_numerical(self, nc13_na):
        # R T / P overflows to an infinite volume, whose density 0 the check once divided by
        with pytest.raises(rx.NumericalError, match=r"^R T / P overflows at P=1\.79e-291, T=1\.31e\+219$"):
            rx.state_from_P_T(nc13_na, 1.79e-291, 1.31e219)


class TestVirialStates:
    def test_input_pairs_agree(self, nc13_vo1):
        rho, T = 400.0, 3275.0
        base = rx.state_from_rho_T(nc13_vo1, rho, T)
        assert rx.state_from_P_T(nc13_vo1, base.P, T).rho == pytest.approx(rho, rel=1e-12)
        assert rx.state_from_rho_e(nc13_vo1, rho, base.e).T == pytest.approx(T, rel=1e-12)

    def test_fields_are_consistent(self, nc13_vo1):
        st = rx.state_from_rho_T(nc13_vo1, 100.0, 3275.0)
        assert st.h == pytest.approx(st.e + st.P * st.v, rel=1e-12)
        assert st.gamma == pytest.approx(rx.vo1_cp(nc13_vo1, 100.0, 3275.0) / nc13_vo1.Cv, rel=1e-15)
        assert st.s == pytest.approx(rx.vo1_entropy(nc13_vo1, st.P, st.T), rel=1e-15)

    def test_entropy_above_6e305_pa_is_finite(self, nc13_vo1):
        # P T0 overflowed in the entropy's log argument, so s was nan with every other field finite
        st = rx.state_from_rho_e(nc13_vo1, 1.0, 1e308)
        assert st.P > 6e305
        assert st.s == pytest.approx(1.14e6, rel=1e-2)


class TestCvtStates:
    def test_entropy_is_absent(self, nc13_cvt):
        st = rx.state_from_rho_T(nc13_cvt, 100.0, 3275.0)
        assert st.s is None

    def test_oracle_backed_fields(self, nc13_cvt):
        st = rx.state_from_rho_T(nc13_cvt, 100.0, 3275.0)
        assert st.gamma > 1.0
        assert st.Cp > rx.cvt_cv(nc13_cvt, 3275.0)
        # the thermal law matches the constant-Cv variant, so the sound
        # speed must land near the constant-Cv value at the same state
        assert st.c == pytest.approx(1366.8, rel=5e-2)

    def test_input_pairs_agree(self, nc13_cvt):
        rho, T = 150.0, 2500.0
        base = rx.state_from_rho_T(nc13_cvt, rho, T)
        assert rx.state_from_P_T(nc13_cvt, base.P, T).rho == pytest.approx(rho, rel=1e-12)
        assert rx.state_from_rho_e(nc13_cvt, rho, base.e).T == pytest.approx(T, rel=1e-10)

    def test_matches_constant_cv_variant_when_flat(self, nc13_vo1):
        flat = rx.GasParams.virial_cvt("flat", R=nc13_vo1.R, a=nc13_vo1.a, Cv0=nc13_vo1.Cv, c=0.0)
        st_flat = rx.state_from_rho_T(flat, 100.0, 3275.0)
        st_vo1 = rx.state_from_rho_T(nc13_vo1, 100.0, 3275.0)
        assert st_flat.P == st_vo1.P
        assert st_flat.e == pytest.approx(st_vo1.e, rel=1e-12)
        assert st_flat.c == st_vo1.c
        assert st_flat.Cp == st_vo1.Cp
        assert st_flat.gamma == st_vo1.gamma


@pytest.mark.parametrize("model", [rx.Model.NA, rx.Model.VO1, rx.Model.VO1_CVT])
def test_virial_cp_and_gamma_are_the_kernels_bit_for_bit(db, model):
    # Cp is the model's kernel; h = e + P/rho and gamma = Cp/Cv(T) are written once, for every model
    params = db.get("NC-13", model)
    cp = (lambda rho, T: rx.na_cp(params)) if model is rx.Model.NA else (lambda rho, T: rx.vo1_cp(params, rho, T))
    rng = random.Random(1010)
    for _ in range(200):
        rho, T = rng.uniform(1.0, 600.0), rng.uniform(300.0, 4000.0)
        st = rx.state_from_rho_T(params, rho, T)
        assert st.Cp == cp(rho, T)
        assert st.h == st.e + st.P / st.rho
        assert st.gamma == st.Cp / rx.cvt_cv(params, T)


def test_builders_never_call_the_oracle(monkeypatch, db):
    # the oracle verifies the closed forms; no state may depend on it
    original = rx.sound_speed_fd_oracle

    def refuse(*args):
        raise AssertionError("a state builder called the finite-difference oracle")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "redeos" and getattr(module, "sound_speed_fd_oracle", None) is original:
            monkeypatch.setattr(module, "sound_speed_fd_oracle", refuse)
    for model in rx.Model:
        params = db.get("NC-13", model)
        st = rx.state_from_rho_T(params, 100.0, 3275.0)
        assert rx.state_from_P_T(params, st.P, st.T).c > 0.0
        assert rx.state_from_rho_e(params, st.rho, st.e).c > 0.0


def _extreme_points(db, n=300):
    """Seeded (record, input pair, rho, T or e): rho from 1e-320 to 1e308, T and e from 1e-300 to 1e300."""
    rng = random.Random(1919)
    points = []
    for params in (record.params for record in db.records.values()):
        for _ in range(n):
            rho = 10.0 ** rng.uniform(-320.0, 308.0)
            points.append((params, "rho_T", rho, 10.0 ** rng.uniform(-300.0, 300.0)))
            points.append((params, "rho_e", rho, 10.0 ** rng.uniform(-300.0, 300.0)))
    return points


_PAIRS = {"rho_T": (rx.closure_from_rho_T, rx.state_from_rho_T),
          "rho_e": (rx.closure_from_rho_e, rx.state_from_rho_e)}


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (rx.EosError, ArithmeticError, ValueError) as exc:
        return None, exc


class TestClosure:
    """The (P, T, c) closure is the state builder's P, T and c, bit for bit, and its refusals."""

    def test_closure_is_the_state_or_raises_what_the_state_raises(self, db):
        returned = 0
        for params, pair, rho, y in _extreme_points(db):
            closure, build = _PAIRS[pair]
            got, got_exc = _outcome(closure, params, rho, y)
            st, st_exc = _outcome(build, params, rho, y)
            if st is not None:
                returned += 1
                assert got is not None, (params, pair, rho, y, got_exc)
                assert tuple(x.hex() for x in got) == (st.P.hex(), st.T.hex(), st.c.hex())
            if got_exc is not None:
                assert type(st_exc) is type(got_exc), (params, pair, rho, y)
        assert returned > 1000  # the grid reaches the states, not only their refusals

    def test_state_fails_beyond_the_closure_only_in_s_cp_or_gamma(self, db, monkeypatch):
        # with s and Cp = 2 Cv(T) (gamma = 2), which cannot fail, a state exists wherever its
        # closure does, unless the enthalpy e + P/rho, which the closure does not form, overflows
        for model, laws in list(state.LAWS.items()):
            monkeypatch.setitem(state.LAWS, model, laws._replace(
                derived=lambda params, rho, T, P: (None, 2.0 * rx.cvt_cv(params, T))))
        h_only = 0
        for params, pair, rho, y in _extreme_points(db):
            closure, build = _PAIRS[pair]
            got, got_exc = _outcome(closure, params, rho, y)
            st, st_exc = _outcome(build, params, rho, y)
            if got is not None and st is None:
                h_only += 1
                assert str(st_exc).endswith("is degenerate: h must be finite, got inf"), (params, pair, rho, y)
                continue
            assert (st is None) == (got is None), (params, pair, rho, y)
            if got is None:
                assert type(st_exc) is type(got_exc)
        assert h_only > 0

    def test_no_state_holds_a_non_finite_field(self, db):
        returned = 0
        for params, pair, rho, y in _extreme_points(db):
            st, _ = _outcome(_PAIRS[pair][1], params, rho, y)
            if st is not None:
                returned += 1
                assert all(math.isfinite(x) for x in dataclasses.astuple(st) if x is not None), st
        assert returned > 1000

    def test_closure_fields(self, nc13_vo1):
        got = rx.closure_from_rho_e(nc13_vo1, 100.0, rx.cvt_energy(nc13_vo1, 3275.0))
        assert got._fields == ("P", "T", "c")
        st = rx.state_from_rho_T(nc13_vo1, 100.0, got.T)
        assert (got.P, got.c) == (st.P, st.c)

    def test_entropy_of_an_underflowed_pressure_ratio_is_numerical(self, nc13_na):
        # P is positive but P / P0 underflows, and the entropy's log(P/P0) raised a bare ValueError
        assert rx.closure_from_rho_T(nc13_na, 1e-300, 1e-25).P == 3.5e-323
        with pytest.raises(rx.NumericalError, match=r"rho=1e-300, T=1e-25"):
            rx.state_from_rho_T(nc13_na, 1e-300, 1e-25)


def _drawn_records(n=240):
    """Seeded hand-built records of each model, fields log-uniform from 5e-324 to 1.7e308, a and c of either sign."""
    rng = random.Random(3707)

    def positive():
        return 10.0 ** rng.uniform(-323.3, 308.2)

    def signed():
        return math.copysign(positive(), rng.random() - 0.5)

    records = [
        rx.GasParams.noble_abel("na-ideal", R=338.9, b=0.0, Cv=1637.1),
        rx.GasParams.virial("vo1-negative-a", R=322.0, a=-0.002, Cv=1640.5),
        # its discriminant Cv0^2 + 2 c (e - q) is exactly 0, so Cv(T) is 0, at e = 1.79e7 J/kg
        rx.GasParams.virial_cvt("cvt-negative-c", R=322.0, a=0.002359, Cv0=1500.0, c=-0.0625, q=-1.0e5),
        rx.GasParams.virial_cvt("cvt-flat", R=322.0, a=0.002359, Cv0=1640.5, c=0.0),
        rx.GasParams.virial_cvt("cvt-subnormal-cv0", R=322.0, a=0.002, Cv0=5e-324, c=1.1921168350632048e-222),
    ]
    while len(records) < n:
        kind = len(records) % 3
        try:
            if kind == 0:
                records.append(rx.GasParams.noble_abel("na", R=positive(), b=positive(), Cv=positive(), q=signed()))
            elif kind == 1:
                records.append(rx.GasParams.virial("vo1", R=positive(), a=signed(), Cv=positive()))
            else:
                records.append(rx.GasParams.virial_cvt("cvt", R=positive(), a=signed(), Cv0=positive(), c=signed(),
                                                       q=signed()))
        except rx.ValidationError:
            pass
    return records


EDGES = (0.0, -0.0, -1.0, 5e-324, 1e308, math.inf, -math.inf, math.nan)


def _differential_inputs(params, rng):
    """Edge values, rho at 1/b, e at q, just above it and where a negative slope takes Cv(T) to 0,
    and seeded in-domain and log-uniform draws."""
    rhos = [*EDGES, *(rng.uniform(1.0, 600.0) for _ in range(4)),
            *(10.0 ** rng.uniform(-320.0, 308.0) for _ in range(4))]
    if params.b:
        rhos += [1.0 / params.b, math.nextafter(1.0 / params.b, 0.0)]
    T = rng.uniform(300.0, 5000.0)
    Cv0, c = params.cv_law
    energies = [*EDGES, params.q, math.nextafter(params.q, math.inf), params.q + Cv0 * Cv0 / (-2.0 * c or 1.0),
                params.q + rng.uniform(1e5, 8e6),
                *(10.0 ** rng.uniform(-300.0, 308.0) for _ in range(4))]
    try:
        energies.append(rx.cvt_energy(params, T))
    except rx.EosError:
        pass
    return rhos, energies


def _bits(closure):
    return tuple(x.hex() for x in closure)


class TestCompiledClosure:
    """``closure_for(params)`` is ``closure_from_rho_e(params, ...)``: the same floats, or the same refusal."""

    def test_values_and_refusals_are_closure_from_rho_e(self, db):
        rng = random.Random(3708)
        returned = 0
        for params in [record.params for record in db.records.values()] + _drawn_records():
            compiled = rx.closure_for(params)
            rhos, energies = _differential_inputs(params, rng)
            for rho in rhos:
                for e in energies:
                    got, got_exc = _outcome(compiled, rho, e)
                    want, want_exc = _outcome(rx.closure_from_rho_e, params, rho, e)
                    if want is not None:
                        returned += 1
                        assert type(got) is rx.Closure and _bits(got) == _bits(want), (params, rho, e, got_exc)
                    else:
                        assert isinstance(got_exc, rx.EosError), (params, rho, e, got)
                        assert (type(got_exc), str(got_exc)) == (type(want_exc), str(want_exc)), (params, rho, e)
        assert returned > 2000

    def test_in_domain_cells_take_the_compiled_path(self, db, monkeypatch):
        # the kernels' path is the fallback: on the built-in records' calibrated range it is never reached
        fallbacks = []
        monkeypatch.setattr(state, "closure_from_rho_e", lambda *args: fallbacks.append(args))
        rng = random.Random(3709)
        for params in (record.params for record in db.records.values()):
            compiled = rx.closure_for(params)
            for _ in range(200):
                rho = rng.uniform(20.0, 0.9 / params.b if params.b else 600.0)
                assert compiled(rho, rx.cvt_energy(params, rng.uniform(1500.0, 4500.0))) is not None
        assert fallbacks == []

    @pytest.mark.parametrize("model", list(rx.Model))
    def test_flame_energy_gives_the_flame_temperature(self, db, model):
        # eos sweep and mix-sweep print the flame once and call the closure at q + e_s_eff
        from redeos.virial_cvt import _flame_energy, _flame_temperature
        params = db.get("NC-13", model)
        assert rx.closure_for(params)(150.0, _flame_energy(params)).T == _flame_temperature(params)
