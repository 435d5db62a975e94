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

    def test_root_on_the_covolume_is_numerical(self, nc13_na):
        # R T / P underflows against b, so the root is b itself
        with pytest.raises(rx.NumericalError, match=r"underflows against the covolume"):
            rx.state_from_P_T(nc13_na, 1e306, 1e-300)


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
        # with s and Cp that cannot fail, a state exists wherever its closure does
        for model, laws in list(state.LAWS.items()):
            monkeypatch.setitem(state.LAWS, model, laws._replace(derived=lambda *args: (None, math.inf)))
        for params, pair, rho, y in _extreme_points(db):
            closure, build = _PAIRS[pair]
            got, got_exc = _outcome(closure, params, rho, y)
            st, st_exc = _outcome(build, params, rho, y)
            assert (st is None) == (got is None), (params, pair, rho, y)
            if got is None:
                assert type(st_exc) is type(got_exc)

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
