"""Seeded property test of the library's exception contract over drawn inputs.

A flow solver or a script that calls the library gets no exit-code mapping,
so every public call below must return or raise an :class:`EosError`; a bare
``ArithmeticError`` or ``ValueError`` escaping one breaks that contract.
Inputs are drawn log-uniformly from 5e-324 to 1.7e308, as plain floats over
that range, or from 0, -1, inf and nan, on every built-in record and on
two-component VO1 mixtures of them; the audit also runs on records whose
fields are drawn the same way.  The draws are derandomized, so the test is
seeded.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import redeos as rx
from redeos.errors import EosError
from redeos.state import LAWS

DB = rx.builtin_database()
RECORDS = st.sampled_from([record.params for record in DB.records.values()])
VO1_RECORDS = st.sampled_from([record.params for record in DB.records.values() if record.params.model is rx.Model.VO1])
SPECIAL = [0.0, -1.0, math.inf, math.nan, 5e-324, 1.7e308]
POSITIVE = st.floats(math.log10(5e-324), math.log10(1.7e308)).map(lambda x: 10.0 ** x)
NUMBERS = st.one_of(st.sampled_from(SPECIAL), POSITIVE, st.floats(min_value=5e-324, max_value=1.7e308))
SIGNED = st.builds(lambda x, negative: -x if negative else x, POSITIVE, st.booleans())
EXTREME_RECORDS = st.one_of(
    st.builds(rx.GasParams.noble_abel, st.just("na"), R=POSITIVE, b=st.one_of(st.just(0.0), POSITIVE), Cv=POSITIVE),
    st.builds(rx.GasParams.virial, st.just("vo1"), R=POSITIVE, a=SIGNED, Cv=POSITIVE),
    st.builds(rx.GasParams.virial_cvt, st.just("vo1cvt"), R=POSITIVE, a=SIGNED, Cv0=POSITIVE, c=SIGNED))
MIXTURES = st.builds(lambda a, b, y: rx.MixtureSpec(((a, 1.0 - y), (b, y))),
                     VO1_RECORDS, VO1_RECORDS, st.floats(0.0, 1.0))

SINGLE_RECORD_CALLS = {
    "state_from_rho_T": rx.state_from_rho_T,
    "state_from_P_T": rx.state_from_P_T,
    "state_from_rho_e": rx.state_from_rho_e,
    "closure_from_rho_T": rx.closure_from_rho_T,
    "closure_from_rho_e": rx.closure_from_rho_e,
    "audit_record": lambda params, x, y: rx.audit_record(params, [x], [y]),
    "predict_closed_bomb": lambda params, x, y: _predict_closed_bomb(params, x),
    "sound_speed_fd_oracle": lambda params, x, y: rx.sound_speed_fd_oracle(*_evaluators(params), x, y),
    "convexity_audit_fd": lambda params, x, y: rx.convexity_audit_fd(*_evaluators(params), x, y),
}
#: Every exported kernel that takes a record and numbers, by the count of numbers it takes.
KERNELS = {
    "cvt_cv": 1, "cvt_effective_energy": 1, "cvt_energy": 1, "cvt_temperature": 1,
    "na_entropy": 2, "na_entropy_vt": 2, "na_pressure_vt": 2, "na_sound_speed": 2, "na_volume": 2,
    "vo1_cp": 2, "vo1_density": 2, "vo1_entropy": 2, "vo1_entropy_dP": 2, "vo1_pressure": 2,
    "na_convexity": 3, "vo1_convexity": 3, "vo1_sound_speed": 3,
}
MIXTURE_CALLS = {
    "mvo1_pressure": rx.mvo1_pressure,
    "mvo1_sound_speed": rx.mvo1_sound_speed,
    "mvo1_closure_from_rho_T": rx.mvo1_closure_from_rho_T,
    "mvo1_closure_from_rho_e": rx.mvo1_closure_from_rho_e,
}


def _returns_or_refuses(call, *args):
    try:
        call(*args)
    except EosError:
        pass


def _evaluators(params):
    """The record's e(rho, T) and P(rho, T), as the audit differences them."""
    return (lambda rho, T: rx.cvt_energy(params, T)), (lambda rho, T: LAWS[params.model].pressure(params, rho, T))


def _predict_closed_bomb(params, rho_load):
    """The prediction, whose peak pressure must be positive and finite."""
    P_max = rx.predict_closed_bomb(params, rho_load).P_max
    assert 0.0 < P_max < math.inf, (params, rho_load, P_max)


@pytest.mark.parametrize("name", SINGLE_RECORD_CALLS)
@settings(max_examples=300)
@given(params=RECORDS, x=NUMBERS, y=NUMBERS)
# R T / P overflows to an infinite NA volume
@example(params=DB.get("NC-13", rx.Model.NA), x=1.79e-291, y=1.31e219)
# the closed-form convexity criteria square 1 + a rho past the largest float
@example(params=DB.get("NC-13", rx.Model.VO1), x=1e157, y=1e-300)
# the oracle's rho^2 underflows to zero
@example(params=DB.get("NC-13", rx.Model.VO1), x=1e-162, y=3000.0)
# the oracle's rho^2 and the prediction's P overflow
@example(params=DB.get("NC-13", rx.Model.VO1), x=1e160, y=3000.0)
# 1/rho_load overflows, and the Noble-Abel prediction's P is 0
@example(params=DB.get("NC-13", rx.Model.NA), x=5e-324, y=3000.0)
def test_single_record_calls_raise_only_eos_errors(name, params, x, y):
    _returns_or_refuses(SINGLE_RECORD_CALLS[name], params, x, y)


@pytest.mark.parametrize("name", KERNELS)
@settings(max_examples=60)
@given(params=RECORDS, x=NUMBERS, y=NUMBERS, z=NUMBERS)
# (1 + a rho) ** 2 overflows in Cp
@example(params=DB.get("NC-13", rx.Model.VO1), x=1e160, y=3000.0, z=3000.0)
# P/P0 underflows to zero under the entropy's logarithm, from P itself or from (v, T)
@example(params=DB.get("NC-13", rx.Model.NA), x=1e-320, y=3000.0, z=3000.0)
@example(params=DB.get("NC-13", rx.Model.NA), x=2.2487202936894177e168, y=1.1666991359180864e-153, z=3000.0)
@example(params=DB.get("NC-13", rx.Model.VO1), x=1e-320, y=3000.0, z=3000.0)
def test_kernels_raise_only_eos_errors(name, params, x, y, z):
    _returns_or_refuses(getattr(rx, name), params, *(x, y, z)[:KERNELS[name]])


@settings(max_examples=300)
@given(params=EXTREME_RECORDS, x=NUMBERS, y=NUMBERS)
# the oracle's derivative of e in P at constant density is zero
@example(params=rx.GasParams.virial("x", R=232.3, a=7.0e-140, Cv=1.14e-271), x=3.9e150, y=5.8e34)
# the energy's temperature derivative is zero
@example(params=rx.GasParams.noble_abel("y", R=484404.0967, b=6.15e-297, Cv=3.27e-290), x=2.68e-31, y=4.29e-77)
# P_T e_T underflows to zero in the difference convexity criteria
@example(params=rx.GasParams.virial("z", R=7.896545159806275e-271, a=1.470255844692482e-252, Cv=2.1484038752914186e-288),
         x=2.813924604500067e109, y=4.0005786642055177e65)
# R Cv underflows to zero in the closed-form Noble-Abel criteria
@example(params=rx.GasParams.noble_abel("w", R=3.7328e-319, b=6.377585546823874e-51, Cv=1.7513416037568124e-96),
         x=7.440907478781788e-185, y=9.737798867565975e256)
def test_audit_of_extreme_records_raises_only_eos_errors(params, x, y):
    _returns_or_refuses(rx.audit_record, params, [x], [y])


@pytest.mark.parametrize("name", MIXTURE_CALLS)
@settings(max_examples=300)
@given(mix=MIXTURES, x=NUMBERS, y=NUMBERS)
def test_mixture_calls_raise_only_eos_errors(name, mix, x, y):
    _returns_or_refuses(MIXTURE_CALLS[name], mix, x, y)
