"""Seeded property test of the library's exception contract over drawn inputs.

A flow solver or a script that calls the library gets no exit-code mapping,
so every public call below must return or raise an :class:`EosError`; a bare
``ArithmeticError`` or ``ValueError`` escaping one breaks that contract.
Inputs are drawn log-uniformly from 5e-324 to 1.7e308, as plain floats over
that range, or from 0, -1, inf and nan, on every built-in record and on
two-component VO1 mixtures of them; the audit, the kernels and the mixture
calls also run on records whose fields are drawn the same way.  The draws
are derandomized, so the test is seeded.
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
EXTREME_VO1_RECORDS = st.builds(rx.GasParams.virial, st.just("vo1"), R=POSITIVE, a=SIGNED, Cv=POSITIVE)
EXTREME_RECORDS = st.one_of(
    st.builds(rx.GasParams.noble_abel, st.just("na"), R=POSITIVE, b=st.one_of(st.just(0.0), POSITIVE), Cv=POSITIVE),
    EXTREME_VO1_RECORDS,
    st.builds(rx.GasParams.virial_cvt, st.just("vo1cvt"), R=POSITIVE, a=SIGNED, Cv0=POSITIVE, c=SIGNED))


def _binary_mixtures(records):
    return st.builds(lambda a, b, y: rx.MixtureSpec(((a, 1.0 - y), (b, y))), records, records, st.floats(0.0, 1.0))


MIXTURES = st.one_of(_binary_mixtures(VO1_RECORDS), _binary_mixtures(EXTREME_VO1_RECORDS))

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
@settings(max_examples=250)  # 300 until the compiled closures' test below took its share of the time
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
# R T / P underflows to a zero Noble-Abel volume at b = 0
@example(params=rx.GasParams.noble_abel("x", R=2.2564718568936926e-220, b=0.0, Cv=5.454484590488076e112),
         x=5.883372714001903e58, y=7.399646723057632e-193)
def test_single_record_calls_raise_only_eos_errors(name, params, x, y):
    _returns_or_refuses(SINGLE_RECORD_CALLS[name], params, x, y)


@pytest.mark.parametrize("name", KERNELS)
@settings(max_examples=40)
@given(params=st.one_of(RECORDS, EXTREME_RECORDS), x=NUMBERS, y=NUMBERS, z=NUMBERS)
# (1 + a rho) ** 2 overflows in Cp
@example(params=DB.get("NC-13", rx.Model.VO1), x=1e160, y=3000.0, z=3000.0)
# P/P0 underflows to zero under the entropy's logarithm, from P itself or from (v, T)
@example(params=DB.get("NC-13", rx.Model.NA), x=1e-320, y=3000.0, z=3000.0)
@example(params=DB.get("NC-13", rx.Model.NA), x=2.2487202936894177e168, y=1.1666991359180864e-153, z=3000.0)
@example(params=DB.get("NC-13", rx.Model.VO1), x=1e-320, y=3000.0, z=3000.0)
# R T underflows to zero in the virial density root and in the entropy derivative
@example(params=rx.GasParams.virial_cvt("x", R=8.955808773798834e-305, a=1.8425131222145302e293,
                                        Cv0=2.4899193927813445e135, c=6.011963787845538e95),
         x=5.480724957231869e-99, y=1.0538580565289492e-94, z=3000.0)
@example(params=rx.GasParams.virial("x", R=4.4553043819984555e-153, a=1.7175159957150723e-13, Cv=3.0656872406295786e177),
         x=4.441691237915163e62, y=3.3540507653460284e-190, z=3000.0)
# a subnormal Cv0 halves to zero in the caloric law's root
@example(params=rx.GasParams.virial_cvt("x", R=322.0, a=0.002, Cv0=5e-324, c=1.1921168350632048e-222),
         x=2.8565984075201855e-258, y=3000.0, z=3000.0)
# Cv0^2 overflows under a negative slope, alone or with 2 c e into inf - inf
@example(params=rx.GasParams.virial_cvt("x", R=1.0, a=1.0, Cv0=1e155, c=-1.0), x=1.0, y=3000.0, z=3000.0)
@example(params=rx.GasParams.virial_cvt("x", R=1.0, a=1.0, Cv0=1e308, c=-1e300), x=1e300, y=3000.0, z=3000.0)
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


def _closure_outcome(call, *args):
    """The closure's floats as hex, or the class and message of its refusal; any other error escapes."""
    try:
        return tuple(x.hex() for x in call(*args))
    except EosError as exc:
        return type(exc), str(exc)


@settings(max_examples=200)
@given(params=st.one_of(RECORDS, EXTREME_RECORDS), x=NUMBERS, y=NUMBERS)
def test_compiled_closures_are_closure_from_rho_e(params, x, y):
    # closure_for's second writing of the laws returns the kernels' floats or hands the input to them
    assert _closure_outcome(rx.closure_for(params), x, y) == _closure_outcome(rx.closure_from_rho_e, params, x, y)


@pytest.mark.parametrize("name", MIXTURE_CALLS)
@settings(max_examples=200)
@given(mix=MIXTURES, x=NUMBERS, y=NUMBERS)
def test_mixture_calls_raise_only_eos_errors(name, mix, x, y):
    _returns_or_refuses(MIXTURE_CALLS[name], mix, x, y)
