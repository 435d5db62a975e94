"""Seeded property test of the library's exception contract over drawn inputs.

A flow solver or a script that calls the library gets no exit-code mapping,
so every public call below must return or raise an :class:`EosError`; a bare
``ArithmeticError`` or ``ValueError`` escaping one breaks that contract.
Inputs are drawn log-uniformly from 5e-324 to 1.7e308, as plain floats over
that range, or from 0, -1, inf and nan, on every built-in record and on
two-component VO1 mixtures of them.  The draws are derandomized, so the
test is seeded.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import redeos as rx
from redeos.errors import EosError

DB = rx.builtin_database()
RECORDS = st.sampled_from([record.params for record in DB.records.values()])
VO1_RECORDS = st.sampled_from([record.params for record in DB.records.values() if record.params.model is rx.Model.VO1])
SPECIAL = [0.0, -1.0, math.inf, math.nan, 5e-324, 1.7e308]
NUMBERS = st.one_of(st.sampled_from(SPECIAL),
                    st.floats(math.log10(5e-324), math.log10(1.7e308)).map(lambda x: 10.0 ** x),
                    st.floats(min_value=5e-324, max_value=1.7e308))
MIXTURES = st.builds(lambda a, b, y: rx.MixtureSpec(((a, 1.0 - y), (b, y))),
                     VO1_RECORDS, VO1_RECORDS, st.floats(0.0, 1.0))

SINGLE_RECORD_CALLS = {
    "state_from_rho_T": rx.state_from_rho_T,
    "state_from_P_T": rx.state_from_P_T,
    "state_from_rho_e": rx.state_from_rho_e,
    "closure_from_rho_T": rx.closure_from_rho_T,
    "closure_from_rho_e": rx.closure_from_rho_e,
    "audit_record": lambda params, x, y: rx.audit_record(params, [x], [y]),
    "predict_closed_bomb": lambda params, x, y: rx.predict_closed_bomb(params, x),
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


@pytest.mark.parametrize("name", SINGLE_RECORD_CALLS)
@settings(max_examples=300)
@given(params=RECORDS, x=NUMBERS, y=NUMBERS)
# R T / P overflows to an infinite NA volume
@example(params=DB.get("NC-13", rx.Model.NA), x=1.79e-291, y=1.31e219)
# the closed-form convexity criteria square 1 + a rho past the largest float
@example(params=DB.get("NC-13", rx.Model.VO1), x=1e157, y=1e-300)
# the oracle's rho^2 underflows to zero
@example(params=DB.get("NC-13", rx.Model.VO1), x=1e-162, y=3000.0)
def test_single_record_calls_raise_only_eos_errors(name, params, x, y):
    _returns_or_refuses(SINGLE_RECORD_CALLS[name], params, x, y)


@pytest.mark.parametrize("name", MIXTURE_CALLS)
@settings(max_examples=300)
@given(mix=MIXTURES, x=NUMBERS, y=NUMBERS)
def test_mixture_calls_raise_only_eos_errors(name, mix, x, y):
    _returns_or_refuses(MIXTURE_CALLS[name], mix, x, y)
