"""Full consistent-state assembly for any of the three gas models.

Builders accept the three natural input pairs, (rho, T), (P, T) and
(rho, e), and return a :class:`~redeos.types.ThermoState`.  ``LAWS`` holds
each model's thermal law and closed forms; energy and temperature come from
the caloric law every model shares (:mod:`redeos.virial_cvt`).  The Cv(T)
virial variant has no closed-form entropy, sound speed or convexity
criteria (``None`` in ``LAWS``): its entropy field is left empty and the
sound speed, Cp and gamma come from the finite-difference oracle.  The
entries call the kernels through their modules, so that wrappers installed
on module attributes see those calls.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import DomainError
from .numerics import sound_speed_fd_oracle
from .types import DEFAULT_ENTROPY_REF, GasParams, Model, ThermoState
from . import noble_abel, virial, virial_cvt


class Laws(NamedTuple):
    """One model's thermal law and closed forms; ``None`` where none exists."""

    pressure: Callable              # P(params, rho, T)
    density: Callable               # rho(params, P, T)
    derived: Callable | None        # (h, s, c, Cp, gamma)(params, rho, T, P, ref)
    sound_speed: Callable | None    # c(params, P, rho)
    convexity: Callable | None      # ConvexityReport(params, rho, P, T)


def _na_pressure(params, rho, T):
    if rho == 0.0:
        raise DomainError(f"density must be positive, got {rho!r}")
    return noble_abel.na_pressure_vt(params, 1.0 / rho, T)


def _na_derived(params, rho, T, P, ref):
    return (noble_abel.na_enthalpy(params, P, T), noble_abel.na_entropy(params, P, T, ref),
            noble_abel.na_sound_speed(params, P, rho), noble_abel.na_cp(params), noble_abel.na_gamma(params))


def _vo1_derived(params, rho, T, P, ref):
    return (params.Cv * T + P / rho + params.q,
            virial.vo1_entropy(params, P, T, ref) if params.a > 0.0 else None,
            virial.vo1_sound_speed(params, P, rho), virial.vo1_cp(params, rho), virial.vo1_gamma(params, rho))


_VO1_LAWS = Laws(
    pressure=lambda params, rho, T: virial.vo1_pressure(params, rho, T),
    density=lambda params, P, T: virial.vo1_density(params, P, T),
    derived=_vo1_derived,
    sound_speed=lambda params, P, rho: virial.vo1_sound_speed(params, P, rho),
    convexity=lambda params, rho, P, T: virial.vo1_convexity(params, rho, P, T))

LAWS = {
    Model.NA: Laws(
        pressure=_na_pressure,
        density=lambda params, P, T: 1.0 / noble_abel.na_volume(params, P, T),
        derived=_na_derived,
        sound_speed=lambda params, P, rho: noble_abel.na_sound_speed(params, P, rho),
        convexity=lambda params, rho, P, T: noble_abel.na_convexity(params, 1.0 / rho, P, T)),
    Model.VO1: _VO1_LAWS,
    # the same thermal law; its closed forms assume a constant Cv
    Model.VO1_CVT: _VO1_LAWS._replace(derived=None, sound_speed=None, convexity=None),
}


def fd_closures(params: GasParams):
    """``(e(rho, T), P(rho, T))`` of a record, the primitives the difference routines take."""
    pressure = LAWS[params.model].pressure
    return (lambda r, t: virial_cvt.cvt_energy(params, t),
            lambda r, t: pressure(params, r, t))


def state_from_rho_T(params: GasParams, rho, T, ref=DEFAULT_ENTROPY_REF) -> ThermoState:
    """Consistent state from density and temperature."""
    laws = LAWS[params.model]
    P = laws.pressure(params, rho, T)
    e = virial_cvt.cvt_energy(params, T)
    if laws.derived is not None:
        h, s, c, Cp, gamma = laws.derived(params, rho, T, P, ref)
    else:
        oracle = sound_speed_fd_oracle(*fd_closures(params), rho, T)
        h, s, c, Cp, gamma = e + P / rho, None, math.sqrt(oracle.c2_gamma), oracle.cp, oracle.cp / oracle.cv
    return ThermoState(P=P, T=T, rho=rho, v=1.0 / rho, e=e, h=h, s=s, c=c, Cp=Cp, gamma=gamma)


def state_from_P_T(params: GasParams, P, T, ref=DEFAULT_ENTROPY_REF) -> ThermoState:
    """Consistent state from pressure and temperature."""
    return state_from_rho_T(params, LAWS[params.model].density(params, P, T), T, ref)


def state_from_rho_e(params: GasParams, rho, e, ref=DEFAULT_ENTROPY_REF) -> ThermoState:
    """Consistent state from density and specific internal energy."""
    return state_from_rho_T(params, rho, virial_cvt.cvt_temperature(params, e), ref)
