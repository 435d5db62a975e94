"""Full consistent-state assembly for any of the three gas models.

Builders accept the three natural input pairs, (rho, T), (P, T) and
(rho, e), and return a :class:`~redeos.types.ThermoState`.  ``LAWS`` holds
each model's thermal law and closed forms; energy and temperature come from
the caloric law every model shares (:mod:`redeos.virial_cvt`).  The two
virial models share one entry, whose closed forms read Cv(T); only the
entropy needs a constant Cv, so a Cv(T) state leaves that field empty.  The
entries call the kernels through their modules, so that wrappers installed
on module attributes see those calls.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import DomainError, NumericalError, ValidationError
from .types import DEFAULT_ENTROPY_REF, GasParams, Model, ThermoState, _div
from . import noble_abel, virial, virial_cvt


class Laws(NamedTuple):
    """One model's thermal law and closed forms."""

    pressure: Callable      # P(params, rho, T)
    density: Callable       # rho(params, P, T)
    derived: Callable       # (h, s, c, Cp, gamma)(params, rho, T, P, ref); s is None without a closed form
    sound_speed: Callable   # c(params, P, rho, T)
    convexity: Callable     # ConvexityReport(params, rho, P, T)


def na_specific_volume(params: GasParams, rho, T):
    """1/rho for a Noble-Abel record entered by density; :class:`DomainError`
    naming rho unless 0 < rho < 1/b.  A bad T is left to the thermal law,
    which names it first."""
    if not rho > 0.0:
        raise DomainError(f"density must be positive, got {rho!r}")
    v = 1.0 / rho
    if T > 0.0 and not v > params.b:
        raise DomainError(
            f"density {rho!r} kg/m3 is not below the packing limit 1/b = {_div(1.0, params.b)!r} kg/m3")
    return v


def _na_pressure(params, rho, T):
    return noble_abel.na_pressure_vt(params, na_specific_volume(params, rho, T), T)


def _na_density(params, P, T):
    rho = 1.0 / noble_abel.na_volume(params, P, T)
    if not 1.0 / rho > params.b:
        raise NumericalError(f"R T / P underflows against the covolume at P={P!r}, T={T!r}")
    return rho


def _na_derived(params, rho, T, P, ref):
    return (noble_abel.na_enthalpy(params, P, T), noble_abel.na_entropy(params, P, T, ref),
            noble_abel.na_sound_speed(params, P, rho), noble_abel.na_cp(params), noble_abel.na_gamma(params))


def _virial_derived(params, rho, T, P, ref):
    # h = (e - q) + P/rho + q; the entropy needs a constant Cv, so records with a slope c get none
    h = virial_cvt.cvt_effective_energy(params, T) + P / rho + params.q
    s = virial.vo1_entropy(params, P, T, ref) if params.c is None and params.a > 0.0 else None
    c = virial.vo1_sound_speed(params, P, rho, T)
    Cp = virial.vo1_cp(params, rho, T)
    return h, s, c, Cp, Cp / virial_cvt.cvt_cv(params, T)  # vo1_gamma without a second vo1_cp


_VIRIAL_LAWS = Laws(
    pressure=lambda params, rho, T: virial.vo1_pressure(params, rho, T),
    density=lambda params, P, T: virial.vo1_density(params, P, T),
    derived=_virial_derived,
    sound_speed=lambda params, P, rho, T: virial.vo1_sound_speed(params, P, rho, T),
    convexity=lambda params, rho, P, T: virial.vo1_convexity(params, rho, P, T))

LAWS = {
    Model.NA: Laws(
        pressure=_na_pressure,
        density=_na_density,
        derived=_na_derived,
        sound_speed=lambda params, P, rho, T: noble_abel.na_sound_speed(params, P, rho),
        convexity=lambda params, rho, P, T: noble_abel.na_convexity(params, 1.0 / rho, P, T)),
    Model.VO1: _VIRIAL_LAWS,
    Model.VO1_CVT: _VIRIAL_LAWS,
}


def state_from_rho_T(params: GasParams, rho, T, ref=DEFAULT_ENTROPY_REF) -> ThermoState:
    """Consistent state from density and temperature; :class:`NumericalError` if
    it degenerates in floating point (1/rho or P overflows, gamma rounds to 1)."""
    laws = LAWS[params.model]
    P = laws.pressure(params, rho, T)
    v = 1.0 / rho
    if v == math.inf:
        raise NumericalError(f"the specific volume 1/rho overflows at rho={rho!r}")
    e = virial_cvt.cvt_energy(params, T)
    h, s, c, Cp, gamma = laws.derived(params, rho, T, P, ref)
    try:
        return ThermoState(P, T, rho, v, e, h, s, c, Cp, gamma)
    except ValidationError as exc:
        raise NumericalError(f"the state at rho={rho!r}, T={T!r} is degenerate: {exc}") from None


def state_from_P_T(params: GasParams, P, T, ref=DEFAULT_ENTROPY_REF) -> ThermoState:
    """Consistent state from pressure and temperature."""
    rho = LAWS[params.model].density(params, P, T)
    if not 0.0 < rho < math.inf:
        raise NumericalError(f"the density at P={P!r}, T={T!r} under- or overflows, got {rho!r}")
    return state_from_rho_T(params, rho, T, ref)


def state_from_rho_e(params: GasParams, rho, e, ref=DEFAULT_ENTROPY_REF) -> ThermoState:
    """Consistent state from density and specific internal energy."""
    return state_from_rho_T(params, rho, virial_cvt.cvt_temperature(params, e), ref)
