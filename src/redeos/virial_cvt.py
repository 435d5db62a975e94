"""The caloric law Cv(T) = Cv0 + c T of every model, and the Cv(T) virial EOS.

e(T) = Cv0 T + (c/2) T^2 + q, with ``(Cv0, c)`` from ``GasParams.cv_law``;
NA and VO1 records are the c = 0 case with Cv0 = Cv, so the caloric
functions here accept any model.  VO1_CVT shares the thermal law, and its
kernels in :mod:`redeos.virial`, with the constant-Cv variant, so
thermodynamic compatibility carries over unchanged.  Its energy depends on
T only, so the virial closed forms hold with Cv replaced by :func:`cvt_cv`,
except the entropy, which this variant lacks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .types import GasParams, InertGasParams, Model, require_model
from . import virial


def cvt_cv(params: GasParams, T):
    """Specific heat at constant volume, Cv0 + c T; exactly Cv0 at c = 0, even for T = inf."""
    Cv0, c = params.cv_law
    return Cv0 + c * T if c else Cv0


def cvt_energy(params: GasParams, T):
    """Specific internal energy Cv0 T + (c/2) T^2 + q."""
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got {T!r}")
    Cv0, c = params.cv_law
    return Cv0 * T + 0.5 * c * T * T + params.q


def cvt_temperature(params: GasParams, e):
    """Temperature from internal energy: positive root of the caloric law.

    At c = 0 the root is the one division (e-q)/Cv0, exact at any
    magnitude.  Otherwise the textbook root (-Cv0 + sqrt(Cv0^2 + 2c(e-q))) / c
    divides a cancellation-prone difference by c; the rationalized equivalent

        T = 2 (e-q) / (Cv0 + sqrt(Cv0^2 + 2c(e-q)))

    is free of that cancellation for either sign of the slope.
    """
    if not e > params.q:
        raise DomainError(f"internal energy {e!r} J/kg does not exceed the reference q = {params.q!r}")
    Cv0, c = params.cv_law
    E = e - params.q
    if c == 0.0:
        return E / Cv0
    disc = Cv0 * Cv0 + 2.0 * c * E
    if disc < 0.0:
        raise DomainError(f"caloric law has no real temperature for e = {e!r} J/kg")
    return 2.0 * E / (Cv0 + math.sqrt(disc))


class InertMixtureState(NamedTuple):
    e_mix: float   # J/kg
    P: float       # Pa
    R_mix: float   # J/(kg K)


def cvt_inert_mixture_state(params: GasParams, inert: InertGasParams, Y, rho_mix, T) -> InertMixtureState:
    """State of reactant gas products diluted by an inert species.

    Mass fraction Y of gas products, 1 - Y of inert, in temperature and
    pressure equilibrium.  The mixture thermal law keeps the reactant's
    virial coefficient and uses the mass-fraction-weighted specific gas
    constant.
    """
    require_model(params, Model.VO1_CVT)
    if not 0.0 < Y <= 1.0:
        raise DomainError(f"reactant mass fraction must lie in (0,1], got {Y!r}")
    if not (rho_mix > 0.0 and T > 0.0):
        raise DomainError(f"density and temperature must be positive, got rho={rho_mix!r}, T={T!r}")
    e_react = cvt_energy(params, T)
    e_inert = inert.Cv_in * T + 0.5 * inert.c_in * T * T + inert.q_in
    e_mix = Y * e_react + (1.0 - Y) * e_inert
    R_mix = Y * params.R + (1.0 - Y) * inert.R_in
    P = virial.virial_pressure_rt(R_mix, params.a, rho_mix, T)
    return InertMixtureState(e_mix=e_mix, P=P, R_mix=R_mix)


def cvt_effective_energy(params: GasParams, T_flame):
    """Effective energy delivered to the gas phase, e(T_flame) - q.

    Equals Cv0 T + (c/2) T^2; for the constant-Cv models (c = 0) this is
    Cv T, the effective energy of their closed-bomb calibration.
    """
    if T_flame < 0.0:
        raise DomainError(f"flame temperature must be non-negative, got {T_flame!r}")
    Cv0, c = params.cv_law
    return Cv0 * T_flame + 0.5 * c * T_flame * T_flame
