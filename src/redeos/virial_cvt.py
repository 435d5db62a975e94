"""The caloric law Cv(T) = Cv0 + c T of every model, and the Cv(T) virial EOS.

e(T) = Cv0 T + (c/2) T^2 + q, with ``(Cv0, c)`` from ``GasParams.cv_law``;
NA and VO1 records are the c = 0 case with Cv0 = Cv, so the caloric
functions here accept any model.  VO1_CVT shares the thermal law, and its
kernels in :mod:`redeos.virial`, with the constant-Cv variant, so
thermodynamic compatibility carries over unchanged.  Its energy depends on
T only, so the virial closed forms hold with Cv replaced by :func:`cvt_cv`,
except the entropy, which this variant lacks.  A negative slope c is
allowed; where it drives Cv(T) to zero or below, :func:`cvt_cv` refuses T.

This module imports no thermal kernel.  P(rho, e) is a thermal law at
:func:`cvt_temperature`: ``vo1_pressure(params, rho, cvt_temperature(params, e))``.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericalError, ValidationError
from .types import GasParams


def cvt_cv(params: GasParams, T):
    """Specific heat at constant volume, Cv0 + c T; exactly Cv0 at c = 0, even for T = inf."""
    Cv0, c = params.cv_law
    if not c:
        return Cv0
    if not (cv := Cv0 + c * T) > 0.0:  # a negative slope c reaches Cv(T) <= 0 at high T
        raise DomainError(f"specific heat Cv0 + c T = {cv!r} J/(kg K) is not positive at T={T!r}")
    return cv


def cvt_energy(params: GasParams, T):
    """Specific internal energy Cv0 T + (c/2) T^2 + q."""
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got {T!r}")
    return cvt_effective_energy(params, T) + params.q


def cvt_temperature(params: GasParams, e):
    """Temperature from internal energy: positive root of the caloric law.

    At c = 0 the root is the one division (e-q)/Cv0, exact at any
    magnitude.  Otherwise the textbook root (-Cv0 + sqrt(Cv0^2 + 2c(e-q))) / c
    divides a cancellation-prone difference by c; the rationalized equivalent

        T = 2 (e-q) / (Cv0 + sqrt(Cv0^2 + 2c(e-q)))

    is free of that cancellation for either sign of the slope.
    """
    if not params.q < e < math.inf:
        raise DomainError(f"internal energy {e!r} J/kg is not finite" if e == math.inf else
                          f"internal energy {e!r} J/kg does not exceed the reference q = {params.q!r}")
    Cv0, c = params.cv_law
    E = e - params.q
    if c == 0.0:
        return E / Cv0
    disc = Cv0 * Cv0 + 2.0 * c * E
    if 0.0 <= disc < math.inf:
        try:
            return E / (0.5 * (Cv0 + math.sqrt(disc)))  # 2 E would overflow above ~9e307 J/kg
        except ZeroDivisionError:  # a subnormal Cv0, with 2 c (e-q) underflowing too, halves to 0
            raise NumericalError(f"the caloric law's temperature overflows at e = {e!r} J/kg") from None
    # disc < 0, or Cv0^2 or 2c(e-q) overflows: half the root, sqrt(Cv0^2/4 + c E/2), from Cv0/2 and sqrt(|c| E/2)
    half, k = 0.5 * Cv0, math.sqrt(0.5 * abs(c)) * math.sqrt(E)
    if c > 0.0:
        return E / (half + math.hypot(half, k))
    if not disc < 0.0 and k <= half:  # c < 0: Cv0^2 overflows, alone or with 2c(e-q) into inf - inf
        return E / (half + math.sqrt(half - k) * math.sqrt(half + k))
    raise DomainError(f"caloric law has no real temperature for e = {e!r} J/kg")


def _flame_energy(params: GasParams):
    """Closed-bomb flame energy, J/kg: the record's effective energy above its reference q."""
    if params.e_s_eff is None:
        raise ValidationError(f"record {params.name!r} carries no effective energy")
    return params.q + params.e_s_eff


def _flame_temperature(params: GasParams):
    """Closed-bomb flame temperature: the caloric law at the record's flame energy."""
    return cvt_temperature(params, _flame_energy(params))


def cvt_effective_energy(params: GasParams, T_flame):
    """Effective energy delivered to the gas phase, e(T_flame) - q.

    Equals Cv0 T + (c/2) T^2; for the constant-Cv models (c = 0) this is
    Cv T, the effective energy of their closed-bomb calibration.
    """
    if T_flame < 0.0:
        raise DomainError(f"flame temperature must be non-negative, got {T_flame!r}")
    Cv0, c = params.cv_law
    return Cv0 * T_flame + 0.5 * c * T_flame * T_flame
