"""Noble-Abel equation of state for combustion product gases.

Thermal law P = R T / (v - b) with constant covolume b, caloric law
e = Cv T + q with constant specific heat (the c = 0 case of the shared
caloric law in :mod:`redeos.virial_cvt`).  Each law is written once, so
P(v, e) is ``na_pressure_vt`` at ``cvt_temperature(params, e)``.  Pressure
diverges as the specific volume approaches the covolume; states with
v <= b are outside the physical domain and raise
:class:`~redeos.errors.DomainError`.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericalError
from .types import (
    ConvexityReport,
    DEFAULT_ENTROPY_REF,
    EntropyReference,
    GasParams,
    Model,
    _div,
    require_model,
)


def na_pressure_vt(params: GasParams, v, T):
    """Pressure from specific volume and temperature: R T / (v - b)."""
    if params.b is None:  # only NA records carry b; one identity test keeps this path cheap
        require_model(params, Model.NA)
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got {T!r}")
    if not v > params.b:
        raise DomainError(f"specific volume {v!r} m3/kg does not exceed the covolume {params.b!r} m3/kg")
    return params.R * T / (v - params.b)


def na_volume(params: GasParams, P, T):
    """Specific volume from pressure and temperature, R T / P + b."""
    if params.b is None:
        require_model(params, Model.NA)
    if not (P > 0.0 and T > 0.0):
        raise DomainError(f"pressure and temperature must be positive, got P={P!r}, T={T!r}")
    return params.R * T / P + params.b


def na_cp(params: GasParams):
    """Constant-pressure specific heat, R + Cv (Mayer relation)."""
    if params.b is None:
        require_model(params, Model.NA)
    return params.R + params.Cv


def na_gamma(params: GasParams):
    """Heat-capacity ratio, 1 + R / Cv; constant for this model."""
    if params.b is None:
        require_model(params, Model.NA)
    return 1.0 + params.R / params.Cv


def na_sound_speed(params: GasParams, P, rho):
    """Frozen sound speed; the ideal-gas value stiffened by 1 / (1 - rho b)."""
    if params.b is None:
        require_model(params, Model.NA)
    if not (P > 0.0 and rho > 0.0):
        raise DomainError(f"pressure and density must be positive, got P={P!r}, rho={rho!r}")
    cover = 1.0 - rho * params.b
    if not cover > 0.0:
        raise DomainError(f"density {rho!r} kg/m3 reaches the covolume packing limit")
    return math.sqrt(na_gamma(params) * (P / rho) / cover)


def na_entropy(params: GasParams, P, T, ref: EntropyReference = DEFAULT_ENTROPY_REF):
    """Specific entropy at (P, T).

    Integrated form anchored at the reference so the configured s0 is
    returned exactly there:

        s = s0 - R ln(P/P0) + (Cv + R) ln(T/T0)
    """
    if params.b is None:
        require_model(params, Model.NA)
    if not (P > 0.0 and T > 0.0):
        raise DomainError(f"pressure and temperature must be positive, got P={P!r}, T={T!r}")
    P0, T0, s0 = ref
    try:
        return s0 - params.R * math.log(P / P0) + (params.Cv + params.R) * math.log(T / T0)
    except ValueError:  # P/P0 or T/T0 underflows to zero
        raise NumericalError(f"the entropy is not finite at P={P!r}, T={T!r}") from None


def na_entropy_vt(params: GasParams, v, T, ref: EntropyReference = DEFAULT_ENTROPY_REF):
    """Specific entropy as a function of (v, T), through the thermal law."""
    return na_entropy(params, na_pressure_vt(params, v, T), T, ref)


def na_convexity(params: GasParams, v, P, T) -> ConvexityReport:
    """Convexity verdict plus the four criterion values at (v, P, T).

    The verdict depends only on v > b.  The criterion values use the
    caller-supplied (P, T) so states below the covolume can be probed on
    the analytic continuation, where criterion (b) changes sign.
    """
    if params.b is None:
        require_model(params, Model.NA)
    R, b, Cv = params.R, params.b, params.Cv
    criteria = (
        _div(na_gamma(params) * P, v - b),     # c^2 / v^2
        _div(P * (v - b), R * Cv),  # R Cv may underflow to zero, as in vo1_convexity
        -P / Cv,
        _div(P * P, R * Cv),
    )
    return ConvexityReport(convex=v > b, criteria=criteria)
