"""First-order virial equation of state.

Thermal law P = rho R T (1 + a rho), compressibility factor Z = 1 + a rho.
Every kernel serves VO1 and VO1_CVT records alike, reading Cv(T) through
``cvt_cv`` (Cv exactly for VO1), except the entropy, which assumes a
constant Cv and takes VO1 only.  The virial coefficient a is positive for
calibrated materials, which keeps the model convex at every density;
negative values are representable for convexity studies only.
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
from .virial_cvt import cvt_cv


def vo1_pressure(params: GasParams, rho, T):
    """Pressure from density and temperature: rho R T (1 + a rho); VO1 or VO1_CVT."""
    if params.a is None:  # only NA records lack a; one identity test keeps this path cheap
        require_model(params, Model.VO1, Model.VO1_CVT)
    if not (rho > 0.0 and T > 0.0):
        raise DomainError(f"density and temperature must be positive, got rho={rho!r}, T={T!r}")
    return rho * params.R * T * (1.0 + params.a * rho)


def virial_density_pt(R, a, P, T):
    """Positive density root of the quadratic thermal law at (P, T).

    The textbook root (-1 + sqrt(1 + 4aP/RT)) / (2a) cancels badly for
    small 4aP/RT; the rationalized equivalent below is free of subtraction
    for any a >= 0 and degenerates exactly to P/(RT) at a = 0.
    """
    try:
        x = 4.0 * a * P / (R * T)
    except ZeroDivisionError:  # R T underflows to zero
        raise NumericalError(f"the density root divides by zero at P={P!r}, T={T!r}") from None
    if 1.0 + x < 0.0:
        raise NumericalError(f"density root discriminant is negative (4aP/RT = {x!r})")
    return 2.0 * P / (R * T * (1.0 + math.sqrt(1.0 + x)))


def vo1_density(params: GasParams, P, T):
    """Density from pressure and temperature (inverse of the thermal law); VO1 or VO1_CVT."""
    if params.a is None:
        require_model(params, Model.VO1, Model.VO1_CVT)
    if not (P > 0.0 and T > 0.0):
        raise DomainError(f"pressure and temperature must be positive, got P={P!r}, T={T!r}")
    return virial_density_pt(params.R, params.a, P, T)


def vo1_cp(params: GasParams, rho, T):
    """Constant-pressure specific heat, Cv(T) + R (1 + a rho)^2 / (1 + 2 a rho).

    State dependent: the Mayer relation picks up the compressibility
    correction, so Cp varies with density unlike the Noble-Abel case.
    """
    if params.a is None:
        require_model(params, Model.VO1, Model.VO1_CVT)
    if not (rho > 0.0 and T > 0.0):
        raise DomainError(f"density and temperature must be positive, got rho={rho!r}, T={T!r}")
    ar = params.a * rho
    try:
        return cvt_cv(params, T) + params.R * (1.0 + ar) ** 2 / (1.0 + 2.0 * ar)
    except ZeroDivisionError:  # only a negative a reaches the pole
        raise DomainError(f"Cp has a pole at 1 + 2 a rho = 0: rho={rho!r} (a rho = {ar!r})") from None
    except OverflowError:  # (1 + a rho) ** 2 passes the largest float
        raise NumericalError(f"Cp overflows at rho={rho!r}, T={T!r}") from None


def vo1_sound_speed(params: GasParams, P, rho, T):
    """Frozen sound speed at (P, rho, T)."""
    if params.a is None:
        require_model(params, Model.VO1, Model.VO1_CVT)
    if not (P > 0.0 and rho > 0.0):
        raise DomainError(f"pressure and density must be positive, got P={P!r}, rho={rho!r}")
    ar = params.a * rho
    try:
        c2 = (P / rho) * ((params.R / cvt_cv(params, T)) * (1.0 + ar) + (1.0 + 2.0 * ar) / (1.0 + ar))
    except ZeroDivisionError:  # only a negative a reaches the pole
        raise DomainError(f"sound speed has a pole at 1 + a rho = 0: rho={rho!r} (a rho = {ar!r})") from None
    if not c2 > 0.0:
        raise DomainError(f"squared sound speed is not positive at rho={rho!r} (a rho = {ar!r})")
    return math.sqrt(c2)


def vo1_entropy(params: GasParams, P, T, ref: EntropyReference = DEFAULT_ENTROPY_REF):
    """Specific entropy at (P, T).

    Written as the exact difference between the state and the reference,

        s = s0 + Cv ln(T/T0) - (R/2) [ (u - u0) + 2 ln( (u-1)/(u0-1) ) ]

    with u = sqrt(1 + 4 a P / (R T)).  Both bracketed terms are
    rearranged so no subtractive cancellation occurs for small a, and
    s(P0, T0) = s0 holds exactly.  The closed form is singular at a = 0;
    for an ideal gas use the Noble-Abel kernel with b = 0.
    """
    if params.a is None or params.c is not None:  # only VO1 has a without c; Model.VO1 is a slow Enum read
        require_model(params, Model.VO1)
    if params.a <= 0.0:
        raise DomainError(
            "the virial entropy form requires a > 0; use the Noble-Abel kernel with b = 0 instead")
    if not (P > 0.0 and T > 0.0):
        raise DomainError(f"pressure and temperature must be positive, got P={P!r}, T={T!r}")
    P0, T0, s0 = ref
    R, Cv, a = params.R, params.Cv, params.a
    try:
        x = 4.0 * a * P / (R * T)
        x0 = 4.0 * a * P0 / (R * T0)
        u = math.sqrt(1.0 + x)
        u0 = math.sqrt(1.0 + x0)
        du = (x - x0) / (u + u0)
        # (u - 1)/(u0 - 1) = (x/x0) (1 + u0)/(1 + u), free of cancellation
        log_ratio = math.log((P / P0) * (T0 / T) * (1.0 + u0) / (1.0 + u))  # P T0 overflows above ~6e305 Pa
        return s0 + Cv * math.log(T / T0) - 0.5 * R * (du + 2.0 * log_ratio)
    except (ZeroDivisionError, ValueError):  # R T, or a ratio to P0 or T0, or their product, underflows to zero
        raise NumericalError(f"the entropy is not finite at P={P!r}, T={T!r}") from None


def vo1_entropy_dP(params: GasParams, P, T):
    """Closed-form isothermal pressure derivative of the entropy.

    Equals -R (1 + u)^2 / (4 P u) with u = sqrt(1 + 4 a P / (R T)); the
    rationalized equivalent of differentiating the entropy expression,
    stable for small a and reducing to -R/P in the ideal-gas limit.
    """
    if params.a is None or params.c is not None:  # not VO1, tested as in vo1_entropy
        require_model(params, Model.VO1)
    if not (P > 0.0 and T > 0.0):
        raise DomainError(f"pressure and temperature must be positive, got P={P!r}, T={T!r}")
    try:
        u = math.sqrt(1.0 + 4.0 * params.a * P / (params.R * T))
        return -params.R * (1.0 + u) ** 2 / (4.0 * P * u)
    except (ZeroDivisionError, ValueError):  # R T underflows to zero, or a < 0 takes 1 + 4aP/RT below it
        raise NumericalError(f"the entropy derivative is not finite at P={P!r}, T={T!r}") from None


def vo1_convexity(params: GasParams, rho, P, T) -> ConvexityReport:
    """Convexity verdict plus the four criterion values at (rho, P, T).

    Convex exactly when 1 + 2 a rho > 0, the factor of criterion (d), always
    so for a >= 0.  The criterion values use the caller-supplied (P, T) so
    constructed negative-a records can be probed past the a rho = -1/2 boundary.
    """
    if params.a is None:
        require_model(params, Model.VO1, Model.VO1_CVT)
    if not rho > 0.0:
        raise DomainError(f"density must be positive, got {rho!r}")
    R, Cv, a = params.R, cvt_cv(params, T), params.a
    ar = a * rho
    criteria = (
        rho * P * ((R / Cv) * (1.0 + ar) + _div(1.0 + 2.0 * ar, 1.0 + ar)),  # rho^2 c^2
        _div(P, rho * R * Cv * (1.0 + ar)),
        -P / Cv,
        _div(P * P * (1.0 + 2.0 * ar), R * Cv * ((1.0 + ar) * (1.0 + ar))),  # a product overflows to inf
    )
    return ConvexityReport(convex=1.0 + 2.0 * ar > 0.0, criteria=criteria)
