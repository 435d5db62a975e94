"""Full consistent-state assembly for any of the three gas models.

Builders accept the three natural input pairs, (rho, T), (P, T) and
(rho, e), and return a :class:`~redeos.thermo_state.ThermoState`.  A flow solver
that needs only P, T and the sound speed c of a cell calls
:func:`closure_from_rho_e` (or :func:`closure_from_rho_T`) instead: the
same values and refusals, without e, h, s, Cp and gamma.  A Noble-Abel
mixture is one Noble-Abel record, ``MixtureSpec.mixed``, so these closures
serve it too.  ``LAWS`` holds what differs between models: the thermal law
and the closed forms of c, s and Cp.  The rest holds for any model and is
written once here: e and T from the shared caloric law
(:mod:`redeos.virial_cvt`), h = e + P/rho and gamma = Cp/Cv(T).  The two
virial models share one entry, which reads Cv(T); only the entropy needs a
constant Cv, so a Cv(T) state has none.  The entries call the kernels
through their modules, so that wrappers installed on module attributes see
those calls.

:func:`closure_for` binds one record's constants into a function of
(rho, e) for a solver's cell loop or a command's grid.  It writes three
short formulas per model a second time, T, P and c in their kernels' order
of operations, and hands every input it does not take to
:func:`closure_from_rho_e`; a seeded differential test in
``tests/test_state.py`` binds the two writings, values and refusals.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import DomainError, NumericalError, ValidationError
from .types import GasParams, Model, _div
from . import noble_abel, virial, virial_cvt


class Laws(NamedTuple):
    """One model's thermal law, closed forms of c, s and Cp, and convexity criteria."""

    pressure: Callable      # P(params, rho, T)
    density: Callable       # rho(params, P, T)
    sound_speed: Callable   # c(params, rho, T, P)
    derived: Callable       # (s, Cp)(params, rho, T, P); s is None without a closed form
    convexity: Callable     # ConvexityReport(params, rho, P, T)


def ThermoState(*fields):  # stands in until the first full state loads the class and binds it here
    global ThermoState
    from .thermo_state import ThermoState
    return ThermoState(*fields)


class Closure(NamedTuple):
    """What a flow solver asks of a cell: pressure, temperature and frozen sound speed."""

    P: float               # Pa
    T: float               # K
    c: float               # m/s


def _na_pressure(params, rho, T):
    """The Noble-Abel law entered by density; :class:`DomainError` naming rho
    unless 0 < rho < 1/b.  A bad T is left to the law, which names it first."""
    if not rho > 0.0:
        raise DomainError(f"density must be positive, got {rho!r}")
    v = 1.0 / rho
    if T > 0.0 and not v > params.b:
        raise DomainError(
            f"density {rho!r} kg/m3 is not below the packing limit 1/b = {_div(1.0, params.b)!r} kg/m3")
    return noble_abel.na_pressure_vt(params, v, T)


def _na_density(params, P, T):
    v = noble_abel.na_volume(params, P, T)
    rho = 1.0 / v if v else math.inf  # R T / P underflows to v = 0 at b = 0
    if not (rho > 0.0 and 1.0 / rho > params.b):  # state_from_rho_T reads v back as 1/rho
        raise NumericalError(f"R T / P {'overflows' if v == math.inf else 'underflows against the covolume'} "
                             f"at P={P!r}, T={T!r}")
    return rho


def _virial_derived(params, rho, T, P):
    # the entropy needs a constant Cv, so records with a slope c get none
    s = virial.vo1_entropy(params, P, T) if params.c is None and params.a > 0.0 else None
    return s, virial.vo1_cp(params, rho, T)


_VIRIAL_LAWS = Laws(
    pressure=lambda params, rho, T: virial.vo1_pressure(params, rho, T),
    density=lambda params, P, T: virial.vo1_density(params, P, T),
    sound_speed=lambda params, rho, T, P: virial.vo1_sound_speed(params, P, rho, T),
    derived=_virial_derived,
    convexity=lambda params, rho, P, T: virial.vo1_convexity(params, rho, P, T))

LAWS = {
    Model.NA: Laws(
        pressure=_na_pressure,
        density=_na_density,
        sound_speed=lambda params, rho, T, P: noble_abel.na_sound_speed(params, P, rho),
        derived=lambda params, rho, T, P: (noble_abel.na_entropy(params, P, T), noble_abel.na_cp(params)),
        convexity=lambda params, rho, P, T: noble_abel.na_convexity(params, 1.0 / rho, P, T)),
    Model.VO1: _VIRIAL_LAWS,
    Model.VO1_CVT: _VIRIAL_LAWS,
}


def closure_from_rho_T(params: GasParams, rho, T) -> Closure:
    """P, T and c from density and temperature, bit for bit as :func:`state_from_rho_T` gives them.

    Raises what the state builder raises first about these three: a
    :class:`DomainError` outside the model's domain, and a
    :class:`NumericalError` where 1/rho overflows or P or c is not positive
    and finite.  It skips e, h, s, Cp and gamma, and so their refusals.
    """
    laws = LAWS[params.model]
    P = laws.pressure(params, rho, T)
    if 1.0 / rho == math.inf:
        raise NumericalError(f"the specific volume 1/rho overflows at rho={rho!r}")
    c = laws.sound_speed(params, rho, T, P)
    if not (0.0 < P < math.inf and 0.0 < c < math.inf):
        raise NumericalError(f"the state at rho={rho!r}, T={T!r} is degenerate: P={P!r}, c={c!r}")
    return tuple.__new__(Closure, (P, T, c))  # skips NamedTuple's Python __new__


def closure_from_rho_e(params: GasParams, rho, e) -> Closure:
    """P, T and c from density and specific internal energy: a flow solver's cell update."""
    return closure_from_rho_T(params, rho, virial_cvt.cvt_temperature(params, e))


def closure_for(params: GasParams) -> Callable:
    """``closure_from_rho_e`` of one record as a function of (rho, e), its constants bound as locals.

    The happy path returns the same P, T and c; every input it does not take
    (rho not in (0, inf) or 1/rho overflowing, e not in (q, inf), the caloric
    root's discriminant outside [0, inf), Cv(T) not positive, v <= b, P or c
    not positive and finite) goes to :func:`closure_from_rho_e`, which
    refuses it or returns.
    """
    R, q, (Cv0, slope) = params.R, params.q, params.cv_law
    inf, sqrt, new = math.inf, math.sqrt, tuple.__new__  # new(Closure, ...) skips NamedTuple's Python __new__
    if params.model is Model.NA:
        b, gamma = params.b, 1.0 + R / Cv0  # na_gamma's float: Cv0 is Cv

        def closure(rho, e):
            if q < e < inf and rho > 0.0:
                T = (e - q) / Cv0
                v = 1.0 / rho
                cover = 1.0 - rho * b
                if b < v < inf and cover > 0.0:  # v > b gave cover > 0 on every input tried; 0 would divide
                    P = R * T / (v - b)  # 0 where T is, so a positive P has a positive T
                    c2 = gamma * (P / rho) / cover
                    if 0.0 < P < inf and 0.0 < c2 < inf:
                        return new(Closure, (P, T, sqrt(c2)))
            return closure_from_rho_e(params, rho, e)
        return closure

    a, Cv0_sq, two_slope = params.a, Cv0 * Cv0, 2.0 * slope

    def closure(rho, e):
        if q < e < inf and rho > 0.0 and 1.0 / rho < inf:
            E = e - q
            if not slope:
                T = E / Cv0
            else:  # cvt_temperature's rationalized root, where it takes no other branch
                disc = Cv0_sq + two_slope * E
                if not (0.0 <= disc < inf and (half := 0.5 * (Cv0 + sqrt(disc)))):
                    return closure_from_rho_e(params, rho, e)
                T = E / half
            cv = Cv0 + slope * T  # exactly Cv0 at slope 0 for a finite T
            ar = a * rho
            P = rho * R * T * (1.0 + ar)  # 0 or nan where T or 1 + a rho is 0
            if cv > 0.0 and 0.0 < P < inf:
                c2 = (P / rho) * ((R / cv) * (1.0 + ar) + (1.0 + 2.0 * ar) / (1.0 + ar))
                if 0.0 < c2 < inf:
                    return new(Closure, (P, T, sqrt(c2)))
        return closure_from_rho_e(params, rho, e)
    return closure


def state_from_rho_T(params: GasParams, rho, T) -> ThermoState:
    """Consistent state from density and temperature; :class:`NumericalError` if it
    degenerates in floating point (1/rho, P, c, h, s or Cp overflows, gamma rounds to 1).

    P and c come first, and an overflow in s or Cp is a :class:`NumericalError`,
    so a state raises what its :func:`closure_from_rho_T` raises.
    """
    laws = LAWS[params.model]
    P = laws.pressure(params, rho, T)
    v = 1.0 / rho
    if v == math.inf:
        raise NumericalError(f"the specific volume 1/rho overflows at rho={rho!r}")
    c = laws.sound_speed(params, rho, T, P)
    e = virial_cvt.cvt_energy(params, T)
    try:
        s, Cp = laws.derived(params, rho, T, P)
        return ThermoState(P, T, rho, v, e, e + P / rho, s, c, Cp, Cp / virial_cvt.cvt_cv(params, T))
    except (ValidationError, NumericalError, ArithmeticError) as exc:
        raise NumericalError(f"the state at rho={rho!r}, T={T!r} is degenerate: {exc}") from None


def state_from_P_T(params: GasParams, P, T) -> ThermoState:
    """Consistent state from pressure and temperature."""
    rho = LAWS[params.model].density(params, P, T)
    if not 0.0 < rho < math.inf:
        raise NumericalError(f"the density at P={P!r}, T={T!r} under- or overflows, got {rho!r}")
    return state_from_rho_T(params, rho, T)


def state_from_rho_e(params: GasParams, rho, e) -> ThermoState:
    """Consistent state from density and specific internal energy."""
    return state_from_rho_T(params, rho, virial_cvt.cvt_temperature(params, e))
