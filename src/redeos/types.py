"""Domain types shared by every module.

All values are immutable once constructed, so they can be shared freely between threads.  Records with
invariants validate them on construction, so anything constructed satisfies them; plain result records are
``NamedTuple``s.  The validated records are plain frozen classes, since ``dataclasses`` took a third of the
import time; ``ThermoState``, the one dataclass, lives in :mod:`redeos.thermo_state`.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .constants import T_REF, P_REF
from .errors import ModelMismatchError, ValidationError

#: Tolerance on the mass-fraction closure sum of a mixture.
MASS_FRACTION_TOL = 1e-12
_set = object.__setattr__


class Model(str, Enum):
    """Closed set of gas-product models."""

    NA = "NA"            # Noble-Abel: P = R T / (v - b), constant Cv
    VO1 = "VO1"          # first-order virial: P = rho R T (1 + a rho), constant Cv
    VO1_CVT = "VO1_CVT"  # first-order virial with Cv(T) = Cv0 + c T

    def __str__(self):  # "NA" rather than "Model.NA" in messages and files
        return self.value

    @classmethod
    def _missing_(cls, value):  # reached only by a value that names no model
        raise ValidationError(f"unknown model {value!r}; expected NA, VO1 or VO1_CVT")


def _is_finite(value):
    """``math.isfinite``, and False where it refuses the value (None, a string, an int beyond any float)."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _positive(name, value):
    if not (_is_finite(value) and value > 0.0):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")


def _finite(name, value):
    if not _is_finite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


def _covolume(name, value):
    if not (_is_finite(value) and value >= 0.0):
        raise ValidationError(f"covolume {name} must be >= 0, got {value!r}")


#: Model-specific GasParams fields, in database order; the others must be None.
MODEL_FIELDS = {
    Model.NA: ("b", "Cv"),
    Model.VO1: ("a", "Cv"),
    Model.VO1_CVT: ("a", "Cv0", "c"),
}

#: The check of each model-specific field, in the order fields are checked.
_FIELD_CHECKS = (("Cv", _positive), ("Cv0", _positive), ("b", _covolume), ("a", _finite), ("c", _finite))


class _Record:
    """A frozen dataclass's equality, hash, repr and refused assignment, over ``__match_args__``."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, n) for n in self.__match_args__] == [getattr(other, n) for n in other.__match_args__]

    def __hash__(self):
        return hash(tuple([getattr(self, n) for n in self.__match_args__]))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__match_args__)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _store(self, *values):  # the fields, in __match_args__ order
        for name, value in zip(self.__match_args__, values):
            _set(self, name, value)  # not self.__dict__, which would slow every later field read


class GasParams(_Record):
    """Calibrated constants for the gas products of one reactive material.

    Which fields are meaningful depends on ``model``:

    ==========  =========================================================
    NA          ``R`` J/(kg K), covolume ``b`` m3/kg, ``Cv`` J/(kg K)
    VO1         ``R``, virial coefficient ``a`` m3/kg, ``Cv``
    VO1_CVT     ``R``, ``a``, ``Cv0`` J/(kg K) and slope ``c`` J/(kg K^2)
    ==========  =========================================================

    ``q`` is the caloric reference constant in J/kg (zero for materials
    calibrated from closed-bomb data, where the reference is folded into
    the effective energy).  ``e_s_eff`` (J/kg), ``T_flame`` (K),
    ``gamma_cal`` and ``rho_range`` (kg/m3) record the calibration and are
    optional for records built by hand.

    A negative ``a`` is representable so that non-convex states can be
    studied; calibration rejects it, and database loading accepts it so
    that ``eos audit`` can probe such a record.

    ``cv_law`` (not a field) is ``(Cv0, c)`` of the caloric law Cv(T) =
    Cv0 + c T that every model shares; NA and VO1 records supply ``(Cv, 0)``.
    """

    __match_args__ = ("name", "model", "R", "Cv", "b", "a", "Cv0", "c", "q", "e_s_eff", "T_flame", "gamma_cal",
                      "rho_range")

    def __init__(self, name, model, R, Cv=None, b=None, a=None, Cv0=None, c=None, q=0.0, e_s_eff=None,
                 T_flame=None, gamma_cal=None, rho_range=None):
        if model.__class__ is not Model:  # Model(model) costs a Python-level call even for a member
            model = Model(model)
        _positive("R", R)
        _finite("q", q)
        for (key, check), value in zip(_FIELD_CHECKS, (Cv, Cv0, b, a, c)):
            if key in MODEL_FIELDS[model]:
                check(key, value)
            elif value is not None:
                raise ValidationError(f"field {key!r} does not apply to model {model}")
        for key, value in (("e_s_eff", e_s_eff), ("T_flame", T_flame)):
            if value is not None:
                _positive(key, value)
        if gamma_cal is not None and not (_is_finite(gamma_cal) and gamma_cal > 1.0):
            raise ValidationError(f"gamma_cal must be finite and exceed 1, got {gamma_cal!r}")
        if rho_range is not None:
            try:
                lo, hi = rho_range
            except (TypeError, ValueError):
                raise ValidationError(f"rho_range must be a pair (lo, hi), got {rho_range!r}") from None
            _positive("rho_range[0]", lo)
            _positive("rho_range[1]", hi)
            if not hi > lo:
                raise ValidationError(f"rho_range must satisfy lo < hi, got {rho_range!r}")
            rho_range = (float(lo), float(hi))
        self._store(name, model, R, Cv, b, a, Cv0, c, q, e_s_eff, T_flame, gamma_cal, rho_range)
        _set(self, "cv_law", (Cv, 0.0) if c is None else (Cv0, c))  # a cached property would slow every load

    @classmethod
    def noble_abel(cls, name, R, b, Cv, **extra):
        return cls(name=name, model=Model.NA, R=R, b=b, Cv=Cv, **extra)

    @classmethod
    def virial(cls, name, R, a, Cv, **extra):
        return cls(name=name, model=Model.VO1, R=R, a=a, Cv=Cv, **extra)

    @classmethod
    def virial_cvt(cls, name, R, a, Cv0, c, **extra):
        return cls(name=name, model=Model.VO1_CVT, R=R, a=a, Cv0=Cv0, c=c, **extra)


def require_model(params: GasParams, *models: Model):
    """Raise :class:`ModelMismatchError` unless ``params`` carries one of ``models``."""
    if params.model not in models:
        raise ModelMismatchError(
            f"operation requires a {' or '.join(map(str, models))} record, got {params.model} ({params.name!r})")
    return params


class InertGasParams(_Record):
    """Noble inert diluent used in temperature-varying closed-bomb runs.

    ``W_in`` is in g/mol to match the usual tabulations.  Noble gases have
    no internal structure, so their specific heat ``Cv_in`` is constant and
    their reference energy is zero.
    """

    __match_args__ = ("name", "Cv_in", "W_in")

    def __init__(self, name, Cv_in, W_in):  # Cv_in in J/(kg K), W_in in g/mol
        _positive("Cv_in", Cv_in)
        _positive("W_in", W_in)
        self._store(name, Cv_in, W_in)


class ClosedBombPoint(_Record):
    """One closed-bomb record: loading density and peak pressure."""

    __match_args__ = ("rho_load", "P_max")

    def __init__(self, rho_load, P_max):  # rho_load in kg/m3, P_max in Pa
        _positive("rho_load", rho_load)
        _positive("P_max", P_max)
        if 1.0 / rho_load == math.inf:  # a subnormal density, whose v would overflow
            raise ValidationError(f"loading density {rho_load!r} kg/m3 has no finite specific volume")
        self._store(rho_load, P_max)

    @property
    def v(self):
        """Specific volume of the burnt gas at this loading, m3/kg."""
        return 1.0 / self.rho_load


class MixtureSpec(_Record):
    """Ordered component list with mass fractions summing to one.

    ``oxygen_balance_declared_uniform`` is a user declaration that every
    component shares the same oxygen-balance sign.  The mixing rules
    assume no post-combustion between the product gases, which holds only
    under that condition; elemental composition is not stored here, so
    the library cannot check it and the CLI refuses to run mixture
    sweeps without the declaration.

    ``mixed`` (not a field) is the mixture as one record of the components'
    shared model: ``R``, the model's fields and ``q`` are the mass-weighted
    sums, and so is ``e_s_eff`` when every component carries one.  It is
    built on first use; components of different models have no such
    record and raise :class:`ModelMismatchError`.
    """

    __match_args__ = ("components", "oxygen_balance_declared_uniform")

    def __init__(self, components, oxygen_balance_declared_uniform=False):
        comps = []
        part = components
        try:
            for part in components:
                gas, y = part
                if gas.__class__ is not GasParams:
                    raise ValidationError(f"mixture component {part!r} does not hold a GasParams record")
                if not (_is_finite(y) and 0.0 <= y <= 1.0):
                    raise ValidationError(f"mass fraction of {gas.name!r} out of [0,1]: {y!r}")
                comps.append((gas, float(y)))
        except (TypeError, ValueError):
            raise ValidationError(f"mixture components are (GasParams, mass fraction) pairs, got {part!r}") from None
        if not comps:
            raise ValidationError("mixture needs at least one component")
        total = math.fsum(y for _, y in comps)
        if abs(total - 1.0) > MASS_FRACTION_TOL:
            raise ValidationError(f"mass fractions must sum to 1 within {MASS_FRACTION_TOL}, got {total!r}")
        self._store(tuple(comps), oxygen_balance_declared_uniform)

    @cached_property
    def mixed(self) -> GasParams:
        pairs = self.components
        model, *others = {gas.model for gas, _ in pairs}
        if others:
            found = ", ".join(sorted(map(str, [model, *others])))
            raise ModelMismatchError(f"mixture components use different models: {found}")
        keys = ("R", *MODEL_FIELDS[model], "q")
        if all(gas.e_s_eff is not None for gas, _ in pairs):
            keys += ("e_s_eff",)
        fields = {key: math.fsum(y * getattr(gas, key) for gas, y in pairs) for key in keys}
        return GasParams(name="+".join(gas.name for gas, _ in pairs), model=model, **fields)

    @cached_property
    def virial(self) -> tuple[float, float, float, tuple[tuple[float, float, float, float], ...]]:
        """``(min R_k, max R_k, N max a_k, terms)``: the bracket constants of the virial
        mixture's pressure solve and the ``(R_k, a_k, Y_k, Cv_k)`` of each component, all
        that solve and its sound speed read.  It needs VO1 components with a > 0."""
        require_model(self.mixed, Model.VO1)
        pairs = self.components
        for gas, _ in pairs:
            if not gas.a > 0.0:
                raise ValidationError(
                    f"mixture pressure solve requires a > 0 for every component; {gas.name!r} has a = {gas.a!r}")
        Rs = [gas.R for gas, _ in pairs]
        terms = tuple((gas.R, gas.a, y, gas.Cv) for gas, y in pairs)
        return min(Rs), max(Rs), max(gas.a for gas, _ in pairs) * len(pairs), terms


class InertRunRecord(_Record):
    """One inert-diluted closed-bomb run used for Cv(T) fitting."""

    __match_args__ = ("Y", "T_flame")

    def __init__(self, Y, T_flame):  # Y the reactant mass fraction, T_flame in K
        if not (_is_finite(Y) and 0.0 < Y <= 1.0):
            raise ValidationError(f"reactant mass fraction must lie in (0,1], got {Y!r}")
        _positive("T_flame", T_flame)
        self._store(Y, T_flame)


class EntropyReference(NamedTuple):
    """Reference state (P0, T0, s0) anchoring the entropy functions."""

    P0: float = P_REF
    T0: float = T_REF
    s0: float = 0.0


#: Default anchor: s = 0 at 1 atm and 298.15 K, per material.
DEFAULT_ENTROPY_REF = EntropyReference()


class ConvexityReport(NamedTuple):
    """Verdict plus the four signed criterion values (a, b, c, d).

    Convexity requires (a) > 0, (b) > 0, (c) < 0 and (d) > 0.
    """

    convex: bool
    criteria: tuple[float, float, float, float]


def convexity_signs_ok(criteria) -> bool:
    """True when the four criterion values carry the required signs."""
    a, b, c, d = criteria
    return a > 0.0 and b > 0.0 and c < 0.0 and d > 0.0


def _div(num, den):
    # criteria values on the analytic continuation may hit a pole
    if den != 0.0:
        return num / den
    if num == 0.0:
        return math.nan
    return math.copysign(math.inf, num)


class FrozennessReport(NamedTuple):
    """Outcome of the molar-mass composition-frozenness screen."""

    frozen: bool
    max_rel_spread: float
