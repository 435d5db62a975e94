"""Domain types shared by every module.

All values are immutable once constructed, so they can be shared freely
between threads.  Records with invariants validate them on construction,
so anything constructed satisfies them; plain result records are
``NamedTuple``s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .constants import T_REF, P_REF
from .errors import ModelMismatchError, ValidationError

#: Tolerance on the mass-fraction closure sum of a mixture.
MASS_FRACTION_TOL = 1e-12


class Model(str, Enum):
    """Closed set of gas-product models."""

    NA = "NA"            # Noble-Abel: P = R T / (v - b), constant Cv
    VO1 = "VO1"          # first-order virial: P = rho R T (1 + a rho), constant Cv
    VO1_CVT = "VO1_CVT"  # first-order virial with Cv(T) = Cv0 + c T

    def __str__(self):  # "NA" rather than "Model.NA" in messages and files
        return self.value


def _positive(name, value):
    if value is None or not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")


def _finite(name, value):
    if value is None or not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


def _covolume(name, value):
    if value is None or not math.isfinite(value) or value < 0.0:
        raise ValidationError(f"covolume {name} must be >= 0, got {value!r}")


#: Model-specific GasParams fields, in database order; the others must be None.
MODEL_FIELDS = {
    Model.NA: ("b", "Cv"),
    Model.VO1: ("a", "Cv"),
    Model.VO1_CVT: ("a", "Cv0", "c"),
}

#: The check of each model-specific field, in the order fields are checked.
_FIELD_CHECKS = (("Cv", _positive), ("Cv0", _positive), ("b", _covolume), ("a", _finite), ("c", _finite))


@dataclass(frozen=True)
class GasParams:
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

    name: str
    model: Model
    R: float
    Cv: float | None = None
    b: float | None = None
    a: float | None = None
    Cv0: float | None = None
    c: float | None = None
    q: float = 0.0
    e_s_eff: float | None = None
    T_flame: float | None = None
    gamma_cal: float | None = None
    rho_range: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "model", Model(self.model))
        _positive("R", self.R)
        _finite("q", self.q)
        for key, check in _FIELD_CHECKS:
            if key in MODEL_FIELDS[self.model]:
                check(key, getattr(self, key))
            elif getattr(self, key) is not None:
                raise ValidationError(f"field {key!r} does not apply to model {self.model}")
        if self.e_s_eff is not None:
            _positive("e_s_eff", self.e_s_eff)
        if self.T_flame is not None:
            _positive("T_flame", self.T_flame)
        if self.gamma_cal is not None and not self.gamma_cal > 1.0:
            raise ValidationError(f"gamma_cal must exceed 1, got {self.gamma_cal!r}")
        if self.rho_range is not None:
            lo, hi = self.rho_range
            _positive("rho_range[0]", lo)
            if not hi > lo:
                raise ValidationError(f"rho_range must satisfy lo < hi, got {self.rho_range!r}")
            object.__setattr__(self, "rho_range", (float(lo), float(hi)))
        # set here rather than in a cached property, which would slow every later attribute load
        object.__setattr__(self, "cv_law", (self.Cv, 0.0) if self.c is None else (self.Cv0, self.c))

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
        wanted = " or ".join(str(m) for m in models)
        raise ModelMismatchError(
            f"operation requires a {wanted} record, got {params.model} ({params.name!r})")
    return params


@dataclass(frozen=True)
class InertGasParams:
    """Noble inert diluent used in temperature-varying closed-bomb runs.

    ``W_in`` is in g/mol to match the usual tabulations.  Noble gases have
    no internal structure, so their specific heat ``Cv_in`` is constant and
    their reference energy is zero.
    """

    name: str
    Cv_in: float           # J/(kg K)
    W_in: float            # g/mol

    def __post_init__(self):
        _positive("Cv_in", self.Cv_in)
        _positive("W_in", self.W_in)


@dataclass(frozen=True, init=False)
class ThermoState:
    """One thermodynamically consistent point for a gas or a mixture.

    Entropy is ``None`` for models without a closed-form entropy
    (the Cv(T) virial variant).

    Every state builder returns one, so the constructor is written by hand
    (``init=False``): it stores the ten fields in one write and checks a
    valid state with one comparison chain.  ``dataclasses.replace`` and the
    other dataclass helpers still apply.
    """

    P: float               # Pa
    T: float               # K
    rho: float             # kg/m3
    v: float               # m3/kg
    e: float               # J/kg
    h: float               # J/kg
    s: float | None        # J/(kg K)
    c: float               # m/s
    Cp: float              # J/(kg K)
    gamma: float

    def __init__(self, P, T, rho, v, e, h, s, c, Cp, gamma):
        self.__dict__.update(P=P, T=T, rho=rho, v=v, e=e, h=h, s=s, c=c, Cp=Cp, gamma=gamma)
        try:
            if (0.0 < P < math.inf and 0.0 < T < math.inf and 0.0 < rho < math.inf
                    and abs(v * rho - 1.0) <= 1e-12 and gamma > 1.0 and 0.0 < c < math.inf):
                return
        except TypeError:  # a None field, which the checks below name
            pass
        self._validate()  # the failure, with the message of the first failing check

    def _validate(self):
        _positive("P", self.P)
        _positive("T", self.T)
        _positive("rho", self.rho)
        if abs(self.v * self.rho - 1.0) > 1e-12:
            raise ValidationError(f"v and rho are inconsistent: v*rho = {self.v * self.rho!r}")
        if not self.gamma > 1.0:
            raise ValidationError(f"gamma must exceed 1, got {self.gamma!r}")
        _positive("c", self.c)


@dataclass(frozen=True)
class ClosedBombPoint:
    """One closed-bomb record: loading density and peak pressure."""

    rho_load: float        # kg/m3
    P_max: float           # Pa

    def __post_init__(self):
        _positive("rho_load", self.rho_load)
        _positive("P_max", self.P_max)

    @property
    def v(self):
        """Specific volume of the burnt gas at this loading, m3/kg."""
        return 1.0 / self.rho_load


@dataclass(frozen=True)
class MixtureSpec:
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

    components: tuple[tuple[GasParams, float], ...]
    oxygen_balance_declared_uniform: bool = False

    def __post_init__(self):
        comps = tuple((gas, float(y)) for gas, y in self.components)
        if not comps:
            raise ValidationError("mixture needs at least one component")
        for gas, y in comps:
            if not 0.0 <= y <= 1.0:
                raise ValidationError(f"mass fraction of {gas.name!r} out of [0,1]: {y!r}")
        total = math.fsum(y for _, y in comps)
        if abs(total - 1.0) > MASS_FRACTION_TOL:
            raise ValidationError(f"mass fractions must sum to 1 within {MASS_FRACTION_TOL}, got {total!r}")
        object.__setattr__(self, "components", comps)

    @cached_property
    def mixed(self) -> GasParams:
        model = self.uniform_model()
        pairs = self.components
        keys = ("R", *MODEL_FIELDS[model], "q")
        if all(gas.e_s_eff is not None for gas, _ in pairs):
            keys += ("e_s_eff",)
        fields = {key: math.fsum(y * getattr(gas, key) for gas, y in pairs) for key in keys}
        return GasParams(name="+".join(gas.name for gas, _ in pairs), model=model, **fields)

    @cached_property
    def virial_bracket(self) -> tuple[float, float, float]:
        """``(min R_k, max R_k, N max a_k)``, the bracket constants of the virial mixture's
        pressure solve, which needs VO1 components with a > 0."""
        self.uniform_model(Model.VO1)
        pairs = self.components
        for gas, _ in pairs:
            if not gas.a > 0.0:
                raise ValidationError(
                    f"mixture pressure solve requires a > 0 for every component; {gas.name!r} has a = {gas.a!r}")
        Rs = [gas.R for gas, _ in pairs]
        return min(Rs), max(Rs), max(gas.a for gas, _ in pairs) * len(pairs)

    @cached_property
    def virial_terms(self) -> tuple[tuple[float, float, float], ...]:
        """``(R_k, a_k, Y_k)`` of each component, what the virial mixture's volume
        sum reads; raises as :attr:`virial_bracket` does."""
        self.virial_bracket
        return tuple((gas.R, gas.a, y) for gas, y in self.components)

    def uniform_model(self, *allowed: Model) -> Model:
        """Return the shared model of all components, checking it is allowed."""
        models = {gas.model for gas, _ in self.components}
        if len(models) != 1:
            found = ", ".join(sorted(str(m) for m in models))
            raise ModelMismatchError(f"mixture components use different models: {found}")
        model = models.pop()
        if allowed and model not in allowed:
            wanted = " or ".join(str(m) for m in allowed)
            raise ModelMismatchError(f"mixture rule requires {wanted} components, got {model}")
        return model


@dataclass(frozen=True)
class InertRunRecord:
    """One inert-diluted closed-bomb run used for Cv(T) fitting."""

    Y: float           # reactant mass fraction
    T_flame: float     # K

    def __post_init__(self):
        if not 0.0 < self.Y <= 1.0:
            raise ValidationError(f"reactant mass fraction must lie in (0,1], got {self.Y!r}")
        _positive("T_flame", self.T_flame)


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
