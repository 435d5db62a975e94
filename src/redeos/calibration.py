"""Parameter determination from closed-bomb data.

Two closed-bomb points (loading density, peak pressure) plus a flame
temperature and heat-capacity ratio from a thermochemical computation
determine the full parameter set of either reduced model.  Measured peak
pressures implicitly carry wall heat losses and other non-idealities, so
no separate loss term enters: the effective energy absorbs it.

The Cv(T) fit uses inert-diluted runs: diluting the reactant with a noble
gas makes the flame temperature vary, and a linear-least-squares system in
(Cv0, c, q) falls out of energy conservation across the runs.  The same
dilution model gives the forward flame temperature; a noble inert has the
constant specific heat Cv_in and no reference energy, so its energy is
Cv_in T throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import DegenerateDataError, DomainError, ValidationError
from .types import (
    ClosedBombPoint,
    FrozennessReport,
    GasParams,
    InertGasParams,
    InertRunRecord,
    Model,
    require_model,
)
from . import virial_cvt
from .constants import T_REF
from .state import LAWS


def _check_two_points(p1: ClosedBombPoint, p2: ClosedBombPoint, T_flame, gamma):
    if p1.rho_load == p2.rho_load:
        raise DegenerateDataError(f"both points share the loading density {p1.rho_load!r} kg/m3")
    if p1.P_max == p2.P_max:
        raise DegenerateDataError(f"both points share the peak pressure {p1.P_max!r} Pa")
    if not T_flame > 0.0:
        raise ValidationError(f"flame temperature must be positive, got {T_flame!r}")
    if not gamma > 1.0:
        raise ValidationError(f"heat-capacity ratio must exceed 1, got {gamma!r}")


def calibrate_na(p1: ClosedBombPoint, p2: ClosedBombPoint, T_flame, gamma,
                 name="calibrated") -> GasParams:
    """Two-point Noble-Abel calibration.

    The covolume follows from eliminating R between the two closed-bomb
    states; R then follows from either state at the given flame
    temperature (the quotient form printed in some references is
    dimensionally wrong; this algebraically equivalent form reproduces
    published parameter tables):

        b = (P1 v1 - P2 v2) / (P1 - P2)
        R = P1 (v1 - b) / T_flame
    """
    _check_two_points(p1, p2, T_flame, gamma)
    P1, P2 = p1.P_max, p2.P_max
    v1, v2 = p1.v, p2.v
    b = (P1 * v1 - P2 * v2) / (P1 - P2)
    if b < 0.0:
        raise ValidationError(f"calibrated covolume is negative ({b!r} m3/kg); points are inconsistent")
    if b >= min(v1, v2):
        raise ValidationError(
            f"calibrated covolume {b!r} m3/kg reaches the smaller specific volume; "
            "the model would be non-convex inside its own calibration range")
    R = P1 * (v1 - b) / T_flame
    Cv = R / (gamma - 1.0)
    return GasParams.noble_abel(
        name, R=R, b=b, Cv=Cv,
        e_s_eff=Cv * T_flame, T_flame=T_flame, gamma_cal=gamma,
        rho_range=(min(p1.rho_load, p2.rho_load), max(p1.rho_load, p2.rho_load)))


def calibrate_vo1(p1: ClosedBombPoint, p2: ClosedBombPoint, T_flame, gamma,
                  name="calibrated") -> GasParams:
    """Two-point first-order virial calibration.

        a = (P2 rho1 - P1 rho2) / (P1 rho2^2 - P2 rho1^2)
        R = (P1 rho2^2 - P2 rho1^2) / (T_flame rho1 rho2 (rho2 - rho1))

    Cv comes from the density-dependent Mayer relation evaluated at the
    mean loading density of the two points; the choice of density is
    insignificant because gamma varies weakly over the calibrated range.
    """
    _check_two_points(p1, p2, T_flame, gamma)
    P1, P2 = p1.P_max, p2.P_max
    r1, r2 = p1.rho_load, p2.rho_load
    denom = P1 * r2 * r2 - P2 * r1 * r1
    if denom == 0.0:
        raise DegenerateDataError("points satisfy P1 rho2^2 = P2 rho1^2; the virial system is singular")
    a = (P2 * r1 - P1 * r2) / denom
    if a <= 0.0:
        raise ValidationError(
            f"calibrated virial coefficient is not positive ({a!r} m3/kg); the data are "
            "indistinguishable from an ideal gas or imply a non-convex model")
    R = denom / (T_flame * r1 * r2 * (r2 - r1))
    if R <= 0.0:
        raise ValidationError(f"calibrated gas constant is not positive ({R!r} J/(kg K))")
    rho_bar = 0.5 * (r1 + r2)
    ar = a * rho_bar
    Cv = R / (gamma - 1.0) * (1.0 + ar) ** 2 / (1.0 + 2.0 * ar)
    return GasParams.virial(
        name, R=R, a=a, Cv=Cv,
        e_s_eff=Cv * T_flame, T_flame=T_flame, gamma_cal=gamma,
        rho_range=(min(r1, r2), max(r1, r2)))


def calibrate_cvt(runs: Sequence[InertRunRecord], inert: InertGasParams,
                  e_s_i, T0=T_REF) -> LsqFit:
    """Least-squares fit of (Cv0, c, q) from inert-diluted runs.

    Energy conservation in each closed bomb gives one row per run:

        Cv0 T_j + (c/2) T_j^2 + q = e_s_i - ((1-Y_j)/Y_j) Cv_in (T_j - T0)

    with e_s_i the initial solid energy of the pure reactant (J/kg) and
    T0 the initial mixture temperature.  Needs at least three runs with
    enough temperature spread to separate the three parameters.
    """
    from .numerics import lsq_fit_3  # the fit is the only numerics user here; other commands skip the module

    runs = list(runs)
    if len(runs) < 3:
        raise ValidationError(f"at least 3 runs are required, got {len(runs)}")
    temperatures = [run.T_flame for run in runs]
    targets = [e_s_i - (1.0 - run.Y) / run.Y * inert.Cv_in * (run.T_flame - T0) for run in runs]
    return lsq_fit_3(temperatures, targets)


def dilution_flame_temperature(params: GasParams, inert: InertGasParams, Y,
                               e_s_i, T0=T_REF):
    """Flame temperature of a reactant diluted by a noble inert.

    Forward model of the closed-bomb energy balance: the mixture energy
    before ignition, Y e_s_i + (1-Y) Cv_in T0, equals the mixture energy
    at the flame temperature.  Solved in the rationalized quadratic form

        T = 2 C / (B + sqrt(B^2 + 4 A C))

    with A = Y c / 2, B = Y Cv0 + (1-Y) Cv_in and
    C = Y (e_s_i - q) + (1-Y) Cv_in T0, stable for any sign of c.
    """
    require_model(params, Model.VO1_CVT)
    if not 0.0 < Y <= 1.0:
        raise DomainError(f"reactant mass fraction must lie in (0,1], got {Y!r}")
    A = 0.5 * Y * params.c
    B = Y * params.Cv0 + (1.0 - Y) * inert.Cv_in
    C = Y * (e_s_i - params.q) + (1.0 - Y) * inert.Cv_in * T0
    if C <= 0.0:
        raise DomainError("the mixture holds no energy above the caloric reference")
    disc = B * B + 4.0 * A * C
    if disc < 0.0:
        raise DomainError("energy balance has no real flame temperature")
    return 2.0 * C / (B + disc**0.5)


def frozenness_check(molar_masses: Iterable[tuple[float, float]],
                     threshold=0.01) -> FrozennessReport:
    """Screen gas products for composition changes across dilution levels.

    A shifting molar mass across mass fractions signals re-equilibrating
    chemistry; the Cv(T) fit is only meaningful for products whose
    composition stays frozen.  The spread is (max - min) / mean of the
    molar masses; at or below ``threshold`` counts as frozen.
    """
    entries = list(molar_masses)
    if len(entries) < 2:
        raise ValidationError(f"at least 2 entries are required, got {len(entries)}")
    masses = [w for _, w in entries]
    for w in masses:
        if not w > 0.0:
            raise ValidationError(f"molar mass must be positive, got {w!r}")
    mean = sum(masses) / len(masses)
    spread = (max(masses) - min(masses)) / mean
    return FrozennessReport(frozen=spread <= threshold, max_rel_spread=spread)


class ClosedBombPrediction(NamedTuple):
    T_flame: float      # K
    P_max: float        # Pa
    extrapolated: bool  # loading density outside the calibrated range


def predict_closed_bomb(params: GasParams, rho_load) -> ClosedBombPrediction:
    """Constant-volume explosion state at a loading density.

    The flame temperature follows from the caloric law at the stored
    effective energy; the peak pressure from the thermal law at
    (rho_load, T_flame).  Noble-Abel diverges at rho_load = 1/b, beyond
    which the state is non-physical.
    """
    if not rho_load > 0.0:
        raise DomainError(f"loading density must be positive, got {rho_load!r}")
    if params.e_s_eff is None:
        raise ValidationError(f"record {params.name!r} carries no effective energy")
    T = virial_cvt.cvt_temperature(params, params.q + params.e_s_eff)
    P = LAWS[params.model].pressure(params, rho_load, T)
    extrapolated = False
    if params.rho_range is not None:
        lo, hi = params.rho_range
        extrapolated = not (lo <= rho_load <= hi)
    return ClosedBombPrediction(T_flame=T, P_max=P, extrapolated=extrapolated)
