"""Parameter determination from closed-bomb data.

Two closed-bomb points (loading density, peak pressure) plus a flame
temperature and heat-capacity ratio from a thermochemical computation
determine the full parameter set of either reduced model.  Measured peak
pressures implicitly carry wall heat losses and other non-idealities, so
no separate loss term enters: the effective energy absorbs it.

The Cv(T) fit uses inert-diluted runs: diluting the reactant with a noble
gas makes the flame temperature vary, and a linear-least-squares system in
(Cv0, c, q) falls out of energy conservation across the runs.  Its 3x3
normal equations are solved in plain Python, through the eigen-decomposition
by Jacobi rotations that also gives their condition number.  The same
dilution model gives the forward flame temperature; a noble inert has the
constant specific heat Cv_in and no reference energy, so its energy is
Cv_in T throughout.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .errors import DegenerateDataError, DomainError, NumericalError, RankDeficiencyError, ValidationError
from .types import (
    ClosedBombPoint,
    FrozennessReport,
    GasParams,
    InertGasParams,
    InertRunRecord,
    Model,
    T_REF,
    require_model,
)
from . import virial_cvt
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


def _gas_constant(R, T_flame):
    """The calibrated R; :class:`ValidationError` naming the flame temperature unless positive and finite."""
    if not 0.0 < R < math.inf:
        raise ValidationError(
            f"calibrated gas constant {R!r} J/(kg K) is not positive and finite at flame temperature {T_flame!r} K")
    return R


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
    R = _gas_constant(P1 * (v1 - b) / T_flame, T_flame)
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
    R = _gas_constant(denom / (T_flame * r1 * r2 * (r2 - r1)), T_flame)
    rho_bar = 0.5 * (r1 + r2)
    ar = a * rho_bar
    Cv = R / (gamma - 1.0) * (1.0 + ar) ** 2 / (1.0 + 2.0 * ar)
    return GasParams.virial(
        name, R=R, a=a, Cv=Cv,
        e_s_eff=Cv * T_flame, T_flame=T_flame, gamma_cal=gamma,
        rho_range=(min(r1, r2), max(r1, r2)))


class LsqFit(NamedTuple):
    """Result of the 3-parameter heat-capacity fit."""

    Cv0: float             # J/(kg K)
    c: float               # J/(kg K^2)
    q: float               # J/kg
    residual_norm: float   # J/kg, 2-norm over the rows
    condition: float       # condition number of the scaled normal matrix


#: Column scales conditioning the normal equations (T in the thousands,
#: T^2/2 in the millions).
_COL_SCALE = (1e-3, 1e-7, 1.0)

#: Condition-number ceiling beyond which the fit is declared rank deficient.
_COND_LIMIT = 1e12


def _symmetric_eigen(M):
    """Eigenvalues and unit eigenvectors of a symmetric 3x3 matrix, by cyclic Jacobi rotations.

    Each rotation zeroes one off-diagonal entry; the sweeps end when all
    three are zero, which the quadratic convergence reaches by underflow.
    Returns ``(values, vectors)``, ``vectors[k]`` belonging to ``values[k]``.
    """
    a = [list(row) for row in M]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # row k is eigenvector k
    for _ in range(50):
        if a[0][1] == a[0][2] == a[1][2] == 0.0:
            break
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = a[p][q]
            if apq == 0.0:
                continue
            theta = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            a[p][p] -= t * apq
            a[q][q] += t * apq
            a[p][q] = a[q][p] = 0.0
            arp, arq = a[r][p], a[r][q]
            a[r][p] = a[p][r] = c * arp - s * arq
            a[r][q] = a[q][r] = s * arp + c * arq
            v[p], v[q] = [c * x - s * z for x, z in zip(v[p], v[q])], [s * x + c * z for x, z in zip(v[p], v[q])]
    return [a[k][k] for k in range(3)], v


def lsq_fit_3(temperatures, targets) -> LsqFit:
    """Fit ``y = Cv0*T + (c/2)*T^2 + q`` by column-scaled normal equations.

    Exact on consistent systems; raises :class:`RankDeficiencyError` when
    the temperatures do not spread enough to separate the three columns.
    """
    try:
        T = [float(t) for t in temperatures]
        y = [float(v) for v in targets]
    except TypeError:
        T, y = None, ()
    if T is None or len(T) != len(y):
        raise ValidationError("temperatures and targets must be 1-d arrays of equal length")
    if len(T) < 3:
        raise ValidationError(f"at least 3 rows are required, got {len(T)}")

    rows = [(t * _COL_SCALE[0], 0.5 * t * t * _COL_SCALE[1], 1.0) for t in T]
    M = [[math.fsum(row[i] * row[j] for row in rows) for j in range(3)] for i in range(3)]
    if not all(math.isfinite(m) for line in M for m in line):
        raise RankDeficiencyError(f"the normal matrix overflows at the largest temperature {max(T)!r} K")
    values, vectors = _symmetric_eigen(M)
    smallest, largest = min(map(abs, values)), max(map(abs, values))
    condition = largest / smallest if smallest > 0.0 else math.inf
    if not condition <= _COND_LIMIT:
        raise RankDeficiencyError(
            f"insufficient temperature spread: condition {condition:.3g} exceeds {_COND_LIMIT:g}")
    rhs = [math.fsum(row[i] * yj for row, yj in zip(rows, y)) for i in range(3)]
    # M^-1 rhs = sum over the eigenpairs of v (v . rhs) / lambda
    weights = [sum(vi * bi for vi, bi in zip(vec, rhs)) / lam for lam, vec in zip(values, vectors)]
    beta = [sum(w * vec[i] for w, vec in zip(weights, vectors)) for i in range(3)]
    Cv0, c, q = (b * scale for b, scale in zip(beta, _COL_SCALE))
    resid = [yj - (Cv0 * t + 0.5 * c * t * t + q) for t, yj in zip(T, y)]
    return LsqFit(Cv0=Cv0, c=c, q=q, residual_norm=math.hypot(*resid), condition=condition)


def calibrate_cvt(runs: Sequence[InertRunRecord], inert: InertGasParams,
                  e_s_i, T0=T_REF) -> LsqFit:
    """Least-squares fit of (Cv0, c, q) from inert-diluted runs.

    Energy conservation in each closed bomb gives one row per run:

        Cv0 T_j + (c/2) T_j^2 + q = e_s_i - ((1-Y_j)/Y_j) Cv_in (T_j - T0)

    with e_s_i the initial solid energy of the pure reactant (J/kg) and
    T0 the initial mixture temperature.  Needs at least three runs with
    enough temperature spread to separate the three parameters.
    """
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
    T = virial_cvt._flame_temperature(params)
    P = LAWS[params.model].pressure(params, rho_load, T)
    if not 0.0 < P < math.inf:  # P overflows, or 1/rho_load does and P is 0
        raise NumericalError(f"the peak pressure at rho_load={rho_load!r} is not positive and finite, got {P!r}")
    lo, hi = params.rho_range or (-math.inf, math.inf)
    return ClosedBombPrediction(T_flame=T, P_max=P, extrapolated=not lo <= rho_load <= hi)
