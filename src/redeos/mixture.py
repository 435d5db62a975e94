"""Mixture equations of state for gas products of several reactive materials.

The gases are assumed ideally mixed and in temperature and pressure
equilibrium, with frozen composition (no post-combustion between them,
which is why every component must share the oxygen-balance sign).  A
mixture is one mass-weighted record, ``MixtureSpec.mixed``, and its caloric
law is that record's.  The Noble-Abel mixture is a Noble-Abel gas with that
record and stays explicit: its laws are the kernels of
:mod:`redeos.noble_abel` applied to it.  The virial mixture couples the
component densities through the pressure and needs a scalar iterative
solve; its residual and its slope evaluate each component through the
virial density root :func:`~redeos.virial.virial_density_pt`, so this
module writes no thermal or caloric law of its own.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, NumericalError, ValidationError
from .noble_abel import na_pressure_vt, na_sound_speed
from .numerics import solve_monotone
from .types import GasParams, MixtureSpec, Model
from .virial import virial_density_pt, virial_pressure_rt, vo1_cp
from .virial_cvt import cvt_temperature

#: Relative tolerance on the mixture pressure solve.
MVO1_TOL = 1e-13

#: Iteration budget for the mixture pressure solve.
MVO1_MAX_ITER = 100


def mna_coefficients(mix: MixtureSpec) -> GasParams:
    """The Noble-Abel mixture record: mass-weighted R, Cv, q and b."""
    mixed = mix.mixed
    if mixed.b is None:  # only NA records carry b
        mix.uniform_model(Model.NA)
    return mixed


class MnaState(NamedTuple):
    P: float   # Pa
    T: float   # K


def mna_pressure(mix: MixtureSpec, v_mix, e_mix) -> MnaState:
    """Mixture pressure and temperature from specific volume and energy."""
    mixed = mna_coefficients(mix)
    T = cvt_temperature(mixed, e_mix)
    return MnaState(P=na_pressure_vt(mixed, v_mix, T), T=T)


def mna_pressure_vt(mix: MixtureSpec, v_mix, T):
    """Mixture thermal law R_mix T / (v_mix - b_mix)."""
    return na_pressure_vt(mna_coefficients(mix), v_mix, T)


def mna_sound_speed(mix: MixtureSpec, P, v_mix):
    """Frozen mixture sound speed, the Noble-Abel sound speed of the mixture record.

    It collapses to the single-gas sound speed at N = 1 and to the ideal
    mixture value gamma_mix P v_mix at b_mix = 0.
    """
    mixed = mna_coefficients(mix)
    if not v_mix > 0.0:
        raise DomainError(f"mixture specific volume must be positive, got {v_mix!r}")
    return na_sound_speed(mixed, P, 1.0 / v_mix)


def _mixture_volume(pairs, P, T):
    """Component densities rho_k(P, T), one virial density root each, with
    the mixture volume v = sum_k Y_k / rho_k and S = -dv/dP at fixed T.

    S is the thermal law's dP/drho, inverted and mass-weighted:

        S = sum_k Y_k / (rho_k^2 R_k T (1 + 2 a_k rho_k))
    """
    rhos = []
    v = S = 0.0
    for gas, y in pairs:
        rho = virial_density_pt(gas.R, gas.a, P, T)
        rhos.append(rho)
        v += y / rho
        S += y / (rho * rho * gas.R * T * (1.0 + 2.0 * gas.a * rho))
    return rhos, v, S


class Mvo1Solution(NamedTuple):
    """Solved mixture pressure with the component densities."""

    P: float                            # Pa
    T: float                            # K
    rho_components: tuple[float, ...]   # kg/m3, one per component
    iterations: int
    residual_rel: float                 # |sum Y_k/rho_k - v_mix| / v_mix


def mvo1_pressure(mix: MixtureSpec, rho_mix, T) -> Mvo1Solution:
    """Solve the implicit virial-mixture thermal law for the pressure.

    The mixture specific volume must equal the mass-weighted component
    volumes at the common (P, T):

        1/rho_mix = sum_k Y_k / rho_k(P, T)

    with rho_k the virial kernel's density root.  Each component volume
    decreases strictly in P, so the residual is monotone with slope -S
    (:func:`_mixture_volume`), and a bracketing Newton solve always
    converges.  It starts from the mixture record's own virial law and
    rarely needs the bracket [rho_mix min_k(R_k) T, rho_mix max_k(R_k) T
    (1 + max_k(a_k) rho_mix N)], which is widened by a small margin to
    absorb rounding at analytic endpoints.
    """
    R_min, R_max, a_n = mix.virial_bracket
    if not (rho_mix > 0.0 and T > 0.0):
        raise DomainError(f"density and temperature must be positive, got rho={rho_mix!r}, T={T!r}")
    pairs = mix.components
    v_mix = 1.0 / rho_mix

    def g(P):
        _, v, S = _mixture_volume(pairs, P, T)
        return v - v_mix, -S

    P_lo = rho_mix * R_min * T * (1.0 - 1e-7)
    if not P_lo < math.inf:  # the root lies above P_lo; P_hi may overflow while the root is finite
        raise NumericalError(f"the mixture pressure overflows at rho={rho_mix!r}, T={T!r}")
    P_hi = rho_mix * R_max * T * (1.0 + a_n * rho_mix) * (1.0 + 1e-7)
    mixed = mix.mixed
    x0 = virial_pressure_rt(mixed.R, mixed.a, rho_mix, T)

    result = solve_monotone(g, P_lo, P_hi, tol_rel=MVO1_TOL, max_iter=MVO1_MAX_ITER, x0=x0)
    P = result.root
    if P == math.inf:
        raise NumericalError(f"the mixture pressure overflows at rho={rho_mix!r}, T={T!r}")
    rho_components = tuple(_mixture_volume(pairs, P, T)[0])
    residual = abs(math.fsum(y / rho for (_, y), rho in zip(pairs, rho_components)) - v_mix) / v_mix
    return Mvo1Solution(P=P, T=T, rho_components=rho_components,
                        iterations=result.iterations, residual_rel=residual)


def mvo1_pressure_from_energy(mix: MixtureSpec, rho_mix, e_mix) -> Mvo1Solution:
    """Mixture pressure from density and mixture internal energy."""
    return mvo1_pressure(mix, rho_mix, cvt_temperature(mix.mixed, e_mix))


def mvo1_sound_speed(mix: MixtureSpec, P, T):
    """Frozen sound speed of the virial mixture at (P, T).

        c^2 = (Cp_mix / Cv_mix) v_mix^2 / S

    with S = -d(v_mix)/dP at fixed T (see :func:`_mixture_volume`), the
    component densities at the common (P, T) and each Cp_k from the
    density-dependent Mayer relation at its own rho_k.  Collapses to the
    single-gas sound speed at N = 1.
    """
    mix.virial_bracket  # raises unless every component is a VO1 record with a > 0
    if not (P > 0.0 and T > 0.0):
        raise DomainError(f"pressure and temperature must be positive, got P={P!r}, T={T!r}")
    pairs = mix.components
    rhos, v_mix, S = _mixture_volume(pairs, P, T)
    cp_mix = 0.0
    for (gas, y), rho in zip(pairs, rhos):
        cp_mix += y * vo1_cp(gas, rho, T)
    return math.sqrt(cp_mix * v_mix * v_mix / (mix.mixed.Cv * S))


class MixtureFlame(NamedTuple):
    T_flame: float      # K
    e_s_eff_mix: float  # J/kg


def mixture_flame_temperature(mix: MixtureSpec) -> MixtureFlame:
    """Constant-volume flame state of the mixture.

    The closed-bomb rule of a single record applied to the mixture record:
    the flame temperature follows from its caloric law at its effective
    energy, the mass-weighted sum of the component effective energies.
    """
    mixed = mix.mixed
    for gas, _ in mix.components:
        if gas.e_s_eff is None:
            raise ValidationError(f"record {gas.name!r} carries no effective energy")
    return MixtureFlame(T_flame=cvt_temperature(mixed, mixed.q + mixed.e_s_eff), e_s_eff_mix=mixed.e_s_eff)
