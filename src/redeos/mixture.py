"""Mixture equations of state for gas products of several reactive materials.

The gases are assumed ideally mixed and in temperature and pressure
equilibrium, with frozen composition (no post-combustion between them,
which is why every component must share the oxygen-balance sign).  A
mixture is one mass-weighted record, ``MixtureSpec.mixed``, and its caloric
law is that record's.  The Noble-Abel mixture is a Noble-Abel gas with that
record and stays explicit: its laws are the kernels of
:mod:`redeos.noble_abel` applied to it.  The virial mixture couples the
component densities through the pressure and needs a scalar iterative
solve, :func:`_solve_pressure`: Newton's path runs inline, off it the solve
falls back to :func:`~redeos.numerics.solve_monotone`, both within the one
iteration budget, and every entry point gets its 1e-12 volume contract from
it.  The component density root of :func:`~redeos.virial.virial_density_pt`
and the Cp of :func:`~redeos.virial.vo1_cp` are written inline in their
kernels' operation order, and tests bind them to the kernels bit for bit.  A
flow solver's cell update calls :func:`mvo1_closure_from_rho_e`, which takes
c from the component densities of the solve's last pass: one solve per cell.
"""

from __future__ import annotations

import math
from math import sqrt
from typing import NamedTuple

from .errors import BracketError, ConvergenceError, DomainError, NumericalError, ValidationError
from .noble_abel import na_pressure_vt, na_sound_speed
from .numerics import _ROOT_MAX_ITER, _ROOT_STEP, solve_monotone
from .state import Closure
from .types import GasParams, MixtureSpec, Model, require_model
from .virial import vo1_pressure
from .virial_cvt import _flame_temperature, cvt_temperature


def mna_coefficients(mix: MixtureSpec) -> GasParams:
    """The Noble-Abel mixture record: mass-weighted R, Cv, q and b."""
    mixed = mix.mixed  # only NA records carry b; one identity test keeps this path cheap
    return mixed if mixed.b is not None else require_model(mixed, Model.NA)


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


def _mixture_volume(terms, P, T):
    """Component densities rho_k(P, T), one virial density root each, with
    the mixture volume v = sum_k Y_k / rho_k and S = -dv/dP at fixed T.

    ``terms`` is the last entry of :attr:`~redeos.types.MixtureSpec.virial`.
    The root is :func:`~redeos.virial.virial_density_pt`'s expression in its
    operation order, whose discriminant guard is dead here (a > 0, P >= 0).
    S is the thermal law's dP/drho, inverted and mass-weighted:

        S = sum_k Y_k / (rho_k^2 R_k T (1 + 2 a_k rho_k))
    """
    rhos = []
    v = S = 0.0
    for R, a, y, _ in terms:
        rho = 2.0 * P / (R * T * (1.0 + sqrt(1.0 + 4.0 * a * P / (R * T))))
        rhos.append(rho)
        v += y / rho
        S += y / (rho * rho * R * T * (1.0 + 2.0 * a * rho))
    return rhos, v, S


def _sound_speed(mix, T, volume):
    """c from the ``(rhos, v, S)`` of one :func:`_mixture_volume` pass at (P, T);
    see :func:`mvo1_sound_speed`.  Each Cp_k is :func:`~redeos.virial.vo1_cp`'s
    formula; its Cv(T) and pole guards are dead for VO1 records with a > 0,
    and a nan density (from P = inf) gives a nan c, which the callers refuse."""
    rhos, v, S = volume
    cp_mix = 0.0
    try:
        for (R, a, y, Cv), rho in zip(mix.virial[3], rhos):
            ar = a * rho
            cp_mix += y * (Cv + R * (1.0 + ar) ** 2 / (1.0 + 2.0 * ar))
        return sqrt(cp_mix * v * v / (mix.mixed.Cv * S))
    except ZeroDivisionError:  # S underflows to zero, where c^2 ~ 1/S
        return math.inf
    except OverflowError:  # (1 + a rho) ** 2 passes the largest float: vo1_cp's refusal, word for word
        raise NumericalError(f"Cp overflows at rho={rho!r}, T={T!r}") from None


class Mvo1Solution(NamedTuple):
    """Solved mixture pressure with the component densities."""

    P: float                            # Pa
    T: float                            # K
    rho_components: tuple[float, ...]   # kg/m3, one per component
    iterations: int
    residual_rel: float                 # |sum Y_k/rho_k - v_mix| / v_mix


def _solve_pressure(mix, rho_mix, T):
    """The pressure solve of :func:`mvo1_pressure`: ``(P, iterations, (rhos, v, S))``,
    the last from the :func:`_mixture_volume` pass at the root.

    The loop is Newton's path of :func:`~redeos.numerics.solve_monotone` on the
    residual ``v - v_mix`` with slope ``-S``.  Each component volume is convex and
    decreasing in P, so a step inside (P_lo, P_hi) lies inside the bracket that
    solve_monotone narrows, and on a positive bracket its only stop on that path is
    the converged step taken here.  Where S is not in (0, inf), a step leaves the
    bracket or the budget runs out, the result is solve_monotone's.  The refusals
    of :func:`mvo1_pressure`, its 1e-12 volume contract among them, are made here,
    each naming rho and T.
    """
    R_min, R_max, a_n, terms = mix.virial
    if not (rho_mix > 0.0 and T > 0.0):
        raise DomainError(f"density and temperature must be positive, got rho={rho_mix!r}, T={T!r}")
    v_mix = 1.0 / rho_mix
    P_hi = rho_mix * R_max * T * (1.0 + a_n * rho_mix) * (1.0 + 1e-7)
    if not P_hi < math.inf:  # the solve could return P = inf there, with nan component densities
        raise NumericalError(f"the mixture pressure overflows at rho={rho_mix!r}, T={T!r}")
    P_lo = rho_mix * R_min * T * (1.0 - 1e-7)
    x0 = x = min(max(vo1_pressure(mix.mixed, rho_mix, T), P_lo), P_hi)
    P = None
    try:
        for iterations in range(1, _ROOT_MAX_ITER + 1):
            volume = _, v, S = _mixture_volume(terms, x, T)
            gx = v - v_mix
            if gx == 0.0:
                return x, iterations, volume
            if not 0.0 < S < math.inf:
                break
            step = x - gx / -S
            if not P_lo < step < P_hi:
                break
            if abs(step - x) <= _ROOT_STEP * abs(x):
                P = step
                break
            x = step
        if P is None:
            def g(P):
                _, v, S = _mixture_volume(terms, P, T)
                return v - v_mix, -S

            P, iterations = solve_monotone(g, P_lo, P_hi, x0=x0)
        volume = _mixture_volume(terms, P, T)
    except ZeroDivisionError:  # a component density or its square underflows to zero
        raise NumericalError(f"the component densities underflow at rho={rho_mix!r}, T={T!r}") from None
    except BracketError:  # the bracket is analytic, so only nan or overflowing ends share a sign
        raise NumericalError(f"the mixture volume is degenerate at rho={rho_mix!r}, T={T!r}") from None
    except ConvergenceError:
        raise NumericalError(f"the mixture pressure solve runs out of iterations at rho={rho_mix!r}, T={T!r}") from None
    # v lies within (N - 1) 2^-53 v of the exact sum, so passing here keeps the exact residual
    # below 1e-12 for any mixture of fewer than 4,500 components
    if not abs(volume[1] - v_mix) <= 5e-13 * v_mix:
        residual = _residual_rel(terms, volume[0], v_mix)
        if not residual <= 1e-12:  # the acceptance contract on the mixture volume
            raise NumericalError(f"the mixture volume residual {residual!r} exceeds 1e-12 at rho={rho_mix!r}, T={T!r}")
    return P, iterations, volume


def _residual_rel(terms, rhos, v_mix):
    """|sum_k Y_k / rho_k - v_mix| / v_mix, the sum exact."""
    return abs(math.fsum([y / rho for (_, _, y, _), rho in zip(terms, rhos)]) - v_mix) / v_mix


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
    absorb rounding at analytic endpoints.  Raises :class:`NumericalError`
    naming rho_mix and T where the pressure overflows, a bracket end or a
    component density degenerates, the solve runs out of iterations or
    ``residual_rel`` exceeds 1e-12.
    """
    P, iterations, (rhos, _, _) = _solve_pressure(mix, rho_mix, T)
    residual = _residual_rel(mix.virial[3], rhos, 1.0 / rho_mix)
    return Mvo1Solution(P=P, T=T, rho_components=tuple(rhos), iterations=iterations, residual_rel=residual)


def mvo1_pressure_from_energy(mix: MixtureSpec, rho_mix, e_mix) -> Mvo1Solution:
    """Mixture pressure from density and mixture internal energy."""
    return mvo1_pressure(mix, rho_mix, cvt_temperature(mix.mixed, e_mix))


def mvo1_sound_speed(mix: MixtureSpec, P, T):
    """Frozen sound speed of the virial mixture at (P, T).

        c^2 = (Cp_mix / Cv_mix) v_mix^2 / S

    with S = -d(v_mix)/dP at fixed T (see :func:`_mixture_volume`), the
    component densities at the common (P, T) and each Cp_k from the
    density-dependent Mayer relation at its own rho_k.  Collapses to the
    single-gas sound speed at N = 1.  Raises :class:`NumericalError` unless
    c is positive and finite.
    """
    terms = mix.virial[3]  # raises unless every component is a VO1 record with a > 0
    if not (P > 0.0 and T > 0.0):
        raise DomainError(f"pressure and temperature must be positive, got P={P!r}, T={T!r}")
    try:
        c = _sound_speed(mix, T, _mixture_volume(terms, P, T))
    except ZeroDivisionError:  # a component density or its square underflows to zero
        c = math.nan
    if not 0.0 < c < math.inf:
        raise NumericalError(f"the sound speed at P={P!r}, T={T!r} is degenerate: c={c!r}")
    return c


def mvo1_closure_from_rho_T(mix: MixtureSpec, rho_mix, T) -> Closure:
    """P, T and c of the virial mixture from one pressure solve.

    c comes from the component densities of the solve's last pass, so P, T
    and c are bit for bit those of :func:`mvo1_pressure` followed by
    :func:`mvo1_sound_speed`.  It refuses every cell :func:`mvo1_pressure`
    refuses, its 1e-12 volume contract included, and raises
    :class:`NumericalError` naming rho and T unless P and c are positive and finite.
    """
    P, _, volume = _solve_pressure(mix, rho_mix, T)
    c = _sound_speed(mix, T, volume)
    if not (0.0 < P < math.inf and 0.0 < c < math.inf):
        raise NumericalError(f"the state at rho={rho_mix!r}, T={T!r} is degenerate: P={P!r}, c={c!r}")
    return Closure(P, T, c)


def mvo1_closure_from_rho_e(mix: MixtureSpec, rho_mix, e_mix) -> Closure:
    """P, T and c of the virial mixture from density and internal energy: a flow solver's cell update."""
    return mvo1_closure_from_rho_T(mix, rho_mix, cvt_temperature(mix.mixed, e_mix))


def mixture_flame_temperature(mix: MixtureSpec):
    """Constant-volume flame temperature of the mixture, K: the single-record rule applied to
    ``mix.mixed``, whose effective energy is the mass-weighted sum of the components'."""
    mixed = mix.mixed
    for gas, _ in mix.components:
        if gas.e_s_eff is None:
            raise ValidationError(f"record {gas.name!r} carries no effective energy")
    return _flame_temperature(mixed)
