"""Shared numerical machinery.

Scalar root solving for monotone residuals to one tolerance within one
iteration budget, central differences at a relative step of 1e-6 (an O(h^2)
truncation error that rounding dominates), a finite-difference frozen
sound-speed oracle independent of any closed-form sound speed, a generic
convexity audit, and the grid audit of a record's closed forms against them.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import NamedTuple

from .errors import BracketError, ConvergenceError, DomainError, NumericalError
from .state import LAWS
from .types import ConvexityReport, GasParams, convexity_signs_ok
from . import virial_cvt

#: The oracle's difference steps are relative, 1e-6 |x|, and never below the
#: smallest normal float: ``fd_derivative(f, x, STEP_FLOOR)``.
STEP_FLOOR = 1e6 * sys.float_info.min


#: The relative root tolerance of :func:`solve_monotone` and the Newton step it returns unevaluated
_ROOT_TOL = 1e-13
_ROOT_STEP = (0.1 * _ROOT_TOL) ** 0.5
_ROOT_MAX_ITER = 200  # the iteration budget of every solve: solve_monotone's and the MVO1 solve's inline loop


class RootResult(NamedTuple):
    root: float
    iterations: int


def solve_monotone(g, lo, hi, *, x0=None) -> RootResult:
    """Find the root of a monotone scalar function on a bracket, to a relative 1e-13 in 200 iterations.

    The residual is evaluated at both ends first: ends of one sign raise
    :class:`BracketError`, an end where it vanishes is returned after 0
    iterations, and their signs give the orientation of the residual.  Then
    Newton steps where ``g`` gives a finite, non-zero slope of that
    orientation, Illinois-damped secant steps otherwise, each safeguarded by
    bisection so the iterate never leaves the bracket.  A Newton step
    ``x + dx`` inside the bracket with ``|dx| <= sqrt(0.1 tol) |x|`` is
    returned without evaluating ``g`` there: the step after it would move
    by about ``|x g''/(2 g')| (dx/x)^2 |x|``, a tenth of ``tol |x|``
    where ``|x g''/(2 g')| <= 1``, as for every residual solved here.  A
    secant or bisection step is returned once its bracket is ``tol |x|``
    wide.  A bracket that holds zero, where a root below eps times the
    bracket is unresolvable, adds ``1e-15 (hi - lo)`` to both tests.  A
    solve that needs more iterations raises :class:`ConvergenceError`.

    Parameters
    ----------
    g : callable
        ``g(x)`` returns ``(residual, slope)``, the slope being the analytic
        derivative or ``None``.  ``g(lo)`` and ``g(hi)`` must differ in sign
        (or vanish).
    lo, hi : float
        Bracket endpoints.
    x0 : float, optional
        Initial guess, clipped into the bracket.
    """
    if hi < lo:
        lo, hi = hi, lo
    xl, xh = lo, hi
    gl, gh = g(xl)[0], g(xh)[0]
    if gl == 0.0 or gh == 0.0:
        return RootResult(xl if gl == 0.0 else xh, 0)
    if (gl > 0.0) == (gh > 0.0):
        raise BracketError(f"g({xl:g}) = {gl:g} and g({xh:g}) = {gh:g} have the same sign")
    # orientation is fixed for a monotone residual; never re-read it from the
    # damped endpoint values below (damping can underflow them to zero)
    sign_high = gh > 0.0
    tol_floor = 1e-15 * (hi - lo) if lo <= 0.0 <= hi else 0.0
    x = 0.5 * (lo + hi) if x0 is None else min(max(x0, lo), hi)
    side = 0
    for it in range(1, _ROOT_MAX_ITER + 1):
        gx, d = g(x)
        if gx == 0.0:
            return RootResult(x, it)
        xn = None
        # a zero, non-finite or wrongly signed slope takes no Newton step
        if d and -math.inf < d < math.inf and (d > 0.0) == sign_high:
            cand = x - gx / d
            if xl < cand < xh:
                if abs(cand - x) <= _ROOT_STEP * abs(x):
                    return RootResult(cand, it)
                xn = cand
        # a Newton step taken above lies on the far side of x, so it stays
        # inside the bracket narrowed here
        if (gx > 0.0) == sign_high:
            xh, gh = x, gx
            if side == +1:
                gl *= 0.5  # Illinois damping against endpoint stagnation
            side = +1
        else:
            xl, gl = x, gx
            if side == -1:
                gh *= 0.5
            side = -1

        if xn is None:
            denom = gh - gl
            if denom != 0.0:
                cand = (xl * gh - xh * gl) / denom
                if xl < cand < xh:
                    xn = cand
            if xn is None:
                xn = 0.5 * (xl + xh)
            span = xh - xl  # the bracket bounds the error of a secant or bisection step
        else:
            span = abs(xn - x)  # a Newton step is about x's distance from the root, so it bounds xn's error

        if span <= max(_ROOT_TOL * max(abs(x), abs(xn)), tol_floor):
            return RootResult(xn, it)
        x = xn
    raise ConvergenceError(f"no convergence within {_ROOT_MAX_ITER} iterations (bracket [{xl:g}, {xh:g}])")


def _fd_step(x, scale_floor):
    return max(abs(x), scale_floor) * 1e-6


def fd_derivative(f, x, scale_floor=1.0):
    """Derivative of ``f`` at ``x`` by one central difference at ``h = max(|x|, scale_floor) * 1e-6``.

    Its O(h^2) truncation error, ``(h/x)^2 ~ 1e-12`` relative, lies below its
    rounding error, ``eps x/h ~ 2e-10``, which a Richardson pass would amplify.
    """
    h = _fd_step(x, scale_floor)
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_partial(f, point, arg, scale_floor=1.0):
    """Partial derivative of ``f(*point)`` with respect to ``point[arg]``."""
    point = tuple(point)

    def along(x):
        p = list(point)
        p[arg] = x
        return f(*p)

    return fd_derivative(along, point[arg], scale_floor)


def _invert_temperature(p_fn, rho, P_target, T_guess, P_T, T_start):
    """Solve ``p_fn(rho, T) = P_target`` for T in ``[T_guess/10, 10 T_guess]``.

    Assumes pressure strictly increasing in temperature, as in every model
    here.  Steps from ``T_start`` are Newton steps on the oracle's ``P_T``
    within 1e-4 T_guess of ``T_guess``, where it was differenced, and secant
    steps elsewhere, where a fixed slope is only a chord.  Every law here is
    linear in T, so from the oracle's seeded start the first step converges;
    it is taken here at one pressure evaluation, under the rule by which
    :func:`solve_monotone` returns a converged Newton step.  A start or step
    that rule refuses goes to :func:`solve_monotone` from the same start.
    """
    lo, hi, near = T_guess / 10.0, 10.0 * T_guess, 1e-4 * T_guess
    T = min(max(lo, T_start), hi)  # a nan start, from an overflowed seed, clips to lo
    if abs(T - T_guess) <= near and 0.0 < abs(P_T) < math.inf:  # a zero residual steps by zero
        step = T - (p_fn(rho, T) - P_target) / P_T
        if lo < step < hi and abs(step - T) <= _ROOT_STEP * abs(T):
            return step

    def g(T):
        return p_fn(rho, T) - P_target, (P_T if abs(T - T_guess) <= near else None)

    return solve_monotone(g, lo, hi, x0=T).root


class FdPartials(NamedTuple):
    """Partials of an EOS at (rho, T) by differences, and c^2 = (Cp/Cv) P_rho."""

    rho: float
    P: float
    e_T: float
    e_rho: float
    P_T: float
    P_rho: float
    c2: float

    def convexity(self) -> ConvexityReport:
        """The four convexity criteria in density form, from these partials alone."""
        rho, P, eT, erho, pT, prho, c2 = self
        m = P - rho**2 * erho
        b = m / (pT * eT)
        # (d) is m/e_T^2 ((e_T/P_T) rho^2 c^2 + rho^2 e_rho - P) with c^2 and Cp substituted; as written,
        # its terms of size R a rho^2 T cancel, and its sign is noise from rho ~ 2e19 kg/m3 up
        criteria = (rho**2 * c2, b, -m / eT, b * rho**2 * prho)
        return ConvexityReport(convex=convexity_signs_ok(criteria), criteria=criteria)


def _fd_partials(e_fn, p_fn, rho, T) -> FdPartials:
    """P and its partials at (rho, T): :func:`fd_derivative`'s four differences, written out in place."""
    P = p_fn(rho, T)
    hT, hr = max(abs(T), STEP_FLOOR) * 1e-6, max(abs(rho), STEP_FLOOR) * 1e-6
    eT = (e_fn(rho, T + hT) - e_fn(rho, T - hT)) / (2.0 * hT)
    erho = (e_fn(rho + hr, T) - e_fn(rho - hr, T)) / (2.0 * hr)
    pT = (p_fn(rho, T + hT) - p_fn(rho, T - hT)) / (2.0 * hT)
    prho = (p_fn(rho + hr, T) - p_fn(rho - hr, T)) / (2.0 * hr)
    try:
        cp = (eT + pT / rho) - (erho + prho / rho - P / rho**2) * pT / prho
    except ZeroDivisionError:  # rho^2 underflows to zero, or P_rho is zero
        raise NumericalError(f"the difference oracle divides by zero at rho={rho!r}, T={T!r}") from None
    return FdPartials(rho, P, eT, erho, pT, prho, (cp / eT) * prho)


class OracleSoundSpeed(NamedTuple):
    """Squared frozen sound speed from two independent difference paths.

    ``c2_energy`` differentiates the internal energy on constant-pressure
    and constant-density paths (Gibbs-identity form); ``c2_gamma`` is
    ``(Cp/Cv) (dP/drho)_T`` with the heat capacities themselves taken by
    finite differences.  The two are derived from the same definition, so
    their disagreement measures the numerical error of the oracle.
    ``partials`` holds the differences behind ``c2_gamma``, so a caller
    can reuse them (for the convexity criteria) without differencing again.
    """

    c2_energy: float
    c2_gamma: float
    partials: FdPartials

    @property
    def rel_disagreement(self):
        return abs(self.c2_energy - self.c2_gamma) / max(abs(self.c2_energy), abs(self.c2_gamma))


def sound_speed_fd_oracle(e_fn, p_fn, rho, T) -> OracleSoundSpeed:
    """Frozen sound speed of an EOS given only its primitive evaluators.

    Its four temperature inversions start from the linearisation of
    ``p_fn`` at (rho, T) by the oracle's own differences P_T and P_rho, and
    take P_T as their slope: with the five pressures of the partials, 9
    pressure and 8 energy evaluations per call, each difference written out
    in place.  Raises
    :class:`NumericalError` naming (rho, T) where an inversion cannot
    bracket its target (where P_T or P_rho is not finite or a target P + h
    overflows) or does not converge within its budget.

    Parameters
    ----------
    e_fn, p_fn : callable
        ``e(rho, T)`` in J/kg and ``P(rho, T)`` in Pa.
    rho, T : float
        Evaluation point.
    """
    partials = _fd_partials(e_fn, p_fn, rho, T)
    _, P, _, _, P_T, P_rho, _ = partials
    hr, hP = max(abs(rho), STEP_FLOOR) * 1e-6, max(abs(P), STEP_FLOOR) * 1e-6
    r_hi, r_lo, P_hi, P_lo = rho + hr, rho - hr, P + hP, P - hP
    try:
        dedrho_P = (e_fn(r_hi, _invert_temperature(p_fn, r_hi, P, T, P_T, T - P_rho * (r_hi - rho) / P_T))
                    - e_fn(r_lo, _invert_temperature(p_fn, r_lo, P, T, P_T, T - P_rho * (r_lo - rho) / P_T))) / (2.0 * hr)
        dedP_rho = (e_fn(rho, _invert_temperature(p_fn, rho, P_hi, T, P_T, T + (P_hi - P) / P_T))
                    - e_fn(rho, _invert_temperature(p_fn, rho, P_lo, T, P_T, T + (P_lo - P) / P_T))) / (2.0 * hP)
    except (BracketError, ConvergenceError):
        raise NumericalError(f"the difference oracle's temperature inversions fail at rho={rho!r}, T={T!r}") from None
    c2_energy = (P / rho**2 - dedrho_P) / dedP_rho
    return OracleSoundSpeed(c2_energy=c2_energy, c2_gamma=partials.c2, partials=partials)


def convexity_audit_fd(e_fn, p_fn, rho, T) -> ConvexityReport:
    """Evaluate the four convexity criteria from finite differences alone.

    The criterion values follow the density form of the criteria, so their
    signs are directly comparable with the closed-form reports of the kernels.
    """
    return _fd_partials(e_fn, p_fn, rho, T).convexity()


class AuditReport(NamedTuple):
    """A record's closed forms against the difference oracle over a (rho, T) grid.

    ``residuals`` are the maxima, over the points the closed forms call convex,
    of the compatibility residual over P, the relative sound-speed error and
    the disagreement of the oracle's two forms; ``LIMITS`` bounds them.
    """

    points: int
    skipped_rho: int
    maxwell: float
    sound_speed: float
    forms: float
    sign_mismatches: int
    violations: int

    LIMITS = (1e-8, 1e-5, 1e-6)

    @property
    def residuals(self):
        return (self.maxwell, self.sound_speed, self.forms)

    @property
    def passed(self):
        return (all(x <= limit for x, limit in zip(self.residuals, self.LIMITS))
                and self.sign_mismatches == 0 and self.violations == 0)


def _require_above_step(name, x, unit):
    """Refuse a grid value that the lowest difference point, ``x - h``, would take to zero or below.

    With the oracle's steps that is a value below the smallest normal float.
    """
    h = _fd_step(x, STEP_FLOOR)
    if x - h <= 0.0:
        raise DomainError(f"{name} {x!r} {unit} does not exceed its difference step {h!r} {unit}")


def audit_record(params: GasParams, rhos, temperatures) -> AuditReport:
    """Audit a record on the grid of two sequences, skipping densities within 1 % of a covolume.

    A point that fails the closed-form convexity criteria has no meaningful
    sound speed: it is a violation, not differenced.  Elsewhere one oracle
    pass (six differences, 10 pressures with the point's own) serves every
    check, and the oracle's verdict alone decides a sign mismatch.  Each
    difference step is relative to its value, 1e-6 |x|, down to the smallest
    normal float; a grid value is tested against it once.
    Raises :class:`DomainError` at a point outside the domain, at a grid
    density or temperature that does not exceed its step (a subnormal value),
    at a convex point whose closed-form criteria underflow to zero, or when
    no point is left; raises :class:`NumericalError` where the pressure,
    the oracle or a residual is not finite, or at a convex point whose
    closed-form criteria overflow to nan or to zero.
    """
    laws = LAWS[params.model]
    convexity, closed_sound_speed = laws.convexity, laws.sound_speed
    e_fn, p_fn = (lambda r, t: virial_cvt.cvt_energy(params, t)), partial(laws.pressure, params)
    temps = [(T, T - _fd_step(T, STEP_FLOOR) > 0.0) for T in temperatures]
    maxwell = sound_speed = forms = 0.0
    points = skipped = mismatches = violations = 0
    for rho in rhos:
        if params.b is not None and rho > 0.0 and 1.0 / rho <= params.b * (1.0 + 1e-2):
            skipped += 1
            continue
        rho_above_step = rho - _fd_step(rho, STEP_FLOOR) > 0.0
        for T, T_above_step in temps:
            P = p_fn(rho, T)
            points += 1
            if not (rho_above_step and T_above_step):
                _require_above_step("density", rho, "kg/m3")
                _require_above_step("temperature", T, "K")
            if not P < math.inf:  # an overflowed P would start the oracle's inversions at nan
                raise NumericalError(f"the pressure is not finite at rho={rho!r}, T={T!r}")
            closed = convexity(params, rho, P, T)
            # a convex point whose criteria underflow (P^2 or rho P below the smallest float) or reach
            # inf/inf (P^2 and R Cv(T) (1 + a rho)^2 above the largest) shows no sign to audit, and
            # calling it a violation would fail a convex record
            if closed.convex and 0.0 in closed.criteria:
                # each criterion is P or P^2 times a factor of (rho, T): the factors, the criteria at P = 1,
                # tell an underflowed P from a factor that overflowed, as rho R Cv (1 + a rho) can
                if not all(0.0 < abs(x) < math.inf for x in convexity(params, rho, 1.0, T).criteria):
                    raise NumericalError(f"the closed-form convexity criteria overflow at rho={rho!r}, T={T!r}")
                raise DomainError(f"the closed-form convexity criteria underflow to zero at rho={rho!r}, T={T!r}")
            if not (closed.convex and convexity_signs_ok(closed.criteria)):
                if closed.convex and any(map(math.isnan, closed.criteria)):
                    raise NumericalError(f"the closed-form convexity criteria are nan at rho={rho!r}, T={T!r}")
                violations += 1
                continue
            oracle = sound_speed_fd_oracle(e_fn, p_fn, rho, T)
            d = oracle.partials
            c2 = oracle.c2_energy
            if not 0.0 < c2 < math.inf:
                raise NumericalError(f"the difference oracle gives c^2 = {c2!r} at rho={rho!r}, T={T!r}")
            c = c2**0.5
            r_maxwell = abs(d.e_rho * rho * rho + T * d.P_T - P) / P
            r_c = abs(closed_sound_speed(params, rho, T, P) - c) / c
            r_forms = oracle.rel_disagreement
            # a comparison would drop a nan; each residual is >= 0, so < inf means finite
            if not (r_maxwell < math.inf and r_c < math.inf and r_forms < math.inf):
                raise NumericalError(f"an audit residual is not finite at rho={rho!r}, T={T!r}")
            if r_maxwell > maxwell:
                maxwell = r_maxwell
            if r_c > sound_speed:
                sound_speed = r_c
            if r_forms > forms:
                forms = r_forms
            if not d.convexity().convex:
                mismatches += 1
    if points == 0:
        raise DomainError(f"no point to evaluate, all {skipped} densities lie at or too near the covolume")
    return AuditReport(points, skipped, maxwell, sound_speed, forms, mismatches, violations)
