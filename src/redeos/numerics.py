"""Shared numerical machinery.

Scalar root solving for monotone residuals, Richardson-extrapolated
central differences, a finite-difference frozen sound-speed oracle that
stays independent of any closed-form sound speed, a generic convexity
audit, and the grid consistency audit of a record's closed forms against
them.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import BracketError, ConvergenceError, DomainError, NumericalError
from .state import LAWS
from .types import ConvexityReport, GasParams, convexity_signs_ok
from . import virial_cvt

#: The oracle's difference steps are relative, 1e-6 |x|, and never below the
#: smallest normal float: ``fd_derivative(f, x, STEP_FLOOR)``.
STEP_FLOOR = 1e6 * sys.float_info.min


class RootResult(NamedTuple):
    root: float
    iterations: int


def solve_monotone(g, lo, hi, *, tol_rel=1e-12, max_iter=100, x0=None, ends=None) -> RootResult:
    """Find the root of a monotone scalar function on a bracket.

    Newton steps where ``g`` gives a slope, damped secant steps otherwise,
    each safeguarded by bisection so the iterate never leaves the initial
    bracket.  The residual at the bracket endpoints is evaluated only when
    a step needs the bracket: no slope; a zero, non-finite or wrongly
    signed slope; or a Newton step that would leave it.  Until then the
    sign of the slope gives the orientation of the residual.

    Parameters
    ----------
    g : callable
        ``g(x)`` returns ``(residual, slope)``, the slope being the analytic
        derivative or ``None``.  ``g(lo)`` and ``g(hi)`` must differ in sign
        (or vanish).
    lo, hi : float
        Bracket endpoints.
    tol_rel : float
        Relative tolerance on the root.
    max_iter : int
        Iteration budget; exceeding it raises :class:`ConvergenceError`.
    x0 : float, optional
        Initial guess, clipped into the bracket.
    ends : (float, float), optional
        ``g(lo)[0]`` and ``g(hi)[0]``, when the caller has evaluated them;
        they are checked where evaluated ones would be, and ``g`` is then
        never called at an endpoint.
    """
    gl, gh = (None, None) if ends is None else ends  # residual at xl and xh, once known
    if hi < lo:
        lo, hi, gl, gh = hi, lo, gh, gl
    xl, xh = lo, hi
    unchecked = ends is not None  # given endpoint residuals not yet checked
    # orientation is fixed for a monotone residual; never re-read it from the
    # damped endpoint values below (damping can underflow them to zero)
    sign_high = None
    # roots below machine epsilon times the problem scale are unresolvable,
    # so the relative criterion carries an absolute floor tied to the bracket
    tol_floor = 1e-15 * (hi - lo)
    x = 0.5 * (lo + hi) if x0 is None else min(max(x0, lo), hi)
    side = 0
    for it in range(1, max_iter + 1):
        gx, d = g(x)
        if gx == 0.0:
            return RootResult(x, it)
        xn = None
        # a zero, non-finite or wrongly signed slope takes no Newton step
        if d and -math.inf < d < math.inf and sign_high in (None, d > 0.0):
            sign_high = d > 0.0
            cand = x - gx / d
            if xl < cand < xh:
                xn = cand
        if xn is None and (unchecked or gl is None or gh is None):
            unchecked = False
            gl = g(xl)[0] if gl is None else gl
            gh = g(xh)[0] if gh is None else gh
            if gl == 0.0:
                return RootResult(xl, it)
            if gh == 0.0:
                return RootResult(xh, it)
            if (gl > 0.0) == (gh > 0.0):
                raise BracketError(f"g({xl:g}) = {gl:g} and g({xh:g}) = {gh:g} have the same sign")
            if sign_high is None:
                sign_high = gh > 0.0
        # a Newton step taken above lies on the far side of x, so it stays
        # inside the bracket narrowed here
        if (gx > 0.0) == sign_high:
            xh, gh = x, gx
            if side == +1 and gl is not None:
                gl *= 0.5  # Illinois damping against endpoint stagnation
            side = +1
        else:
            xl, gl = x, gx
            if side == -1 and gh is not None:
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

        # max(tol_rel * max(|x|, |xn|), tol_floor); max() calls cost more than a secant step
        ax, axn = abs(x), abs(xn)
        tol = tol_rel * (axn if axn > ax else ax)
        if tol_floor > tol:
            tol = tol_floor
        if abs(xn - x) <= tol or (xh - xl) <= tol:
            return RootResult(xn, it)
        x = xn
    raise ConvergenceError(f"no convergence within {max_iter} iterations (bracket [{xl:g}, {xh:g}])")


def _fd_step(x, scale_floor):
    return max(abs(x), scale_floor) * 1e-6


def fd_derivative(f, x, scale_floor=1.0):
    """Derivative of ``f`` at ``x`` by central differences.

    Step ``h = max(|x|, scale_floor) * 1e-6``, Richardson-extrapolated
    once, leaving a truncation error of order h^4.
    """
    h = _fd_step(x, scale_floor)
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    h2 = 0.5 * h
    d2 = (f(x + h2) - f(x - h2)) / (2.0 * h2)
    return (4.0 * d2 - d1) / 3.0


def fd_partial(f, point, arg, scale_floor=1.0):
    """Partial derivative of ``f(*point)`` with respect to ``point[arg]``."""
    point = tuple(point)

    def along(x):
        p = list(point)
        p[arg] = x
        return f(*p)

    return fd_derivative(along, point[arg], scale_floor)


def _bracket_start(p_fn, rho, T_guess):
    """The first bracket of a temperature inversion at ``rho``, T_guess (1 -/+ 1e-4), with ``p_fn`` at its ends."""
    lo = T_guess * (1.0 - 1e-4)
    hi = T_guess * (1.0 + 1e-4)
    return lo, hi, p_fn(rho, lo), p_fn(rho, hi)


def _invert_temperature(p_fn, rho, P_target, T_guess, start=None):
    """Solve ``p_fn(rho, T) = P_target`` for T near ``T_guess``.

    Assumes pressure strictly increasing in temperature, which holds for
    every model in this library.  ``start``, the :func:`_bracket_start` of
    ``(rho, T_guess)``, lets inversions to several targets share its two
    pressures.  Each end widens (halving or doubling T) until the bracket
    holds the target; the residuals at its final ends seed the solve.
    """

    def g(T):
        return p_fn(rho, T) - P_target, None

    lo, hi, p_lo, p_hi = _bracket_start(p_fn, rho, T_guess) if start is None else start
    g_lo = p_lo - P_target
    for _ in range(79):
        if g_lo <= 0.0:
            break
        lo *= 0.5
        g_lo = g(lo)[0]
    if not g_lo <= 0.0:
        raise NumericalError("temperature inversion failed to bracket from below")
    g_hi = p_hi - P_target
    for _ in range(79):
        if g_hi >= 0.0:
            break
        hi *= 2.0
        g_hi = g(hi)[0]
    if not g_hi >= 0.0:
        raise NumericalError("temperature inversion failed to bracket from above")
    return solve_monotone(g, lo, hi, tol_rel=1e-13, max_iter=200, ends=(g_lo, g_hi)).root


class FdPartials(NamedTuple):
    """Partials of an EOS at (rho, T) by differences, and c^2 = (Cp/Cv) P_rho."""

    rho: float
    P: float
    e_T: float
    e_rho: float
    P_T: float
    c2: float

    def convexity(self) -> ConvexityReport:
        """The four convexity criteria in density form, from these partials alone."""
        rho, P, eT, erho, pT, c2 = self
        m = P - rho**2 * erho
        criteria = (rho**2 * c2, m / (pT * eT), -m / eT,
                    m / eT**2 * ((eT / pT) * rho**2 * c2 + rho**2 * erho - P))
        return ConvexityReport(convex=convexity_signs_ok(criteria), criteria=criteria)


def _fd_partials(e_fn, p_fn, rho, T) -> FdPartials:
    P = p_fn(rho, T)
    eT = fd_derivative(lambda t: e_fn(rho, t), T, STEP_FLOOR)
    erho = fd_derivative(lambda r: e_fn(r, T), rho, STEP_FLOOR)
    pT = fd_derivative(lambda t: p_fn(rho, t), T, STEP_FLOOR)
    prho = fd_derivative(lambda r: p_fn(r, T), rho, STEP_FLOOR)
    cp = (eT + pT / rho) - (erho + prho / rho - P / rho**2) * pT / prho
    return FdPartials(rho, P, eT, erho, pT, (cp / eT) * prho)


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

    Parameters
    ----------
    e_fn, p_fn : callable
        ``e(rho, T)`` in J/kg and ``P(rho, T)`` in Pa.
    rho, T : float
        Evaluation point.
    """
    partials = _fd_partials(e_fn, p_fn, rho, T)
    P = partials.P

    dedrho_P = fd_derivative(lambda r: e_fn(r, _invert_temperature(p_fn, r, P, T)), rho, STEP_FLOOR)
    # the four inversions at constant density share one first bracket
    start = _bracket_start(p_fn, rho, T)
    dedP_rho = fd_derivative(lambda p: e_fn(rho, _invert_temperature(p_fn, rho, p, T, start)), P, STEP_FLOOR)
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
    pass (six differences) serves every check.  Each difference step is
    relative to its value, 1e-6 |x|, down to the smallest normal float.
    Raises :class:`DomainError` at a point outside the domain, at a grid
    density or temperature that does not exceed its step (a subnormal value),
    at a convex point whose closed-form criteria underflow to zero, or when
    no point is left; raises :class:`NumericalError` where the oracle
    or a residual is not finite.
    """
    laws = LAWS[params.model]
    pressure = laws.pressure
    e_fn, p_fn = (lambda r, t: virial_cvt.cvt_energy(params, t)), (lambda r, t: pressure(params, r, t))
    maxwell = sound_speed = forms = 0.0
    points = skipped = mismatches = violations = 0
    for rho in rhos:
        if params.b is not None and rho > 0.0 and 1.0 / rho <= params.b * (1.0 + 1e-2):
            skipped += 1
            continue
        for T in temperatures:
            P = p_fn(rho, T)
            points += 1
            _require_above_step("density", rho, "kg/m3")
            _require_above_step("temperature", T, "K")
            closed = laws.convexity(params, rho, P, T)
            # a convex point whose criteria underflow (P^2 or rho P below the smallest float)
            # shows no sign to audit, and calling it a violation would fail a convex record
            if closed.convex and 0.0 in closed.criteria:
                raise DomainError(f"the closed-form convexity criteria underflow to zero at rho={rho!r}, T={T!r}")
            if not (closed.convex and convexity_signs_ok(closed.criteria)):
                violations += 1
                continue
            oracle = sound_speed_fd_oracle(e_fn, p_fn, rho, T)
            d = oracle.partials
            c2 = oracle.c2_energy
            if not 0.0 < c2 < math.inf:
                raise NumericalError(f"the difference oracle gives c^2 = {c2!r} at rho={rho!r}, T={T!r}")
            c = c2**0.5
            r_maxwell = abs(d.e_rho * rho * rho + T * d.P_T - P) / P
            r_c = abs(laws.sound_speed(params, rho, T, P) - c) / c
            r_forms = oracle.rel_disagreement
            # max() would drop a nan; each residual is >= 0, so < inf means finite
            if not (r_maxwell < math.inf and r_c < math.inf and r_forms < math.inf):
                raise NumericalError(f"an audit residual is not finite at rho={rho!r}, T={T!r}")
            maxwell = max(maxwell, r_maxwell)
            sound_speed = max(sound_speed, r_c)
            forms = max(forms, r_forms)
            fd = d.convexity()
            if not (fd.convex and all((x > 0.0) == (y > 0.0) for x, y in zip(closed.criteria, fd.criteria))):
                mismatches += 1
    if points == 0:
        raise DomainError(f"no point to evaluate, all {skipped} densities lie at or too near the covolume")
    return AuditReport(points, skipped, maxwell, sound_speed, forms, mismatches, violations)
