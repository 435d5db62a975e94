"""Verification machinery: compatibility, sound-speed oracle, convexity.

Every model in the library ships with three independent self-checks:

* the thermal/caloric compatibility residual (a Maxwell relation) must
  vanish to rounding,
* the closed-form sound speed must match a finite-difference oracle that
  knows nothing about the closed forms, and
* the four convexity criteria evaluated in closed form must agree in
  sign with a generic difference-based audit.
"""

import math

import redeos as rx

db = rx.builtin_database()
vo1 = db.get("NC-13", rx.Model.VO1)

e_fn = lambda r, t: rx.cvt_energy(vo1, t)
p_fn = lambda r, t: rx.vo1_pressure(vo1, r, t)

print("All three checks over a grid, maxima against their limits:")
report = rx.audit_record(vo1, (50.0, 200.0, 600.0), (1500.0, 3000.0, 4500.0))
for label, value, limit in zip(("compatibility |res|/P", "sound speed, closed vs oracle", "oracle forms"),
                               report.residuals, report.LIMITS):
    print(f"  {label:30s}{value:10.2e}  (limit {limit:g})")
print(f"  {report.points} points, {report.sign_mismatches} convexity sign mismatches, "
      f"{report.violations} violations: {'PASS' if report.passed else 'FAIL'}")

print()
print("Sound speed: closed form vs the two difference-oracle routes")
print(f"{'rho':>6s}{'closed (m/s)':>13s}{'oracle A':>10s}{'oracle B':>10s}{'spread':>10s}")
for rho in (100.0, 400.0):
    P = p_fn(rho, 3275.0)
    oracle = rx.sound_speed_fd_oracle(e_fn, p_fn, rho, 3275.0)
    c_closed = rx.vo1_sound_speed(vo1, P, rho, 3275.0)
    print(f"{rho:6.0f}{c_closed:13.3f}{math.sqrt(oracle.c2_energy):10.3f}"
          f"{math.sqrt(oracle.c2_gamma):10.3f}{oracle.rel_disagreement:10.2e}")

print()
print("Convexity criteria, closed form vs difference audit (signs must agree):")
rho, T = 100.0, 3275.0
closed = rx.vo1_convexity(vo1, rho, p_fn(rho, T), T)
fd = rx.convexity_audit_fd(e_fn, p_fn, rho, T)
print(f"{'criterion':>10s}{'closed':>14s}{'audit':>14s}")
for label, x, y in zip("abcd", closed.criteria, fd.criteria):
    print(f"{label:>10s}{x:14.4g}{y:14.4g}")
print(f"verdicts: closed = {closed.convex}, audit = {fd.convex}")

print()
print("A constructed non-convex record (a < 0) trips both routes:")
probe = rx.GasParams.virial("probe", R=322.0, a=-0.02, Cv=1640.5)
report = rx.vo1_convexity(probe, 100.0, 1e8, 3000.0)
print(f"  a rho = {probe.a * 100.0:.1f}: convex = {report.convex}")
print()
print("The same audit from the command line:")
print("  eos audit NC-13 --model vo1")
