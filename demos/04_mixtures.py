"""Mixtures of gas products from two reactive materials.

Components share temperature and pressure (ideally mixed, frozen
composition; all materials must carry the same oxygen-balance sign so no
post-combustion occurs between their gases).  The Noble-Abel mixture
closes in weighted coefficients and stays explicit; the virial mixture
couples the component densities through the pressure, which takes a
safeguarded Newton solve, and rewards that cost with better extrapolation.
"""

import redeos as rx

db = rx.builtin_database()
nc_na, rdx_na = db.get("NC-13", rx.Model.NA), db.get("RDX", rx.Model.NA)
nc_vo, rdx_vo = db.get("NC-13", rx.Model.VO1), db.get("RDX", rx.Model.VO1)

print("NC-13 + RDX mixtures at 200 kg/m3 (both negative oxygen balance)")
print(f"{'Y_RDX':>6s}{'T_flame (K)':>12s}{'P_MNA (MPa)':>13s}{'P_MVO1 (MPa)':>14s}"
      f"{'c_MNA (m/s)':>13s}{'c_MVO1 (m/s)':>14s}{'iters':>6s}")
for k in range(6):
    y = 0.1 * k
    mix_na = rx.MixtureSpec(((nc_na, 1.0 - y), (rdx_na, y)), oxygen_balance_declared_uniform=True)
    mix_vo = rx.MixtureSpec(((nc_vo, 1.0 - y), (rdx_vo, y)), oxygen_balance_declared_uniform=True)
    t_flame = rx.mixture_flame_temperature(mix_na)
    p_mna, _ = rx.mna_pressure(mix_na, 1.0 / 200.0, mix_na.mixed.e_s_eff)
    c_mna = rx.mna_sound_speed(mix_na, p_mna, 1.0 / 200.0)
    t_flame_vo = rx.mixture_flame_temperature(mix_vo)
    sol = rx.mvo1_pressure(mix_vo, 200.0, t_flame_vo)
    c_mvo = rx.mvo1_sound_speed(mix_vo, sol.P, t_flame_vo)
    print(f"{y:6.1f}{t_flame:12.1f}{p_mna / 1e6:13.1f}{sol.P / 1e6:14.1f}"
          f"{c_mna:13.1f}{c_mvo:14.1f}{sol.iterations:6d}")

print()
print("Extrapolating the 50/50 mixture to higher loading densities:")
mix_na = rx.MixtureSpec(((nc_na, 0.5), (rdx_na, 0.5)), oxygen_balance_declared_uniform=True)
mix_vo = rx.MixtureSpec(((nc_vo, 0.5), (rdx_vo, 0.5)), oxygen_balance_declared_uniform=True)
t_na = rx.mixture_flame_temperature(mix_na)
t_vo = rx.mixture_flame_temperature(mix_vo)
print(f"{'rho (kg/m3)':>12s}{'P_MNA (MPa)':>13s}{'P_MVO1 (MPa)':>14s}{'gap (MPa)':>11s}")
for rho in (100.0, 200.0, 300.0, 400.0):
    p_na = rx.mna_pressure_vt(mix_na, 1.0 / rho, t_na)
    p_vo = rx.mvo1_pressure(mix_vo, rho, t_vo).P
    print(f"{rho:12.0f}{p_na / 1e6:13.1f}{p_vo / 1e6:14.1f}{(p_na - p_vo) / 1e6:11.1f}")

print()
print("Component densities at the solved mixture state (400 kg/m3):")
sol = rx.mvo1_pressure(mix_vo, 400.0, t_vo)
for (gas, y), rho_k in zip(mix_vo.components, sol.rho_components):
    print(f"  {gas.name:6s} Y = {y:.1f}  rho_k = {rho_k:7.2f} kg/m3")
print(f"  volume closure residual: {sol.residual_rel:.2e} (relative)")
print()
print("A flow solver's cell update of the 50/50 virial mixture: P, T and c from")
print("(rho, e) in one pressure solve, mvo1_closure_from_rho_e:")
print(f"{'rho (kg/m3)':>12s}{'e (kJ/kg)':>11s}{'T (K)':>9s}{'P (MPa)':>10s}{'c (m/s)':>10s}")
for rho, e in ((50.0, 4000e3), (100.0, 5000e3), (200.0, 5500e3), (300.0, 6000e3)):
    P, T, c = rx.mvo1_closure_from_rho_e(mix_vo, rho, e)
    print(f"{rho:12.0f}{e / 1e3:11.0f}{T:9.1f}{P / 1e6:10.2f}{c:10.1f}")
print()
print("Same tables from the command line:")
print("  eos mix-sweep NC-13+RDX --model mvo1 --rho 200 \\")
print("      --fraction-sweep 0:0.5:0.1 --same-oxygen-balance")
