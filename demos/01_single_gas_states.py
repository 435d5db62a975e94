"""Evaluate single-gas states with the two reduced models.

The Noble-Abel law stiffens the ideal gas through an excluded covolume,
the first-order virial law through a density-proportional compressibility
correction.  Both are calibrated to the same closed-bomb data, so they
agree inside the calibration range and drift apart outside it.
"""

import redeos as rx

db = rx.builtin_database()
na = db.get("NC-13", rx.Model.NA)
vo1 = db.get("NC-13", rx.Model.VO1)

print("NC-13 combustion gases at the calibration state (100 kg/m3, 3275 K)")
print(f"{'':14s}{'Noble-Abel':>14s}{'virial':>14s}")
st_na = rx.state_from_rho_T(na, 100.0, 3275.0)
st_vo = rx.state_from_rho_T(vo1, 100.0, 3275.0)
rows = [
    ("P (MPa)", st_na.P / 1e6, st_vo.P / 1e6),
    ("e (kJ/kg)", st_na.e / 1e3, st_vo.e / 1e3),
    ("h (kJ/kg)", st_na.h / 1e3, st_vo.h / 1e3),
    ("s (J/kg/K)", st_na.s, st_vo.s),
    ("c (m/s)", st_na.c, st_vo.c),
    ("Cp (J/kg/K)", st_na.Cp, st_vo.Cp),
    ("gamma", st_na.gamma, st_vo.gamma),
]
for label, a, b in rows:
    print(f"{label:14s}{a:14.4f}{b:14.4f}")

print()
print("Compressibility factor Z = P/(rho R T) against density")
print(f"{'rho (kg/m3)':>12s}{'Z Noble-Abel':>14s}{'Z virial':>12s}")
for rho in (50.0, 100.0, 200.0, 400.0, 600.0):
    z_na = rx.na_pressure_vt(na, 1.0 / rho, 3275.0) / (rho * na.R * 3275.0)
    z_vo = rx.vo1_pressure(vo1, rho, 3275.0) / (rho * vo1.R * 3275.0)
    print(f"{rho:12.0f}{z_na:14.4f}{z_vo:12.4f}")

print()
print("Both models are exact where they were calibrated; at 400 kg/m3 the")
print("covolume law is already far stiffer than the virial law:")
p_na = rx.na_pressure_vt(na, 1.0 / 400.0, 3275.0)
p_vo = rx.vo1_pressure(vo1, 400.0, 3275.0)
print(f"  P_NA  = {p_na / 1e6:8.1f} MPa")
print(f"  P_VO1 = {p_vo / 1e6:8.1f} MPa   (gap {abs(p_na - p_vo) / 1e6:.1f} MPa)")

print()
print("A flow solver asks each cell only for P and the sound speed c from its")
print("density and energy; closure_from_rho_e answers without a full state:")
print(f"{'rho (kg/m3)':>12s}{'e (kJ/kg)':>11s}{'model':>8s}{'T (K)':>9s}{'P (MPa)':>10s}{'c (m/s)':>10s}")
cells = [(50.0, 4000e3), (100.0, 5000e3), (200.0, 5360e3), (300.0, 6000e3)]
for params, label in ((na, "NA"), (vo1, "VO1")):
    for rho, e in cells:
        P, T, c = rx.closure_from_rho_e(params, rho, e)
        print(f"{rho:12.0f}{e / 1e3:11.0f}{label:>8s}{T:9.1f}{P / 1e6:10.2f}{c:10.1f}")
