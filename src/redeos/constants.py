"""Physical constants and unit conventions.

Everything inside the library is strict SI: Pa, K, kg/m3, m3/kg, J/kg,
J/(kg K).  The command-line layer converts to and from MPa and kJ/kg at
the boundary; no other module does unit conversion.
"""

#: Universal gas constant, J/(mol K) (CODATA 2018).
R_UNIVERSAL = 8.314462618

#: Reference temperature for energy and entropy anchors, K.
T_REF = 298.15

#: Reference pressure for the entropy anchor, Pa.
P_REF = 101325.0
