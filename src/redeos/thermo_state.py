"""The full state, the library's one dataclass: it loads with the first full state, not with the library."""

from dataclasses import dataclass
from math import inf as _INF  # the checks read a global, not math's attribute, on every state built

from .errors import ValidationError
from .types import _finite, _positive


@dataclass(frozen=True, init=False)
class ThermoState:
    """One thermodynamically consistent point for a gas or a mixture.

    Entropy is ``None`` for models without a closed-form entropy (the
    Cv(T) virial variant).  P, T, rho, c, h, gamma and a given s are finite.

    Every state builder returns one, so the constructor is written by hand
    (``init=False``): it stores the ten fields in one write and checks a
    valid state with one comparison chain.  ``dataclasses.replace`` and the
    other dataclass helpers still apply.
    """

    P: float               # Pa
    T: float               # K
    rho: float             # kg/m3
    v: float               # m3/kg
    e: float               # J/kg
    h: float               # J/kg
    s: float | None        # J/(kg K)
    c: float               # m/s
    Cp: float              # J/(kg K)
    gamma: float

    def __init__(self, P, T, rho, v, e, h, s, c, Cp, gamma):
        self.__dict__.update(P=P, T=T, rho=rho, v=v, e=e, h=h, s=s, c=c, Cp=Cp, gamma=gamma)
        try:
            if (0.0 < P < _INF and 0.0 < T < _INF and 0.0 < rho < _INF
                    and abs(v * rho - 1.0) <= 1e-12 and 1.0 < gamma < _INF and 0.0 < c < _INF
                    and abs(h) < _INF and (s is None or abs(s) < _INF)):
                return
        except TypeError:  # a None field, which the checks below name
            pass
        self._validate()  # the failure, with the message of the first failing check

    def _validate(self):
        _positive("P", self.P)
        _positive("T", self.T)
        _positive("rho", self.rho)
        if abs(self.v * self.rho - 1.0) > 1e-12:
            raise ValidationError(f"v and rho are inconsistent: v*rho = {self.v * self.rho!r}")
        if not self.gamma > 1.0:
            raise ValidationError(f"gamma must exceed 1, got {self.gamma!r}")
        _positive("c", self.c)
        for name in ("gamma", "h") if self.s is None else ("gamma", "h", "s"):
            _finite(name, getattr(self, name))
