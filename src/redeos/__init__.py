"""redeos: reduced real-gas equations of state for combustion product gases.

Noble-Abel and first-order virial models (the latter also with a linearly
temperature-dependent specific heat), their two-point closed-bomb
calibration, mixture extensions in temperature and pressure equilibrium,
entropy and convexity machinery, and finite-difference verification
oracles.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .constants import P_REF, R_UNIVERSAL, T_REF
from .errors import (
    BracketError,
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    EosError,
    ModelMismatchError,
    NumericalError,
    ParseError,
    RankDeficiencyError,
    ValidationError,
)
from .types import (
    ClosedBombPoint,
    ConvexityReport,
    DEFAULT_ENTROPY_REF,
    EntropyReference,
    FrozennessReport,
    GasParams,
    InertGasParams,
    InertRunRecord,
    MixtureSpec,
    Model,
    convexity_signs_ok,
    require_model,
)
from .noble_abel import (
    na_convexity,
    na_cp,
    na_entropy,
    na_entropy_vt,
    na_gamma,
    na_pressure_vt,
    na_sound_speed,
    na_volume,
)
from .virial import (
    vo1_convexity,
    vo1_cp,
    vo1_density,
    vo1_entropy,
    vo1_entropy_dP,
    vo1_pressure,
    vo1_sound_speed,
)
from .virial_cvt import (
    cvt_cv,
    cvt_effective_energy,
    cvt_energy,
    cvt_temperature,
)
from .state import (
    Closure,
    closure_from_rho_T,
    closure_from_rho_e,
    state_from_P_T,
    state_from_rho_T,
    state_from_rho_e,
)
from .materials import (
    INERT_GASES,
    MaterialDatabase,
    builtin_database,
    load_closed_bomb_csv,
    load_inert_runs_csv,
    load_material_db,
    save_material_db,
)

#: Exports of the modules that only some commands run, by module.  Each is imported on first access of a
#: name or by its first user, so `import redeos` runs none of them.  `thermo_state` holds `ThermoState`, the
#: one dataclass (the other records are plain frozen classes), so only a full state imports `dataclasses`.
_LAZY_EXPORTS = {
    "calibration": (
        "ClosedBombPrediction",
        "LsqFit",
        "calibrate_cvt",
        "calibrate_na",
        "calibrate_vo1",
        "dilution_flame_temperature",
        "frozenness_check",
        "lsq_fit_3",
        "predict_closed_bomb",
    ),
    "mixture": (
        "Mvo1Solution",
        "mixture_flame_temperature",
        "mna_coefficients",
        "mna_pressure",
        "mna_pressure_vt",
        "mna_sound_speed",
        "mvo1_closure_from_rho_T",
        "mvo1_closure_from_rho_e",
        "mvo1_pressure",
        "mvo1_pressure_from_energy",
        "mvo1_sound_speed",
    ),
    "numerics": (
        "AuditReport",
        "OracleSoundSpeed",
        "RootResult",
        "audit_record",
        "convexity_audit_fd",
        "fd_derivative",
        "fd_partial",
        "solve_monotone",
        "sound_speed_fd_oracle",
    ),
    "thermo_state": ("ThermoState",),
}
_HOME = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
