"""Material database and file ingestion.

Database format: a line-oriented sectioned text file.  Records start with
a header line

    [material "NAME" model MODEL]

with MODEL one of NA, VO1 or VO1_CVT, followed by ``key = value`` lines.
Blank lines and lines starting with ``#`` are ignored.  Keys carry the
file units: R and Cv in J/(kg K), covolume b and virial coefficient a in
m3/kg, energies in kJ/kg (keys ``q_kJ`` and ``e_s_eff_kJ``), temperatures
in K, ``rho_range`` as two space-separated densities in kg/m3, and a
free-text ``note`` for provenance.  Every number, in a database or a CSV
file, must be finite, also once converted to SI units.

Closed-bomb CSV format: header ``rho_kg_m3,pmax_MPa`` and one point per
line.  Inert-run CSV format: header ``Y,tflame_K``.
"""

from __future__ import annotations

import importlib.resources
import math
import re
from functools import cache
from typing import Iterable, NamedTuple

from .errors import ParseError, ValidationError
from .types import MODEL_FIELDS, R_UNIVERSAL, ClosedBombPoint, GasParams, InertGasParams, InertRunRecord, Model, _Record

#: Noble inert species usable in Cv(T) calibration runs.  Argon's heat
#: capacity follows the usual monatomic tabulations; xenon is derived
#: from the monatomic relation Cv = (3/2) R_universal / W.
INERT_GASES = {
    "argon": InertGasParams("argon", Cv_in=312.2, W_in=39.95),
    "xenon": InertGasParams("xenon", Cv_in=1.5 * R_UNIVERSAL / 0.131293, W_in=131.293),
}

_HEADER_RE = re.compile(r'^\[material\s+"([^"]+)"\s+model\s+(\S+)\]$')

#: Scalar keys every record may carry -> (GasParams field, file unit in SI)
_SCALAR_KEYS = {"q_kJ": ("q", 1e3), "e_s_eff_kJ": ("e_s_eff", 1e3), "T_flame": ("T_flame", 1.0),
                "gamma": ("gamma_cal", 1.0)}
_COMMON_KEYS = ("R", *_SCALAR_KEYS, "rho_range", "note")
_MODEL_KEYS = {model: fields + _COMMON_KEYS for model, fields in MODEL_FIELDS.items()}


class DbRecord(NamedTuple):
    params: GasParams
    note: str


class MaterialDatabase(_Record):
    """Map from (material name, model) to a parameter record."""

    __match_args__ = ("records",)
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None  # mutable: no hash

    def __init__(self, records: dict[tuple[str, Model], DbRecord]):
        self.records = records

    @classmethod
    def empty(cls):
        return cls(records={})

    def add(self, params: GasParams, note: str = ""):
        key = (params.name, params.model)
        self.records[key] = DbRecord(params=params, note=note)

    def get(self, name: str, model: Model) -> GasParams:
        try:
            return self.records[(name, Model(model))].params
        except KeyError:
            raise ValidationError(f"material {name!r} with model {model} is not in the database") from None

    def __len__(self):
        return len(self.records)


def _number_in_si(lineno, key, text, unit=1.0):
    """The number ``text`` of a file's ``key`` in SI units, refused unless finite there."""
    try:
        value = float(text) * unit
    except ValueError:
        raise ParseError(f"line {lineno}: value of {key!r} is not a number: {text!r}") from None
    if abs(value) < math.inf:
        return value
    # nan or inf as written, or once converted to SI units
    raise ValidationError(f"line {lineno}: value of {key!r} is not finite in SI units: {text!r}")


def _read_lines(path):
    """The lines of a text file; :class:`ParseError` naming ``path`` unless it is UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_material_db(path) -> MaterialDatabase:
    return _parse_material_db(_read_lines(path))


def _parse_material_db(lines: Iterable[str]) -> MaterialDatabase:
    db = MaterialDatabase.empty()
    name = model = None

    def flush():
        if name is None:
            return
        for key in ("R",) + MODEL_FIELDS[model]:
            if key not in fields:
                raise ParseError(f"record {name!r} ({model}) is missing key {key!r}")
        kwargs = {_SCALAR_KEYS[key][0] if key in _SCALAR_KEYS else key: value
                  for key, value in fields.items() if key != "note"}
        params = GasParams(name=name, model=model, **kwargs)
        if (name, model) in db.records:
            raise ParseError(f"duplicate record for material {name!r} model {model}")
        db.records[(name, model)] = DbRecord(params=params, note=fields.get("note", ""))

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            m = _HEADER_RE.match(line)
            if not m:
                raise ParseError(f"line {lineno}: malformed section header {line!r}")
            flush()
            name = m.group(1)
            try:
                model = Model(m.group(2))
            except ValidationError:
                raise ParseError(f"line {lineno}: unknown model {m.group(2)!r}") from None
            fields = {}
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        if name is None:
            raise ParseError(f"line {lineno}: key outside any [material ...] section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _MODEL_KEYS[model]:
            raise ParseError(f"line {lineno}: unknown key {key!r} for model {model}")
        if key in fields:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        if key == "rho_range":
            parts = value.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: rho_range needs two values, got {value!r}")
            value = (_number_in_si(lineno, key, parts[0]), _number_in_si(lineno, key, parts[1]))
        elif key != "note":
            value = _number_in_si(lineno, key, value, _SCALAR_KEYS[key][1] if key in _SCALAR_KEYS else 1.0)
        fields[key] = value
    flush()
    return db


def save_material_db(path, db: MaterialDatabase):
    """Write the database for load to read back; a name or note it could not read raises ValidationError first."""
    lines = []
    for (name, model) in sorted(db.records, key=lambda k: (k[0], k[1].value)):
        record = db.records[(name, model)]
        p = record.params
        if not (isinstance(name, str) and '"' not in name and name.splitlines() == [name]):
            raise ValidationError(f"record {name!r} ({model}): a saved name is a one-line string without '\"'")
        if record.note and not (isinstance(record.note, str) and record.note.strip().splitlines() == [record.note]):
            raise ValidationError(f"record {name!r} ({model}): a saved note is one unpadded line, got {record.note!r}")
        lines.append(f'[material "{name}" model {model}]')
        lines.append(f"R = {p.R!r}")
        lines.extend(f"{key} = {getattr(p, key)!r}" for key in MODEL_FIELDS[model])
        for key, (field, unit) in _SCALAR_KEYS.items():
            if (value := getattr(p, field)) is not None:
                lines.append(f"{key} = {value / unit!r}")
        if p.rho_range is not None:
            lines.append(f"rho_range = {p.rho_range[0]!r} {p.rho_range[1]!r}")
        if record.note:
            lines.append(f"note = {record.note}")
        lines.append("")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))


@cache
def builtin_database() -> MaterialDatabase:
    """Packaged database of calibrated materials, read once."""
    text = importlib.resources.files("redeos").joinpath("data/materials.eosdb").read_text("utf-8")
    return _parse_material_db(text.splitlines())


def _parse_csv_rows(path, header: str, units):
    """The ``(line number, values)`` of each data row in file units; each stays finite in SI ``units``."""
    names = header.split(",")
    rows = []
    seen_header = False
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not seen_header:
            if line.replace(" ", "") != header:
                raise ParseError(f"line {lineno}: expected header {header!r}, got {line!r}")
            seen_header = True
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != len(names):
            raise ParseError(f"line {lineno}: expected {len(names)} fields, got {len(parts)}")
        values = []
        for col, (name, unit, part) in enumerate(zip(names, units, parts), start=1):
            try:
                values.append(float(part))
            except ValueError:
                raise ParseError(f"line {lineno}, column {col}: not a number: {part!r}") from None
            _number_in_si(lineno, name, part, unit)  # refused unless finite in SI units too
        rows.append((lineno, values))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return rows


def load_closed_bomb_csv(path) -> list[ClosedBombPoint]:
    """Closed-bomb points from a ``rho_kg_m3,pmax_MPa`` CSV file."""
    points = []
    for lineno, (rho, pmax_mpa) in _parse_csv_rows(path, "rho_kg_m3,pmax_MPa", (1.0, 1e6)):
        if rho <= 0.0:
            raise ValidationError(f"line {lineno}: loading density must be positive, got {rho!r}")
        if 1.0 / rho == math.inf:
            raise ValidationError(f"line {lineno}: loading density {rho!r} kg/m3 has no finite specific volume")
        if pmax_mpa <= 0.0:
            raise ValidationError(f"line {lineno}: peak pressure must be positive, got {pmax_mpa!r}")
        points.append(ClosedBombPoint(rho_load=rho, P_max=pmax_mpa * 1e6))
    return points


def load_inert_runs_csv(path) -> list[InertRunRecord]:
    """Inert-diluted runs from a ``Y,tflame_K`` CSV file."""
    runs = []
    for lineno, (y, tflame) in _parse_csv_rows(path, "Y,tflame_K", (1.0, 1.0)):
        if not 0.0 < y <= 1.0:
            raise ValidationError(f"line {lineno}: mass fraction must lie in (0,1], got {y!r}")
        if tflame <= 0.0:
            raise ValidationError(f"line {lineno}: flame temperature must be positive, got {tflame!r}")
        runs.append(InertRunRecord(Y=y, T_flame=tflame))
    return runs
