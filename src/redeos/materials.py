"""Material database and file ingestion.

Database format: a line-oriented sectioned text file.  Records start with
a header line

    [material "NAME" model MODEL]

with MODEL one of NA, VO1 or VO1_CVT, followed by ``key = value`` lines.
Keys carry the file units: R and Cv in J/(kg K), covolume b and virial
coefficient a in m3/kg, energies in kJ/kg (keys ``q_kJ`` and
``e_s_eff_kJ``, each read as the decimal it states times 1000, rounded
once, and written so that it reads back exactly), temperatures in K,
``rho_range`` as two space-separated densities in kg/m3, and a free-text
``note`` for provenance.  Closed-bomb CSV format: header
``rho_kg_m3,pmax_MPa`` and one point per line.  Inert-run CSV format:
header ``Y,tflame_K``.  Both formats share one reader: UTF-8 text, a
leading byte-order mark allowed, blank lines and ``#`` lines skipped.
Every number must be finite, also once converted to SI units.
"""

from __future__ import annotations

import math
import os
import re
from functools import cache
from typing import NamedTuple

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

#: Scalar keys every record may carry -> GasParams field; a key ending in ``_kJ`` holds an energy in kJ/kg
_SCALAR_KEYS = {"q_kJ": "q", "e_s_eff_kJ": "e_s_eff", "T_flame": "T_flame", "gamma": "gamma_cal"}
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
        self.records[(params.name, params.model)] = DbRecord(params=params, note=note)

    def get(self, name: str, model: Model) -> GasParams:
        try:
            return self.records[(name, Model(model))].params
        except KeyError:
            raise ValidationError(f"material {name!r} with model {model} is not in the database") from None

    def __len__(self):
        return len(self.records)


def _joules(kj_text):
    """A finite kJ text in J: its point moved three places, so that ``float`` rounds the decimal it states once."""
    mantissa, e, exponent = kj_text.lower().partition("e")
    whole, _, fraction = mantissa.replace("_", "").partition(".")
    fraction = fraction.ljust(3, "0")
    return float(f"{whole}{fraction[:3]}.{fraction[3:]}{e}{exponent}")


def _kj_text(joules):
    """The kJ text that :func:`_joules` reads back as ``joules`` exactly: ``joules / 1e3`` when it
    does, else ``repr(joules)`` with the point moved three places."""
    text = repr(joules / 1e3)
    if _joules(text) != joules:  # the quotient rounded: joules' own digits, with any exponent they carry
        digits, e, exponent = repr(joules).partition("e")
        whole, _, fraction = digits.partition(".")
        sign, whole = "-" * whole.startswith("-"), whole.lstrip("-").rjust(4, "0")
        text = f"{sign}{whole[:-3]}.{whole[-3:]}{fraction}{e}{exponent}"
    return text


def _number_in_si(lineno, key, text, unit=1.0):
    """The number ``text`` of a file's ``key`` in SI units, refused unless finite there; a kJ key's
    text reads through :func:`_joules`, any other's is multiplied by ``unit``."""
    try:
        value = float(text)
        value = _joules(text) if key.endswith("_kJ") and abs(value) < math.inf else value * unit
    except ValueError:
        raise ParseError(f"line {lineno}: value of {key!r} is not a number: {text!r}") from None
    if abs(value) < math.inf:
        return value
    # nan or inf as written, or once converted to SI units
    raise ValidationError(f"line {lineno}: value of {key!r} is not finite in SI units: {text!r}")


def _content_lines(path):
    """The ``(line number, stripped line)`` of each line of a text file that is neither blank nor a
    ``#`` comment; :class:`ParseError` naming ``path`` unless it is UTF-8, a byte-order mark allowed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")  # decoded first, so an error's byte counts from the file's start
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.strip()) and not line.startswith("#")]


def load_material_db(path) -> MaterialDatabase:
    db = MaterialDatabase.empty()
    name = model = None

    def flush():
        if name is None:
            return
        for key in ("R",) + MODEL_FIELDS[model]:
            if key not in fields:
                raise ParseError(f"record {name!r} ({model}) is missing key {key!r}")
        kwargs = {_SCALAR_KEYS.get(key, key): value for key, value in fields.items() if key != "note"}
        params = GasParams(name=name, model=model, **kwargs)
        if (name, model) in db.records:
            raise ParseError(f"duplicate record for material {name!r} model {model}")
        db.add(params, note=fields.get("note", ""))

    for lineno, line in _content_lines(path):
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
        key, value = key.strip(), value.strip()
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
            value = _number_in_si(lineno, key, value)
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
        for key, field in _SCALAR_KEYS.items():
            if (value := getattr(p, field)) is not None:
                lines.append(f"{key} = {_kj_text(value) if key.endswith('_kJ') else repr(value)}")
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
    return load_material_db(os.path.join(os.path.dirname(__file__), "data", "materials.eosdb"))


def _parse_csv_rows(path, header: str, units):
    """The ``(line number, values)`` of each data row in file units; each stays finite in SI ``units``."""
    names, lines, rows = header.split(","), _content_lines(path), []
    if lines and lines[0][1].replace(" ", "") != header:
        raise ParseError(f"line {lines[0][0]}: expected header {header!r}, got {lines[0][1]!r}")
    for lineno, line in lines[1:]:
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
