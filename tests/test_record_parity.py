"""The validated records behave as the frozen dataclasses they replaced.

`GasParams`, `InertGasParams`, `ClosedBombPoint`, `MixtureSpec` and
`InertRunRecord` are plain frozen classes and `MaterialDatabase` a plain
class, so that importing the library skips `dataclasses`.  The reprs, hashes,
signatures and refusals below are those of the dataclass versions
(`tests/test_types.py::test_refusals_name_their_input` pins their messages).
`ThermoState` stays a dataclass and loads with the first full state; the
last tests check that every path to it reaches the one class.
"""

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import redeos as rx
from redeos import GasParams as G, Model as M

SRC = Path(rx.__file__).resolve().parents[1]

NA = G("x", "NA", 300.0, 1500.0, 0.001)
CVT = G.virial_cvt("y", R=300.0, a=0.002, Cv0=1400.0, c=0.06, q=-4e5, e_s_eff=3e6, T_flame=3000.0,
                   gamma_cal=1.25, rho_range=(100, 200))
_NA_REPR = ("GasParams(name='x', model=<Model.NA: 'NA'>, R=300.0, Cv=1500.0, b=0.001, a=None, Cv0=None, c=None, "
            "q=0.0, e_s_eff=None, T_flame=None, gamma_cal=None, rho_range=None)")

# (record, a copy built with keywords, a record that differs in one field, repr)
RECORDS = {
    "GasParams": (NA, G(name="x", model=M.NA, R=300.0, b=0.001, Cv=1500.0), G("x", "NA", 300.0, 1500.0, 0.002),
                  _NA_REPR),
    "GasParams-cvt": (CVT, G(name="y", model="VO1_CVT", R=300.0, a=0.002, Cv0=1400.0, c=0.06, q=-4e5, e_s_eff=3e6,
                             T_flame=3000.0, gamma_cal=1.25, rho_range=(100.0, 200.0)),
                      G.virial_cvt("y", R=300.0, a=0.002, Cv0=1400.0, c=0.06),
                      "GasParams(name='y', model=<Model.VO1_CVT: 'VO1_CVT'>, R=300.0, Cv=None, b=None, a=0.002, "
                      "Cv0=1400.0, c=0.06, q=-400000.0, e_s_eff=3000000.0, T_flame=3000.0, gamma_cal=1.25, "
                      "rho_range=(100.0, 200.0))"),
    "InertGasParams": (rx.InertGasParams("argon", 312.2, 39.95),
                       rx.InertGasParams(name="argon", Cv_in=312.2, W_in=39.95), rx.InertGasParams("argon", 312.2, 40.0),
                       "InertGasParams(name='argon', Cv_in=312.2, W_in=39.95)"),
    "ClosedBombPoint": (rx.ClosedBombPoint(100.0, 1e8), rx.ClosedBombPoint(P_max=1e8, rho_load=100.0),
                        rx.ClosedBombPoint(100.0, 2e8), "ClosedBombPoint(rho_load=100.0, P_max=100000000.0)"),
    "MixtureSpec": (rx.MixtureSpec(((NA, 1), (NA, 0)), True),
                    rx.MixtureSpec(components=[(NA, 1.0), (NA, 0.0)], oxygen_balance_declared_uniform=True),
                    rx.MixtureSpec(((NA, 1), (NA, 0))),
                    f"MixtureSpec(components=(({_NA_REPR}, 1.0), ({_NA_REPR}, 0.0)), "
                    "oxygen_balance_declared_uniform=True)"),
    "InertRunRecord": (rx.InertRunRecord(0.5, 3000.0), rx.InertRunRecord(T_flame=3000.0, Y=0.5),
                       rx.InertRunRecord(0.5, 3001.0), "InertRunRecord(Y=0.5, T_flame=3000.0)"),
}


@pytest.mark.parametrize("key", RECORDS)
def test_equality_hash_and_repr(key):
    record, twin, other, text = RECORDS[key]
    assert record == twin and not record != twin and hash(record) == hash(twin)
    assert record != other and not record == other
    assert record != tuple(getattr(record, name) for name in record.__match_args__)
    # a frozen dataclass hashes the tuple of its fields
    assert hash(record) == hash(tuple(getattr(record, name) for name in record.__match_args__))
    assert repr(record) == text
    assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)


def test_float_records_hash_as_pinned():
    assert hash(rx.ClosedBombPoint(100.0, 1e8)) == 8541833106043619453
    assert hash(rx.InertRunRecord(0.5, 3000.0)) == 5101295357995773460


_E = inspect.Parameter.empty  # no default


@pytest.mark.parametrize("cls, parameters", [
    (rx.GasParams, [("name", _E), ("model", _E), ("R", _E), ("Cv", None), ("b", None), ("a", None), ("Cv0", None),
                    ("c", None), ("q", 0.0), ("e_s_eff", None), ("T_flame", None), ("gamma_cal", None),
                    ("rho_range", None)]),
    (rx.InertGasParams, [("name", _E), ("Cv_in", _E), ("W_in", _E)]),
    (rx.ClosedBombPoint, [("rho_load", _E), ("P_max", _E)]),
    (rx.MixtureSpec, [("components", _E), ("oxygen_balance_declared_uniform", False)]),
    (rx.InertRunRecord, [("Y", _E), ("T_flame", _E)]),
    (rx.MaterialDatabase, [("records", _E)]),
])
def test_constructor_signature(cls, parameters):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == parameters
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    if cls is not rx.MaterialDatabase:
        assert cls.__match_args__ == tuple(name for name, _ in parameters)


def test_defaults_are_stored():
    assert (NA.a, NA.Cv0, NA.c, NA.q) == (None, None, None, 0.0)
    assert (NA.e_s_eff, NA.T_flame, NA.gamma_cal, NA.rho_range) == (None,) * 4
    assert NA.model is M.NA and NA.cv_law == (1500.0, 0.0) and CVT.cv_law == (1400.0, 0.06)
    assert CVT.rho_range == (100.0, 200.0) and type(CVT.rho_range[0]) is float
    assert rx.MixtureSpec(((NA, 1),)).oxygen_balance_declared_uniform is False


@pytest.mark.parametrize("key", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(key):
    record = RECORDS[key][0]
    field = record.__match_args__[0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, 1.0)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 1.0
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    assert repr(record) == RECORDS[key][3]


def test_mixed_record_is_built_once(monkeypatch):
    mix = rx.MixtureSpec(((NA, 0.25), (G("z", "NA", 400.0, 1600.0, 0.002), 0.75)))
    first = mix.mixed
    monkeypatch.setattr(rx.types, "GasParams", None)  # a second build would fail
    assert mix.mixed is first and vars(mix)["mixed"] is first
    assert (first.R, first.b, first.Cv) == (375.0, 0.00175, 1575.0)


def test_material_database_is_a_plain_mutable_map():
    db = rx.MaterialDatabase.empty()
    assert db == rx.MaterialDatabase(records={}) and repr(db) == "MaterialDatabase(records={})"
    assert db != {} and db.__eq__({}) is NotImplemented
    with pytest.raises(TypeError, match="unhashable"):
        hash(db)
    db.add(NA, "note")
    assert db != rx.MaterialDatabase({}) and len(db) == 1 and db.get("x", "NA") is NA
    entry = f"('x', <Model.NA: 'NA'>): DbRecord(params={_NA_REPR}, note='note')"
    assert repr(db) == f"MaterialDatabase(records={{{entry}}})"
    db.records = {}
    assert len(db) == 0


_THERMO_CHILD = """
import json, sys
import redeos
params = redeos.builtin_database().get("NC-13", "VO1")
out = {"loaded_at_import": "redeos.thermo_state" in sys.modules}
if sys.argv[1] == "class-first":
    cls = redeos.ThermoState
    state = redeos.state_from_rho_T(params, 100.0, 3000.0)
else:
    state = redeos.state_from_rho_T(params, 100.0, 3000.0)
    cls = redeos.ThermoState
import redeos.types
from redeos.thermo_state import ThermoState
out["same"] = cls is redeos.thermo_state.ThermoState is ThermoState is redeos.state.ThermoState
out["same"] = out["same"] and not hasattr(redeos.types, "ThermoState")  # the class has two routes, not three
out["isinstance"] = isinstance(state, cls) and isinstance(redeos.state_from_rho_T(params, 200.0, 3000.0), cls)
print(json.dumps(out))
"""


@pytest.mark.parametrize("order", ["class-first", "state-first"])
def test_thermo_state_is_one_class_before_and_after_the_first_state(order):
    proc = subprocess.run([sys.executable, "-c", _THERMO_CHILD, order], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded_at_import": False, "same": True, "isinstance": True}
