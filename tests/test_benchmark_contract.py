"""The names the benchmark harness looks up in the library must exist.

The harness under ``benchmarks/`` traces functions by name (``SPANS`` and
``COUNTS`` in ``tracing.py``), times scalar kernels by name (``KERNELS`` in
``workloads.py``), calls the closure operations as ``redeos`` attributes
(``Closure._ops``), reads fields of their results and passes keywords to
the mixture constructor (``_mixture_cell`` in ``inputs.py``).  A renamed or
deleted name would otherwise show only in a traced benchmark run.  The
tables are read from the harness source with ``ast``: nothing of it is
imported or run, and ``sys.path`` is left alone.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib

import pytest

import redeos
from redeos.mixture import MnaState, Mvo1Solution
from redeos.numerics import RootResult
from redeos.thermo_state import ThermoState

BENCH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _constant(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no module-level {name} in the harness")


def _closure_ops(tree):
    """The ``r.<name>`` lookups of ``Closure._ops``, where ``r`` is the redeos package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_ops":
            return sorted({n.attr for n in ast.walk(node)
                           if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "r"})
    raise LookupError("no Closure._ops in the harness")


def _call_keywords(tree, function, callee):
    """The keywords ``function`` passes to its calls of ``callee``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            calls = [n for n in ast.walk(node)
                     if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == callee]
            if calls:
                return sorted({kw.arg for call in calls for kw in call.keywords})
    raise LookupError(f"no call of {callee} in {function} in the harness")


TRACING = _tree("tracing.py")
WORKLOADS = _tree("workloads.py")
SPANS = _constant(TRACING, "SPANS")
COUNTS = _constant(TRACING, "COUNTS")
KERNELS = _constant(WORKLOADS, "KERNELS")
CLOSURE_OPS = _closure_ops(WORKLOADS)
#: ``_mixture_cell`` builds each mixture with the constructor ``Closure`` hands it, ``redeos.MixtureSpec``
MIXTURE_KEYWORDS = _call_keywords(_tree("inputs.py"), "_mixture_cell", "mixture_spec")


@pytest.mark.parametrize("module, functions, span", SPANS)
def test_traced_functions_exist(module, functions, span):
    home = importlib.import_module(module)
    if functions is None:  # the module is traced whole
        assert any(callable(obj) and getattr(obj, "__module__", None) == module and not name.startswith("_")
                   for name, obj in vars(home).items()), span
    for name in functions or ():
        assert callable(getattr(home, name, None)), f"{module}.{name} ({span})"


@pytest.mark.parametrize("module, function, name", COUNTS)
def test_counted_functions_exist(module, function, name):
    assert callable(getattr(importlib.import_module(module), function, None)), name


@pytest.mark.parametrize("name", KERNELS)
def test_timed_kernels_exist(name):
    assert callable(getattr(redeos, name, None))


def test_closure_operations_exist():
    assert {"state_from_rho_e", "mna_pressure", "mvo1_pressure_from_energy", "mvo1_sound_speed"} <= set(CLOSURE_OPS)
    for name in CLOSURE_OPS:
        assert callable(getattr(redeos, name, None)), name


@pytest.mark.parametrize("result, fields", [
    (MnaState, {"P", "T"}),
    (Mvo1Solution, {"P", "T", "iterations", "residual_rel"}),
    (RootResult, {"iterations"}),
    (ThermoState, {"P", "T", "rho", "c"}),
])
def test_result_fields_read_by_the_checks_exist(result, fields):
    names = set(result._fields) if hasattr(result, "_fields") else {f.name for f in dataclasses.fields(result)}
    assert fields <= names


@pytest.mark.parametrize("build, y", [("state_from_rho_e", 3e6), ("state_from_rho_T", 3000.0),
                                      ("state_from_P_T", 1e8)])
def test_built_states_survive_replace(build, y):
    # the harness' own tests perturb c of a built state with dataclasses.replace; tier-1 does not run them
    state = getattr(redeos, build)(redeos.builtin_database().get("NC-13", "VO1"), 100.0, y)
    wrong = dataclasses.replace(state, c=state.c * (1.0 + 1e-5))
    assert type(state) is type(wrong) is ThermoState and wrong.c == state.c * (1.0 + 1e-5)
    assert dataclasses.replace(wrong, c=state.c) == state


@pytest.mark.parametrize("keyword", MIXTURE_KEYWORDS)
def test_mixture_constructor_keywords_exist(keyword):
    # the library itself never reads oxygen_balance_declared_uniform, so only this names its user
    assert keyword in inspect.signature(redeos.MixtureSpec).parameters
