"""Every name ``redeos`` exports has a caller outside the tests.

A public name whose only callers are tests is code kept alive by its own
tests.  This check reads the sources with ``ast`` and imports nothing.  The
exports are the names ``__init__.py`` imports and the names of its table of
exports loaded on first access; the later tests check that the table
resolves.
"""

import ast
from pathlib import Path

import pytest

import redeos as rx

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "redeos"
CALLER_DIRS = (PACKAGE, ROOT / "demos", ROOT / "benchmarks")

KEEP = {
    # acceptance criterion 9 (the entropy suite) calls these two directly
    "na_entropy_vt", "vo1_entropy_dP",
    # no caller, but `Tracer.install` looks up every name of the tracer's COUNTS table, so the
    # benchmark must drop its counter before the library can drop the function
    "fd_partial",
}

#: The tracer's tables in ``benchmarks/tracing.py`` name the functions it wraps; naming a
#: function there is no call of it.
TRACER = ROOT / "benchmarks" / "tracing.py"
TRACER_TABLES = {"SPANS", "COUNTS"}


def lazy_exports():
    """``_LAZY_EXPORTS`` of ``__init__.py``: module -> the names it exports on first access."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_LAZY_EXPORTS"]]
    return ast.literal_eval(table)


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    lazy = {name for names in lazy_exports().values() for name in names}
    return {name for name in imported | lazy if not name.startswith("_")}


class _Uses(ast.NodeVisitor):
    """Names read as ``name``, ``obj.name`` or looked up as the string ``"name"``,
    except inside their own ``def`` or ``class``."""

    def __init__(self):
        self.used, self._defining = set(), []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_ClassDef = _definition

    def _use(self, name):
        if name not in self._defining:
            self.used.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._use(node.value)


def _is_tracer_table(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id in TRACER_TABLES for t in node.targets)


def used_names():
    uses = _Uses()
    for folder in CALLER_DIRS:
        for path in sorted(folder.rglob("*.py")):
            if path != PACKAGE / "__init__.py" and "tests" not in path.relative_to(folder).parts:
                tree = ast.parse(path.read_text())
                if path == TRACER:
                    tree.body = [node for node in tree.body if not _is_tracer_table(node)]
                uses.visit(tree)
    return uses.used


def test_keep_list_names_exports():
    assert KEEP <= exported_names()


def test_the_tracer_tables_are_left_out():
    skipped = [node for node in ast.parse(TRACER.read_text()).body if _is_tracer_table(node)]
    assert len(skipped) == len(TRACER_TABLES)


def test_every_export_has_a_caller_outside_the_tests():
    unused = exported_names() - used_names() - KEEP
    assert not unused, f"exported but called only by tests: {sorted(unused)}"


@pytest.mark.parametrize("module, name", [(m, n) for m, names in lazy_exports().items() for n in names])
def test_lazy_export_resolves_to_its_module_attribute(module, name):
    home = __import__(f"redeos.{module}", fromlist=[name])
    assert getattr(rx, name) is getattr(home, name)
    assert vars(rx)[name] is getattr(home, name)  # stored: later lookups skip ``__getattr__``


def test_dir_and_all_list_every_export():
    assert exported_names() <= set(dir(rx))
    assert exported_names() == set(rx.__all__)
    assert len(rx.__all__) == len(set(rx.__all__))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rx.no_such_name
    assert not hasattr(rx, "vo1_gamma")
