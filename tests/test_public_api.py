"""Every name ``redeos`` exports has a caller outside the tests.

A public name whose only callers are tests is code kept alive by its own
tests.  This check reads the sources with ``ast`` and imports nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "redeos"
CALLER_DIRS = (PACKAGE, ROOT / "demos", ROOT / "benchmarks")

KEEP = {
    # acceptance criterion 9 (the entropy suite) calls these two directly
    "na_entropy_vt", "vo1_entropy_dP",
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


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


def used_names():
    uses = _Uses()
    for folder in CALLER_DIRS:
        for path in sorted(folder.rglob("*.py")):
            if path != PACKAGE / "__init__.py" and "tests" not in path.relative_to(folder).parts:
                uses.visit(ast.parse(path.read_text()))
    return uses.used


def test_keep_list_names_exports():
    assert KEEP <= exported_names()


def test_every_export_has_a_caller_outside_the_tests():
    unused = exported_names() - used_names() - KEEP
    assert not unused, f"exported but called only by tests: {sorted(unused)}"
