"""Every name the package exports, and every public method of an exported
class, is used by the program, not only by its own tests.

A name that ``vmlab/__init__.py`` imports counts as used when another module
of the package or a ``bench/`` module refers to it: by name, by attribute, by
import, or in a dotted string such as the traced targets of ``bench/spans.py``.
No test file counts, the acceptance suite included: a helper that only tests
call lives in ``tests/helpers.py``.  Docstrings do not count, and neither does a
reference inside the name's own definition.

A public function, property or classmethod in the body of an exported class
counts as used when those sources read it as an attribute outside its own
definition.  Attributes read on a module such as ``np`` do not count, nor do
bare names: ``np.empty`` or a local ``total`` says nothing of
``MeasurableSet.empty`` or a ``total`` property.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vmlab"
SOURCES = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
SOURCES += [*(ROOT / "bench").glob("*.py")]
MODULES = {"np", "numpy", "math", "sys", "os"}


class _References(ast.NodeVisitor):
    def __init__(self, tree):
        self.found, self.owners = set(), []
        self.docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }
        self.visit(tree)

    def _add(self, name):
        if name not in self.owners:
            self.found.add(name)

    def _definition(self, node):
        self.owners.append(node.name)
        self.generic_visit(node)
        self.owners.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._add(node.name.rpartition(".")[2])

    def visit_Constant(self, node):
        if isinstance(node.value, str) and id(node) not in self.docstrings:
            for part in node.value.split("."):
                self._add(part)


class _AttributeReads(_References):
    """Attribute names alone, and none read on a module such as ``np``."""

    def visit_Name(self, node):
        pass

    visit_alias = visit_Constant = visit_Name

    def visit_Attribute(self, node):
        if not (isinstance(node.value, ast.Name) and node.value.id in MODULES):
            self._add(node.attr)
        self.generic_visit(node)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _used_names(paths) -> set:
    return set().union(*(_References(_parse(p)).found for p in paths))


def _exported() -> set:
    init = _parse(PACKAGE / "__init__.py")
    return {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}


def test_every_export_is_used_outside_its_own_tests():
    unused = sorted(_exported() - _used_names(SOURCES))
    assert unused == [], f"exported, but read only by their own tests: {unused}"


def test_every_member_of_an_exported_class_is_used_outside_its_own_tests():
    exported = _exported()
    members = [
        f"{cls.name}.{node.name}"
        for path in PACKAGE.glob("*.py")
        for cls in _parse(path).body
        if isinstance(cls, ast.ClassDef) and cls.name in exported
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    read = set().union(*(_AttributeReads(_parse(path)).found for path in SOURCES))
    unused = [member for member in members if member.rpartition(".")[2] not in read]
    assert unused == [], f"class members read only by their own tests: {sorted(unused)}"
