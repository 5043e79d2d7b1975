"""Every name the package exports is used by the program, not only by its own tests.

A name that ``vmlab/__init__.py`` imports counts as used when another module
of the package, a ``bench/`` module or the acceptance criteria refer to it:
by name, by attribute, by import, or in a dotted string such as the traced
targets of ``bench/spans.py``.  Docstrings do not count, and neither does a
reference inside the name's own definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vmlab"


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


def _used_names(paths) -> set:
    return set().union(*(_References(ast.parse(p.read_text(encoding="utf-8"))).found for p in paths))


def test_every_export_is_used_outside_its_own_tests():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    unused = sorted(exported - _used_names(sources))
    assert unused == [], f"exported, but read only by their own tests: {unused}"
