"""Every name the package exports is used by the pipeline, the benchmark or
the acceptance criteria; a name only other tests use belongs in the tests."""

import ast
from pathlib import Path

import rlvs

SRC = Path(rlvs.__file__).resolve().parent
ROOT = SRC.parents[1]


def _exports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _reads(tree):
    """The names and attribute names that the code under ``tree`` reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_export_has_a_caller_outside_the_tests():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            reads = _reads(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                reads.discard(node.name)  # a definition does not call itself into use
            used |= reads
    for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        used |= _reads(ast.parse(path.read_text()))
    exports = _exports()
    assert exports
    assert [name for name in exports if name not in used] == []
