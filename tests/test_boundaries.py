"""No module of the package imports or reads another module's private
(`_name`) names: each rule lives behind the public names of its home."""

import ast
from pathlib import Path

import pytest

import qmuxopt

SOURCES = sorted(Path(qmuxopt.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(tree: ast.Module) -> list:
    """(line, name) of each private name the tree imports from the package
    or reads off a name it imported from the package."""
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "qmuxopt"
        ):
            for alias in node.names:
                imported.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qmuxopt":
                    imported.add(alias.asname or "qmuxopt")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append((node.lineno, node.attr))
    return sorted(found)


def test_the_check_sees_both_kinds_of_reach():
    source = "from . import mux\nfrom .mux import _a\nimport qmuxopt.b as b\nmux._c\nb.d._e\n"
    assert private_reads(ast.parse(source)) == [(2, "_a"), (4, "_c"), (5, "_e")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reaches_into_another_modules_private_names(path):
    assert private_reads(ast.parse(path.read_text(encoding="utf-8"))) == []
