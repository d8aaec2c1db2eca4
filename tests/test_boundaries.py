"""Import boundaries inside the package.

No module imports or reads another module's private (`_name`) names: each
rule lives behind the public names of its home.  The reference oracles in
`reference` stay out of the program: only the package's `__init__`
imports them, and they never run through the `kernels` they check.
`kernels` imports no module of the package, and `blocksearch` is the only
other module that reads a column code or runs a column: it alone turns a
family and a polarity digit into columns.
"""

import ast
from pathlib import Path

import pytest

import qmuxopt

PACKAGE = Path(qmuxopt.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


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


def package_imports(tree: ast.Module) -> set:
    """Names of the package's modules that the tree imports, in any form."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = [part for part in (node.module or "").split(".") if part]
            if not node.level:
                if path[:1] != ["qmuxopt"]:
                    continue
                path = path[1:]
            if path:
                found.add(path[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "qmuxopt" and len(path) > 1:
                    found.add(path[1])
    return found


def test_the_import_check_sees_every_form():
    for source in (
        "from . import gates, reference\n",
        "from .reference import known_cases\n",
        "from qmuxopt import reference\n",
        "from qmuxopt.reference import known_cases\n",
        "import qmuxopt.reference\n",
    ):
        assert "reference" in package_imports(ast.parse(source)), source
    assert package_imports(ast.parse("import numpy\nfrom .mux import EPS\n")) == {"mux"}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_module_but_the_package_init_imports_reference(path):
    assert "reference" not in package_imports(ast.parse(path.read_text(encoding="utf-8")))


def test_reference_does_not_import_kernels():
    source = (PACKAGE / "reference.py").read_text(encoding="utf-8")
    assert "kernels" not in package_imports(ast.parse(source))


def test_each_check_fails_when_the_stray_import_is_put_back():
    mux = (PACKAGE / "mux.py").read_text(encoding="utf-8")
    assert "reference" in package_imports(ast.parse(mux + "from . import reference\n"))
    ref = (PACKAGE / "reference.py").read_text(encoding="utf-8")
    assert "kernels" in package_imports(ast.parse(ref + "from .kernels import IDENTITY\n"))


def test_kernels_imports_no_module_of_the_package():
    source = (PACKAGE / "kernels.py").read_text(encoding="utf-8")
    assert package_imports(ast.parse(source)) == set()


# The column codes and column functions of kernels.
COLUMN_NAMES = {
    "FORWARD_POS", "FORWARD_NEG", "INVERSE_POS", "INVERSE_NEG", "IDENTITY",
    "GF2_POS", "GF2_NEG", "GF2_MIXED",
    "gate_stage", "gf2_stage", "qetv_stage", "etv_stage",
}


def column_reads(tree: ast.Module) -> list:
    """(line, name) of each column code or column function the tree
    imports, reads as an attribute or names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in COLUMN_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in COLUMN_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in COLUMN_NAMES:
            found.append((node.lineno, node.id))
    return sorted(found)


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name not in ("kernels.py", "blocksearch.py")],
    ids=lambda p: p.name,
)
def test_only_blocksearch_reads_column_codes_or_runs_columns(path):
    assert column_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_each_kernels_rule_fails_when_a_stray_read_is_put_back():
    kernels = (PACKAGE / "kernels.py").read_text(encoding="utf-8")
    assert package_imports(ast.parse(kernels + "from .gates import EPS\n")) == {"gates"}
    mux = (PACKAGE / "mux.py").read_text(encoding="utf-8")
    end = len(mux.splitlines())
    stray = (
        "from .kernels import etv_stage\n"
        "kernels.gate_stage(out, kernels.FORWARD_POS, 0)\n"
        "gf2_stage(out, GF2_NEG, 0)\n"
    )
    assert column_reads(ast.parse(mux + stray)) == [
        (end + 1, "etv_stage"),
        (end + 2, "FORWARD_POS"),
        (end + 2, "gate_stage"),
        (end + 3, "GF2_NEG"),
        (end + 3, "gf2_stage"),
    ]
