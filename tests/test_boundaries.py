"""Import boundaries inside the package.

No module imports or reads another module's private (`_name`) names: each
rule lives behind the public names of its home.  The test oracle
`tests/oracle.py` is not part of the package: no module of the package
imports anything from `tests/`, and the oracle never runs through the
`kernels` it checks.  The oracle keeps the package's rules below as well,
so it reads no private name and runs no column.  `kernels` imports no
module of the package, and `blocksearch` is the only
other module that reads a column code or runs a column: it alone turns a
family and a polarity digit into columns.  `kernels` alone multiplies
complex matrices (`@`, matmul, dot, einsum and linalg appear nowhere
else, save two listed products that are not complex) and alone tests
whether a matrix lies within EPS of another.  `mux` alone expands a
multiplexer's palette into the 2^m complex vector: everywhere else the
palette's matrices are only read whole (to intern them, to test them for
the identity), so the vector cannot come back unseen.  `jsonout` alone
calls a stream's write: every report and file goes through its one
batching loop, so no report can be joined into one string again; and
`jsonout` alone calls json.dumps, so every JSON document, report or
file, is written by its streaming writer; and `jsonout` alone opens a
file, so every path and every file's bytes are refused the same way.  No
except clause catches a bare ValueError (or anything broader) save the
listed wraps of the standard library's parsers and cli.main's exit-4
handler: a refusal is a QmuxError where the input is checked, and a
bare exception is a fault that nothing relabels as bad input.

What a run loads is checked too, in fresh interpreters: importing the
package loads none of its modules (its names are imported on first use),
`qmuxopt.cli` loads only the modules every subcommand uses, and each
subcommand loads its own, never the other side's (quantum or classical),
and random search loads neither numpy.random nor the OpenSSL it brings.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmuxopt

PACKAGE = Path(qmuxopt.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
ORACLE = Path(__file__).with_name("oracle.py")
# The package's modules and the oracle, which keeps their rules.
CHECKED = SOURCES + [ORACLE]
# The names a module under tests/ is imported by: `tests` itself when the
# repository root is on the path, a module's own name when tests/ is.
TEST_MODULES = {"tests"} | {p.stem for p in ORACLE.parent.glob("*.py")}


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


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
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
        "from . import gates, kernels\n",
        "from .kernels import IDENTITY\n",
        "from qmuxopt import kernels\n",
        "from qmuxopt.kernels import IDENTITY\n",
        "import qmuxopt.kernels\n",
    ):
        assert "kernels" in package_imports(ast.parse(source)), source
    assert package_imports(ast.parse("import numpy\nfrom .mux import EPS\n")) == {"mux"}


def imports_of_tests(tree: ast.Module) -> set:
    """Top-level names of `tests` and the modules under it that the tree
    imports, in any form."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    return {name.split(".")[0] for name in names} & TEST_MODULES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_src_module_imports_from_tests(path):
    assert imports_of_tests(ast.parse(path.read_text(encoding="utf-8"))) == set()


def test_the_oracle_does_not_import_kernels():
    assert "kernels" not in package_imports(ast.parse(ORACLE.read_text(encoding="utf-8")))


def test_each_check_fails_when_the_stray_import_is_put_back():
    mux = (PACKAGE / "mux.py").read_text(encoding="utf-8")
    for stray, found in (
        ("import oracle\n", {"oracle"}),
        ("from oracle import known_cases\n", {"oracle"}),
        ("from tests import oracle\n", {"tests"}),
        ("from tests.oracle import known_cases\n", {"tests"}),
        ("import numpy, tests.oracle as oracle\n", {"tests"}),
    ):
        assert imports_of_tests(ast.parse(mux + stray)) == found, stray
    oracle = ORACLE.read_text(encoding="utf-8")
    stray = "from qmuxopt.kernels import IDENTITY\n"
    assert "kernels" in package_imports(ast.parse(oracle + stray))


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
    [p for p in CHECKED if p.name not in ("kernels.py", "blocksearch.py")],
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


# The names of numpy's matrix products and linear algebra.
PRODUCT_NAMES = {"matmul", "dot", "vdot", "tensordot", "einsum", "linalg"}
# The products outside kernels, as (module, function, what): the integer
# cost_table product of the block search's leaves and group's Frobenius
# norm of float differences.  No complex 2x2 product is among them.
PRODUCT_SITES = [
    ("blocksearch.py", "polarity_costs.leaf", "matmul"),
    ("group.py", "_gap", "einsum"),
]


def matrix_products(tree: ast.Module, module: str) -> list:
    """(module, function, what) of each `@` (`what` "@") and each use of a
    name in PRODUCT_NAMES (as an attribute, a name or an import) in the
    tree, `function` the dotted path of the functions around it."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name if function is None else f"{function}.{node.name}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((module, function, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCT_NAMES:
            found.append((module, function, node.attr))
        elif isinstance(node, ast.Name) and node.id in PRODUCT_NAMES:
            found.append((module, function, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            names = {part for name in modules for part in name.split(".")}
            found.extend((module, function, name) for name in sorted(names & PRODUCT_NAMES))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sorted(found, key=str)  # `function` is None outside every function


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "kernels.py"], ids=lambda p: p.name
)
def test_only_kernels_multiplies_matrices(path):
    """kernels.times and times_inverse are the package's only complex 2x2
    products: everywhere else, only the PRODUCT_SITES multiply."""
    found = matrix_products(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == [site for site in PRODUCT_SITES if site[0] == path.name]


def test_the_product_rule_fails_when_a_stray_product_is_put_back():
    kernels = (PACKAGE / "kernels.py").read_text(encoding="utf-8")
    assert ("kernels.py", "times", "matmul") in matrix_products(ast.parse(kernels), "kernels.py")
    mux = (PACKAGE / "mux.py").read_text(encoding="utf-8")
    stray = "def f(a, b):\n    a @= b\n    return a @ b\n"
    assert matrix_products(ast.parse(mux + stray), "mux.py") == [
        ("mux.py", "f", "@"), ("mux.py", "f", "@"),
    ]
    group = (PACKAGE / "group.py").read_text(encoding="utf-8")
    stray = (
        "products = np.matmul(block, side)\n"
        "from numpy.linalg import norm\n"
        "from numpy import dot as product\n"
    )
    assert matrix_products(ast.parse(group + stray), "group.py") == [
        ("group.py", "_gap", "einsum"),
        ("group.py", None, "dot"),
        ("group.py", None, "linalg"),
        ("group.py", None, "matmul"),
    ]


def eps_tests(tree: ast.Module) -> list:
    """Line of each comparison that sets a value taken by abs against EPS
    (a name or attribute EPS or eps): the shape of a test whether a matrix
    lies within EPS of another.  A residual already reduced to a number
    (`dev <= EPS`) is not one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            parts = [node.left, *node.comparators]
            names = {getattr(n, "id", getattr(n, "attr", None)) for p in parts for n in ast.walk(p)}
            if names & {"EPS", "eps"} and "abs" in names:
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "kernels.py"], ids=lambda p: p.name
)
def test_only_kernels_tests_a_matrix_against_eps(path):
    """kernels.rows_within is the package's one within-EPS test."""
    assert eps_tests(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_eps_rule_fails_when_a_stray_test_is_put_back():
    kernels = (PACKAGE / "kernels.py").read_text(encoding="utf-8")
    assert eps_tests(ast.parse(kernels)) != []  # the home of the test
    gates = (PACKAGE / "gates.py").read_text(encoding="utf-8")
    end = len(gates.splitlines())
    stray = (
        "hit = np.abs(us[rows] - mat).reshape(len(rows), 4).max(axis=1) <= EPS\n"
        "if not dev <= EPS:\n"
        "    near = gates.EPS >= abs(a - b).max()\n"
    )
    assert eps_tests(ast.parse(gates + stray)) == [end + 1, end + 3]


def palette_gathers(tree: ast.Module) -> list:
    """(line, how) of each place the tree spreads a palette's matrices to
    the gates: a subscript of them, or a per_gate or take call given them.
    A palette's matrices are `<x>.palette.matrices` or a name bound to it."""

    def is_matrices(node):
        if isinstance(node, ast.Attribute):
            value = node.value
            return node.attr == "matrices" and isinstance(value, ast.Attribute) and (
                value.attr == "palette"
            )
        return isinstance(node, ast.Name) and node.id in names

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_matrices(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_matrices(node.value):
            found.append((node.lineno, "subscript"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("per_gate", "take") and any(map(is_matrices, node.args)):
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in CHECKED if p.name != "mux.py"], ids=lambda p: p.name
)
def test_only_mux_expands_a_palette_into_the_complex_vector(path):
    assert palette_gathers(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_palette_rule_fails_when_a_stray_expansion_is_put_back():
    mux = (PACKAGE / "mux.py").read_text(encoding="utf-8")
    assert palette_gathers(ast.parse(mux)) != []  # the home of the expansion
    source = (PACKAGE / "cost.py").read_text(encoding="utf-8")
    end = len(source.splitlines())
    stray = (
        "matrices = m.palette.matrices\n"
        "full = matrices[m.palette.index]\n"
        "again = m.palette.matrices[m.palette.index]\n"
        "same = m.palette.per_gate(m.palette.matrices)\n"
        "np.take(matrices, m.palette.index, axis=0)\n"
        "mask = m.palette.per_gate(kernels.identity_mask(m.palette.matrices, EPS))\n"
    )
    assert palette_gathers(ast.parse(source + stray)) == [
        (end + 2, "subscript"),
        (end + 3, "subscript"),
        (end + 4, "per_gate"),
        (end + 5, "take"),
    ]


def void_views(tree: ast.Module) -> list:
    """Line of each `view` call given a void dtype, a str such as "V64" or
    a numpy `void`: the shape of reading matrices as byte keys."""

    def is_void(part):
        text = getattr(part, "value", None)
        name = getattr(part, "attr", getattr(part, "id", None))
        return (isinstance(text, str) and text.lstrip("|").startswith("V")) or name == "void"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "view":
            given = [*node.args, *(k.value for k in node.keywords)]
            if any(is_void(part) for arg in given for part in ast.walk(arg)):
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "kernels.py"], ids=lambda p: p.name
)
def test_only_kernels_views_matrices_as_byte_keys(path):
    """kernels.byte_keys is the one place a matrix is read as its bytes."""
    assert void_views(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_byte_key_rule_fails_when_a_stray_view_is_put_back():
    kernels = (PACKAGE / "kernels.py").read_text(encoding="utf-8")
    assert void_views(ast.parse(kernels)) != []  # the home of the keys
    source = (PACKAGE / "mux.py").read_text(encoding="utf-8")
    end = len(source.splitlines())
    stray = (
        "keys = stack.reshape(len(stack), 4).view(\"V64\").reshape(-1)\n"
        "floats = stack.view(float)\n"
        "keys = flat.view(dtype=\"|V16\")\n"
        "keys = flat.view(np.dtype((np.void, 64)))\n"
    )
    assert void_views(ast.parse(source + stray)) == [end + 1, end + 3, end + 4]


def stream_writes(tree: ast.Module) -> list:
    """Line of each call of a `write` or `writelines` method, except the
    module function jsonout.write."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if node.func.attr in ("write", "writelines") and not (
                isinstance(receiver, ast.Name) and receiver.id == "jsonout"
            ):
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in CHECKED if p.name != "jsonout.py"], ids=lambda p: p.name
)
def test_only_jsonout_calls_a_streams_write(path):
    assert stream_writes(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_write_rule_fails_when_a_stray_write_is_put_back():
    jsonout = (PACKAGE / "jsonout.py").read_text(encoding="utf-8")
    assert stream_writes(ast.parse(jsonout)) != []  # the home of the loop
    cli = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    end = len(cli.splitlines())
    stray = (
        'jsonout.write(fh, ["\\n"])\n'
        'fh.write("\\n")\n'
        'sys.stdout.write(text)\n'
        "fh.writelines(lines)\n"
    )
    assert stream_writes(ast.parse(cli + stray)) == [end + 2, end + 3, end + 4]


def json_dumps_calls(tree: ast.Module) -> list:
    """Line of each call of json.dumps, or of a dumps imported from json."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        for alias in node.names
        if alias.name == "dumps"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "dumps"
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
            ) or (isinstance(func, ast.Name) and func.id in imported):
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in CHECKED if p.name != "jsonout.py"], ids=lambda p: p.name
)
def test_only_jsonout_calls_json_dumps(path):
    assert json_dumps_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_json_dumps_rule_fails_when_a_stray_dumps_is_put_back():
    jsonout = (PACKAGE / "jsonout.py").read_text(encoding="utf-8")
    assert json_dumps_calls(ast.parse(jsonout)) != []  # the home of the writer
    muxio = (PACKAGE / "muxio.py").read_text(encoding="utf-8")
    end = len(muxio.splitlines())
    stray = (
        'text = json.dumps(data, indent=2) + "\\n"\n'
        "from json import dumps as to_text\n"
        "to_text(data)\n"
        "json.loads(text)\n"
    )
    assert json_dumps_calls(ast.parse(muxio + stray)) == [end + 1, end + 3]


# The except clauses of the package that may name ValueError or Exception,
# as (module, enclosing function, exception, the parsers its try calls):
# the wraps of the standard library's parsers, which refuse bad text with
# a bare ValueError, the one file helper's open, which refuses a NUL byte
# in a path with one, and cli.main's exit-4 handler.  Every other refusal
# is a QmuxError raised where the input is checked.
BROAD_HANDLERS = [
    ("cli.py", "main", "Exception", ()),
    ("errors.py", "parse_count", "ValueError", ("int",)),
    ("gates.py", "parse_gate", "ValueError", ("float",)),
    ("gates.py", "parse_gate", "ValueError", ("float",)),
    ("jsonout.py", "open_file", "ValueError", ("open",)),
    ("muxio.py", "parse_qmux", "ValueError", ("loads",)),
]
PARSERS = {"float", "int", "loads", "open"}
BROAD = {"ValueError", "Exception", "BaseException"}


def broad_handlers(tree: ast.Module, module: str) -> list:
    """(module, function, exception, parsers) of each except clause in the
    tree that names ValueError, Exception or BaseException (a bare except
    counts as BaseException), `function` the innermost one around it and
    `parsers` the names in PARSERS that its try body calls."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Try):
            calls = {
                getattr(call.func, "attr", getattr(call.func, "id", None))
                for stmt in node.body for call in ast.walk(stmt) if isinstance(call, ast.Call)
            }
            for handler in node.handlers:
                kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                for kind in kinds:
                    name = "BaseException" if kind is None else getattr(kind, "id", None)
                    if name in BROAD:
                        found.append((module, function, name, tuple(sorted(calls & PARSERS))))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_listed_handlers_catch_a_bare_value_error(path):
    """No module relabels a ValueError (or anything broader) as the
    input's fault, save the wraps in BROAD_HANDLERS."""
    found = broad_handlers(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == [h for h in BROAD_HANDLERS if h[0] == path.name]


def test_the_handler_rule_fails_when_a_relabel_is_put_back():
    cli = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    handler = "except (QmuxError, OSError) as exc:"
    assert cli.count(handler) == 1
    back = cli.replace(handler, "except (QmuxError, OSError, ValueError) as exc:")
    assert ("cli.py", "main", "ValueError", ()) in broad_handlers(ast.parse(back), "cli.py")
    stray = (
        "def _load(text):\n"
        "    try:\n"
        "        return int(text), load(text)\n"
        "    except ValueError as exc:\n"
        "        raise ParseError(str(exc), text)\n"
        "    except:\n"
        "        raise\n"
        "class C:\n"
        "    def f(self):\n"
        "        try:\n"
        "            g()\n"
        "        except (KeyError, Exception):\n"
        "            pass\n"
    )
    assert broad_handlers(ast.parse(cli + stray), "cli.py") == [
        ("cli.py", "_load", "BaseException", ("int",)),
        ("cli.py", "_load", "ValueError", ("int",)),
        ("cli.py", "f", "Exception", ()),
        ("cli.py", "main", "Exception", ()),
    ]


def open_calls(tree: ast.Module) -> list:
    """Line of each call of the builtin open, or of an open method."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "open":
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "jsonout.py"], ids=lambda p: p.name
)
def test_only_jsonout_opens_a_file(path):
    """Every file is opened by jsonout.open_file, so each file the program
    reads or writes refuses a bad path or bad bytes the same way."""
    assert open_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_open_rule_fails_when_a_stray_open_is_put_back():
    jsonout = (PACKAGE / "jsonout.py").read_text(encoding="utf-8")
    assert open_calls(ast.parse(jsonout)) != []  # the home of the helper
    pla = (PACKAGE / "pla.py").read_text(encoding="utf-8")
    end = len(pla.splitlines())
    stray = (
        'fh = open(path, "r", encoding="utf-8")\n'
        "jsonout.open_file(path)\n"
        "with io.open(path) as fh:\n"
        "    pass\n"
    )
    assert open_calls(ast.parse(pla + stray)) == [end + 1, end + 3]


# The names the package exports, by home module.
EXPORTS = {
    "boolrm": ["FPRM", "KRM", "BoolFunc", "RMSpectrum", "literal_cost", "rm_inverse_transform",
               "rm_search", "rm_transform"],
    "cost": ["CostReport", "gate_cost", "multiplexer_cost"],
    "mux": ["FPQF", "KQF", "STANDARD", "Multiplexer", "forward_transform", "inverse_transform",
            "max_semantic_deviation", "negative_control_realization", "semantics"],
    "muxio": ["dump_qmux", "load_qmux", "parse_qmux", "save_qmux"],
    "pla": ["load_pla", "parse_pla", "to_bool_func", "to_multiplexer"],
    "randmux": ["POOL_FULL", "POOL_NVV", "GatePool", "generate"],
    "search": ["SearchConfig", "SearchReport", "exhaustive_search", "random_polarity_search",
               "run_search"],
}
# Loaded by `import qmuxopt.cli`: gates comes with blocksearch (EPS).
SHARED = {"blocksearch", "cli", "errors", "gates", "jsonout", "kernels"}
CLASSICAL_ONLY = {"boolrm", "pla"}
QUANTUM_ONLY = {"search", "group", "mux", "muxio", "cost", "randmux"}


@pytest.mark.parametrize(
    "module,name", [(m, n) for m, names in EXPORTS.items() for n in names],
    ids=lambda x: x,
)
def test_every_exported_name_is_its_modules_object(module, name):
    home = getattr(importlib.import_module(f"qmuxopt.{module}"), name)
    assert getattr(qmuxopt, name) is home
    assert name in qmuxopt.__all__
    star = {}
    exec("from qmuxopt import *", star)
    assert star[name] is home


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing_here'"):
        qmuxopt.nothing_here  # noqa: B018


def _modules(script, cwd) -> set:
    """The names in sys.modules once the script has run in a fresh
    interpreter."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script += "\nimport sys\nprint(*sorted(sys.modules))\n"
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def _loaded(script, cwd) -> set:
    """The package's modules loaded once the script has run in a fresh
    interpreter."""
    return {n.split(".")[1] for n in _modules(script, cwd) if n.startswith("qmuxopt.")}


def _cli_run(*argv) -> str:
    return f"from qmuxopt import cli\nassert cli.main({list(argv)!r}) == 0\n"


def test_importing_the_package_loads_no_module(tmp_path):
    assert _loaded("import qmuxopt", tmp_path) == set()


def test_the_cli_module_loads_only_the_shared_modules(tmp_path):
    assert _loaded("import qmuxopt.cli", tmp_path) == SHARED


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_optimize_loads_no_classical_module(tmp_path, mode):
    made = _loaded(_cli_run("generate", "--controls", "4", "--out", "m.qmux"), tmp_path)
    assert made & CLASSICAL_ONLY == set()
    loaded = _loaded(
        _cli_run("optimize", "m.qmux", "--family", "kqf", "--mode", mode, "--out", "r.txt"),
        tmp_path,
    )
    assert "search" in loaded and "group" in loaded
    assert loaded & CLASSICAL_ONLY == set()


# What numpy's Generator imports: numpy.random's bit generators import
# secrets, whose hmac loads OpenSSL through _hashlib.
RNG_MODULES = {"numpy.random", "_hashlib"}


def test_random_search_loads_neither_numpy_random_nor_openssl(tmp_path):
    """Random search draws from randmux.Pcg64, so it loads neither; generate
    draws with numpy's Generator, which shows that the check sees them."""
    made = _modules(_cli_run("generate", "--controls", "5", "--out", "m.qmux"), tmp_path)
    assert made >= RNG_MODULES
    for family in ("fpqf", "kqf"):
        loaded = _modules(
            _cli_run("optimize", "m.qmux", "--family", family, "--mode", "random",
                     "--samples", "3", "--seed", "7", "--out", "r.txt"),
            tmp_path,
        )
        assert "qmuxopt.search" in loaded
        assert loaded & RNG_MODULES == set(), family


def test_a_minterm_string_classical_loads_no_quantum_module(tmp_path):
    loaded = _loaded(_cli_run("classical", "01101111", "--out", "r.txt"), tmp_path)
    assert "boolrm" in loaded
    assert loaded & QUANTUM_ONLY == set()
