"""Import boundaries inside the package.

No module imports or reads another module's private (`_name`) names: each
rule lives behind the public names of its home.  The test oracle
`tests/oracle.py` is not part of the package: no module of the package
imports anything from `tests/`, and the oracle never runs through the
`kernels` it checks.  The oracle keeps the package's rules below as well,
so it reads no private name and runs no column.  `kernels` imports no
module of the package, and `blocksearch` is the only
other module that reads a column code or runs a column: it alone turns a
family and a polarity digit into columns.  `mux` alone expands a
multiplexer's palette into the 2^m complex vector: everywhere else the
palette's matrices are only read whole (to intern them, to test them for
the identity), so the vector cannot come back unseen.  `jsonout` alone
calls a stream's write: every report and file goes through its one
batching loop, so no report can be joined into one string again; and
`jsonout` alone calls json.dumps, so every JSON document, report or
file, is written by its streaming writer.

What a run loads is checked too, in fresh interpreters: importing the
package loads none of its modules (its names are imported on first use),
`qmuxopt.cli` loads only the modules every subcommand uses, and each
subcommand loads its own, never the other side's (quantum or classical).
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


def _loaded(script, cwd) -> set:
    """The package's modules loaded once the script has run in a fresh
    interpreter."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script += (
        "\nimport sys\n"
        "print(*sorted(n.split('.')[1] for n in sys.modules if n.startswith('qmuxopt.')))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


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


def test_a_minterm_string_classical_loads_no_quantum_module(tmp_path):
    loaded = _loaded(_cli_run("classical", "01101111", "--out", "r.txt"), tmp_path)
    assert "boolrm" in loaded
    assert loaded & QUANTUM_ONLY == set()
