"""Guards for the benchmark's runs.

perfbench/tracer.py wraps module attributes from the outside, so a caller
that binds a layer function directly (``from .kernels import mux_cost``)
hides its calls.  Each tiny workload here must show at least one call on
every layer the benchmark expects it to reach.

Every benchmark invocation must also reproduce the report digest pinned
in perfbench/pinned.json; seed 0 of each workload is checked here, in
process, so a change to the report bytes shows in the unit tests.

The benchmark also reads qmuxopt names that no workload runs through (its
kernel timings and machine facts), so every qmuxopt name a perfbench
module imports or reads off an imported module must exist.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmuxopt import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

# (controls or variables, family, random-mode samples); n = 11 is the
# smallest FPRM size whose block search runs a gf2_stage column.
CASES = [(3, "fpqf", 0), (3, "kqf", 0), (3, "fpqf", 3), (3, "kqf", 3), (11, "fprm", 0)]


@pytest.mark.parametrize("size,family,samples", CASES)
def test_every_benchmark_layer_sees_calls(tmp_path, size, family, samples):
    w = workloads.Workload(f"{family}_{size}", size, family, samples)
    expected = workloads.CLASSICAL_LAYERS if family == "fprm" else workloads.QUANTUM_LAYERS
    assert w.layers == expected
    inputs = workloads.make_inputs(w, seed=1, work=tmp_path)
    trace = tmp_path / "trace.json"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), str(trace), *inputs.argv,
         "--out", "report.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    layers = json.loads(trace.read_text())["layers"]
    silent = [name for name in w.layers if layers[name]["calls"] == 0]
    assert silent == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_0_report_matches_the_pinned_digest(tmp_path, monkeypatch, name):
    w = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(w, seed=0, work=tmp_path)
    monkeypatch.chdir(tmp_path)  # the argv names the input file relative to it
    assert cli.main([*inputs.argv, "--out", "report.json"]) == 0
    report = json.loads((tmp_path / "report.json").read_bytes())
    expected = workloads.pinned_digest(name, 0)
    assert expected is not None
    assert workloads.report_digest(report) == expected


def qmuxopt_reads(tree: ast.Module) -> list:
    """Dotted paths of the qmuxopt names the tree imports, and of the
    attribute chains it reads off a name so imported."""
    bound, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            if (node.module or "").split(".")[0] == "qmuxopt":
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    found.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qmuxopt":
                    name = alias.asname or "qmuxopt"
                    bound[name] = alias.name if alias.asname else "qmuxopt"
                    found.append(alias.name)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            found.append(".".join([bound[node.id], *chain]))
    return sorted(set(found))


def missing(paths) -> list:
    """The dotted paths that name no module or attribute."""
    out = []
    for path in paths:
        parts = path.split(".")
        try:
            obj = importlib.import_module(parts[0])
            for i, part in enumerate(parts[1:], start=2):
                if hasattr(obj, part):
                    obj = getattr(obj, part)
                else:
                    obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            out.append(path)
    return out


def test_the_name_check_sees_imports_and_attribute_reads():
    source = (
        "from qmuxopt import cost, kernels\n"
        "from qmuxopt.errors import QmuxError, NoSuchError\n"
        "import qmuxopt.mux\n"
        "cost.gate_cost(2)\n"
        "kernels.NO_SUCH_CODE\n"
        "qmuxopt.mux.forward_transform\n"
    )
    reads = qmuxopt_reads(ast.parse(source))
    assert reads == [
        "qmuxopt.cost",
        "qmuxopt.cost.gate_cost",
        "qmuxopt.errors.NoSuchError",
        "qmuxopt.errors.QmuxError",
        "qmuxopt.kernels",
        "qmuxopt.kernels.NO_SUCH_CODE",
        "qmuxopt.mux",
        "qmuxopt.mux.forward_transform",
    ]
    assert missing(reads) == ["qmuxopt.errors.NoSuchError", "qmuxopt.kernels.NO_SUCH_CODE"]


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_qmuxopt_name_perfbench_reads_exists(path):
    assert missing(qmuxopt_reads(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_the_kernel_timings_run_on_the_current_kernel_contract(monkeypatch):
    """perfbench/run.py times gate_stage and gf2_stage on its own arrays,
    outside any traced CLI run; a change to how a column is called must not
    break its --trace 1 report."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports workloads
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "KERNEL_REPEATS", 1)
    timings = run.kernel_timings(0)
    assert sorted(timings) == [
        "kernels.gate_stage.column_ms_m12",
        "kernels.gf2_stage.column_ms_n16",
        "kernels.mux_cost.sum_ms_m12",
    ]
    assert all(0 < ms < float("inf") for ms in timings.values())
