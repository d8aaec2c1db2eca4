"""Self-tests of the benchmark's checks and tracer, on inputs small enough to be quick.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

TINY_QUANTUM = workloads.Workload("fpqf_m3", 3, "fpqf")
TINY_CLASSICAL = workloads.Workload("classical_n4", 4, "fprm")


@pytest.fixture
def launcher():
    launcher = run.Launcher()
    yield launcher
    launcher.close()


def _cli(inputs):
    return [sys.executable, "-m", "qmuxopt.cli", *inputs.argv]


def _replay(path):
    """A command that prints the given file as if it were the CLI's report."""
    return [sys.executable, "-c", "import sys; sys.stdout.write(open(sys.argv[1]).read())", str(path)]


@pytest.mark.parametrize(
    "w, tamper",
    [
        (TINY_QUANTUM, lambda r: r["search"].__setitem__("best_cost", r["search"]["best_cost"] + 1)),
        (TINY_CLASSICAL, lambda r: r["ranked"][0].__setitem__("cost", r["ranked"][0]["cost"] + 1)),
    ],
)
def test_tampered_cost_counts_the_run_as_failed(launcher, tmp_path, w, tamper):
    inputs = workloads.make_inputs(w, 5, tmp_path)
    session = run.Session(launcher, w, inputs, 5, tmp_path)
    assert session.pinned is None
    session.invoke(_cli(inputs))
    genuine = session.first_report
    assert workloads.confirm(w, inputs, genuine, 5)["ok"]

    tampered = copy.deepcopy(genuine)
    tamper(tampered)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered))
    record = session.invoke(_replay(path))

    assert not record["ok"]
    assert (len(session.invocations), session.failed) == (2, 1)
    # The independent path rejects the tampered cost on its own, too.
    assert not workloads.confirm(w, inputs, tampered, 5)["ok"]


def test_failed_independent_check_fails_every_invocation(launcher, tmp_path):
    inputs = workloads.make_inputs(TINY_QUANTUM, 5, tmp_path)
    session = run.Session(launcher, TINY_QUANTUM, inputs, 5, tmp_path)
    session.invoke(_cli(inputs))
    session.invoke(_cli(inputs))
    assert session.failed == 0
    session.first_report["search"]["best_polarity"] = "000"
    session.first_report["best_targets"] = ["X"] * 8
    assert not session.confirm()["ok"]
    assert session.failed == 2


def test_volatile_fields_do_not_change_the_digest(launcher, tmp_path):
    inputs = workloads.make_inputs(TINY_QUANTUM, 5, tmp_path)
    session = run.Session(launcher, TINY_QUANTUM, inputs, 5, tmp_path)
    session.invoke(_cli(inputs))
    report = copy.deepcopy(session.first_report)
    report["manifest"]["wall_time_s"] = 123.0
    report["manifest"]["inputs"] = ["elsewhere.qmux"]
    report["search"]["elapsed_s"] = 45.0
    assert workloads.report_digest(report) == session.expected


def test_tracer_counts_the_calls_of_a_known_case(launcher, tmp_path):
    inputs = workloads.make_inputs(TINY_QUANTUM, 5, tmp_path)
    trace_path = tmp_path / "trace.json"
    cmd = [sys.executable, str(run.HERE / "tracer.py"), str(trace_path), *inputs.argv]
    _, _, code = launcher.spawn(cmd, tmp_path / "out.json", tmp_path)
    assert code == 0
    summary = json.loads(trace_path.read_text())
    calls = {name: stats["calls"] for name, stats in summary["layers"].items()}
    # DFS columns 2 + 4 + 8, then 3 for the best polarity's forward transform.
    assert calls["kernels.gate_stage"] == 17
    assert calls["kernels.mux_cost"] == 8
    assert calls["cost.multiplexer_cost"] == 2
    assert calls["kernels.gf2_stage"] == calls["boolrm.rm_search"] == 0
    assert summary["counters"]["search.polarities"] == 8
    assert summary["counters"]["kernels.gate_stage.gates"] == 17 * 8
    for name, stats in summary["layers"].items():
        assert stats["self_s"] <= stats["total_s"] + 1e-9, name


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "kqf_m9",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
