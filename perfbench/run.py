#!/usr/bin/env python3
"""End-to-end benchmark of the qmuxopt CLI, with an optional traced run.

    python3 perfbench/run.py --workload fpqf_m12 --seed 1 --seconds 22 --trace 0

Run it from anywhere inside a source checkout; it imports the program from
``src/`` next to this directory.  Each request is one ``qmuxopt`` CLI
invocation in a fresh interpreter.  The load is a closed loop with one
client: invocations run strictly one after another, each starting when the
previous one has exited, and the benchmark starts no threads.

``--trace 0`` invokes the CLI as many times as fit in ``--seconds``
(at least once) and reports the end-to-end metrics:

* ``wall_rel``: the median over invocations of one invocation's wall time
  (spawn to exit, imports included) divided by the mean wall time of the
  two yardstick runs (``yardstick.py``) just before and just after it.  The
  host's speed drifts by up to 1.6x over minutes.  Over sets of ten runs on
  a shared 2-vCPU machine, the quartile spread of the raw median wall time
  (in the details as ``wall_s``) reached 0.34 of its median, that of
  ``wall_rel`` 0.19;
* ``peak_rss_mb``: the median of the children's peak RSS;
* ``setup_s``: the median time of a fresh interpreter that only imports
  ``qmuxopt.cli``, sampled before the first invocation and after each one.

Only medians and the sample count are reported: a run has too few
invocations for any higher percentile to have ten samples beyond it.

``--trace 1`` runs one untraced and one traced invocation (see
``tracer.py``) and reports the per-layer metrics, the isolated kernel
timings and the tracing overhead.

Every invocation's report is checked (see ``workloads.py``).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the details: machine
facts, input sizes, each invocation, ``failed_ratio`` and the check margins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "qmuxopt" / "cli.py").is_file():
    sys.exit(f"error: no qmuxopt sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from qmuxopt import cost, kernels, randmux  # noqa: E402

SETUP_REPEATS = 3  # before the first invocation; one more follows each invocation
KERNEL_REPEATS = 25
# A run must end well inside the three minutes it is allowed.
RUN_TIMEOUT_S = 170


# Runs in its own small interpreter: reads one JSON [cmd, cwd, out, err] per
# line, runs cmd to its end and answers [wall seconds, peak RSS MB, exit code].
LAUNCHER = r"""
import json, os, subprocess, sys, time
for line in sys.stdin:
    cmd, cwd, out_path, err_path = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss / 1024, proc.returncode]), flush=True)
"""


class Launcher:
    """A small process that spawns, times and reaps the benchmark's children.

    On Linux a child's rusage peak RSS starts from the peak of the memory it
    was spawned from.  The benchmark itself holds numpy and parsed reports
    of up to 300 MB, so children are spawned from this launcher instead,
    whose memory stays far below any child's.  The wall time runs from just
    before the spawn to the reaping of the child.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def spawn(self, cmd, out_path: Path, cwd: Path) -> tuple:
        """Run cmd to its end; return (wall seconds, peak RSS in MB, exit code)."""
        request = [cmd, str(cwd), str(out_path), str(out_path.with_suffix(".err"))]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited early")
        wall, rss, code = json.loads(reply)
        return wall, rss, code

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def kill(self) -> None:
        """Stop the launcher and its running child, and wait until both end."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)


SETUP_CMD = [sys.executable, "-c", "import qmuxopt.cli"]
YARDSTICK_CMD = [sys.executable, str(HERE / "yardstick.py")]


def sample(launcher: Launcher, cmd: list, work: Path) -> float:
    """Wall time of a helper interpreter: set-up (SETUP_CMD) or yardstick."""
    wall, _, code = launcher.spawn(cmd, work / "sample.out", work)
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} failed with exit code {code}")
    return wall


class Session:
    """The invocations of one run and the checks on their reports."""

    def __init__(self, launcher: Launcher, w, inputs, seed: int, work: Path):
        self.launcher = launcher
        self.w = w
        self.inputs = inputs
        self.seed = seed
        self.work = work
        self.pinned = workloads.pinned_digest(w.name, seed)
        self.expected = self.pinned
        self.first_report = None
        self.invocations = []
        self.setup = []
        self.yardstick = []

    def invoke(self, cmd: list) -> dict:
        """One invocation, timed, then its report checked outside the timed region."""
        out = self.work / f"report{len(self.invocations)}.json"
        wall, rss, code = self.launcher.spawn(cmd, out, self.work)
        record = {"wall_s": wall, "peak_rss_mb": rss, "exit": code, "ok": False, "traced": False}
        if code == 0:
            try:
                report = json.loads(out.read_bytes())
            except (UnicodeDecodeError, json.JSONDecodeError):
                report = None
            if isinstance(report, dict):
                digest = workloads.report_digest(report)
                if self.expected is None:
                    self.expected = digest
                record["ok"] = digest == self.expected
                if record["ok"] and self.first_report is None:
                    self.first_report = report
        else:
            sys.stderr.write(out.with_suffix(".err").read_text(errors="replace"))
        out.unlink()
        self.invocations.append(record)
        return record

    def sample_host(self) -> None:
        """Take one set-up sample and one yardstick sample."""
        self.setup.append(sample(self.launcher, SETUP_CMD, self.work))
        self.yardstick.append(sample(self.launcher, YARDSTICK_CMD, self.work))

    def measure(self, cmd: list) -> dict:
        """An invocation with the host's speed gauged right before and after it."""
        before = self.yardstick[-1]
        record = self.invoke(cmd)
        self.sample_host()
        record["yardstick_s"] = (before + self.yardstick[-1]) / 2
        record["wall_rel"] = record["wall_s"] / record["yardstick_s"]
        return record

    def confirm(self) -> dict:
        """Independent check of the pinned result; a miss fails every invocation."""
        if self.first_report is None:
            return {"ok": False, "error": "no invocation produced the expected report"}
        result = workloads.confirm(self.w, self.inputs, self.first_report, self.seed)
        if not result["ok"]:
            for record in self.invocations:
                record["ok"] = False
        return result

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.invocations)


def kernel_timings(seed: int) -> dict:
    """Isolated kernel timings in ms, best of KERNEL_REPEATS after a warm-up.

    The same three cases as benchmarks/bench_kernels.py, on whichever kernel
    the program dispatches to.
    """
    def best_ms(fn):
        fn()
        best = float("inf")
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best * 1e3

    m, n = 12, 16
    gate_vector = randmux.generate(m, randmux.POOL_FULL, seed).targets.copy()
    counts = cost.control_count_vector("1" * m)
    table = cost.cost_table_vector(m)
    bits = np.random.default_rng(seed).integers(0, 2, size=1 << n).astype(np.uint8)
    return {
        "kernels.gate_stage.column_ms_m12": best_ms(
            lambda: kernels.gate_stage(gate_vector, kernels.FORWARD_POS, m // 2)
        ),
        "kernels.mux_cost.sum_ms_m12": best_ms(
            lambda: kernels.mux_cost(gate_vector, counts, table, 1e-9)
        ),
        "kernels.gf2_stage.column_ms_n16": best_ms(
            lambda: kernels.gf2_stage(bits, kernels.GF2_POS, n // 2)
        ),
    }


def layer_metrics(trace: dict) -> dict:
    """Per-layer values from the tracer's summary, as (value, unit) pairs."""
    layers, counters = trace["layers"], trace["counters"]
    out = {}
    for name, stats in layers.items():
        out[f"{name}.self_s"] = (stats["self_s"], "s")
        out[f"{name}.calls"] = (stats["calls"], "count")
    stage = layers["kernels.gate_stage"]
    gates = counters["kernels.gate_stage.gates"]
    out["kernels.gate_stage.gates"] = (gates, "count")
    out["kernels.gate_stage.identity_calls"] = (counters["kernels.gate_stage.identity_calls"], "count")
    out["kernels.gate_stage.ns_per_gate"] = (stage["self_s"] * 1e9 / gates if gates else 0.0, "ns")
    out["kernels.gate_stage.bytes_computed"] = (counters["kernels.gate_stage.bytes_computed"], "bytes")
    out["kernels.gate_stage.flops_computed"] = (counters["kernels.gate_stage.flops_computed"], "flop")
    scanned = counters["kernels.mux_cost.gates"]
    identities = counters["kernels.mux_cost.identities"]
    out["kernels.mux_cost.identity_ratio"] = (identities / scanned if scanned else 0.0, "ratio")
    out["kernels.gf2_stage.bits"] = (counters["kernels.gf2_stage.bits"], "count")
    out["search.polarities"] = (counters["search.polarities"], "count")
    return out


def machine_facts() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    # The checkout may not be a git repository; never look above it for one,
    # nor read configuration from outside it.
    env = dict(
        os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
        GIT_CONFIG_GLOBAL=os.devnull, GIT_CONFIG_NOSYSTEM="1",
    )
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "have_numba": kernels.HAVE_NUMBA,
        "use_numba": kernels.USE_NUMBA,
        "git_commit": commit,
        # Identifies the program's code where there is no git metadata.
        "source_sha256": hashlib.sha256(
            b"".join(path.read_bytes() for path in sorted((SRC / "qmuxopt").glob("*.py")))
        ).hexdigest(),
    }


def run(launcher: Launcher, w, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    """Measure one workload; return (result, details)."""
    inputs = workloads.make_inputs(w, seed, work)
    session = Session(launcher, w, inputs, seed, work)
    # The first import writes the bytecode caches, paid once per installation.
    sample(launcher, SETUP_CMD, work)
    for _ in range(SETUP_REPEATS):
        session.sample_host()
    cli = [sys.executable, "-m", "qmuxopt.cli", *inputs.argv]
    details = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine_facts(),
        "inputs": inputs.facts,
        "load": "closed loop, one client, one invocation at a time",
    }
    problems = []
    per_layer = {}
    if not trace:
        # As many measured invocations as fit in the time; at least one.
        start = time.perf_counter()
        elapsed = 0.0
        while not session.invocations or elapsed * (1 + 1 / len(session.invocations)) <= seconds:
            session.measure(cli)
            elapsed = time.perf_counter() - start
    else:
        untraced = session.measure(cli)
        trace_path = work / "trace.json"
        traced = session.invoke(
            [sys.executable, str(HERE / "tracer.py"), str(trace_path), *inputs.argv]
        )
        traced["traced"] = True
        if not trace_path.is_file():
            raise RuntimeError("the traced invocation wrote no trace")
        summary = json.loads(trace_path.read_text(encoding="utf-8"))
        silent = [name for name in w.layers if summary["layers"][name]["calls"] == 0]
        if silent:
            problems.append(f"wrappers saw no calls on {w.name}: {', '.join(silent)}")
            traced["ok"] = False
        per_layer.update(layer_metrics(summary))
        for name, value in kernel_timings(seed).items():
            per_layer[name] = (value, "ms")
        per_layer["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
        details["wait_time"] = "not reported: one thread, no queues, nothing waits"
        details["computed"] = "bytes_computed and flops_computed come from array sizes"

    check = session.confirm()
    if not check["ok"]:
        problems.append(f"independent check failed: {check}")
    if trace:
        # The classical workload runs no quantum cascade, so it records 0.
        per_layer["mux.inverse_residual"] = (check.get("inverse_residual", 0.0), "max_abs")

    plain = [r for r in session.invocations if not r["traced"]]
    end_to_end = {
        "wall_rel": (statistics.median(r["wall_rel"] for r in plain), "yardstick"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        "setup_s": (statistics.median(session.setup), "s"),
    }
    wall_s = statistics.median(r["wall_s"] for r in plain)
    attempted = len(session.invocations)
    failed = session.failed
    details.update(
        invocations=session.invocations,
        samples=len(plain),
        setup_s=session.setup,
        yardstick_s=session.yardstick,
        digest={"expected": session.expected, "pinned": session.pinned is not None},
        check=check,
        end_to_end={
            k: {"value": v, "unit": u}
            for k, (v, u) in {
                **end_to_end, "wall_s": (wall_s, "s"), "failed_ratio": (failed / attempted, "ratio"),
            }.items()
        },
        per_layer={k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        problems=problems,
    )
    chosen = per_layer if trace else end_to_end
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    return result, details


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    launcher = Launcher()
    try:
        result, details = run(
            launcher, workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), work,
        )
        launcher.close()
    except BaseException:
        launcher.kill()
        raise
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    for problem in details["problems"]:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
