"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Each workload is one ``qmuxopt`` CLI invocation with ``--format json``.  The
program only ever sees the generated ``.qmux`` file or minterm string; the
seed stays on the benchmark's side (random mode also takes it as its
``--seed``, as a user would pass one).

Output checks come in two strengths:

* every invocation: the report, minus its timing fields and input path,
  must hash to the digest pinned for that workload and seed in
  ``pinned.json`` (outputs are required to stay byte-identical), or, for a
  seed with no pinned digest, to the digest of the run's first invocation;
* once per run: :func:`confirm` re-derives the reported best result by an
  independent path (the semantic-equivalence theorem, or the classical
  spectrum round trip).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qmuxopt import boolrm, cost, gates, muxio, mux, randmux
from qmuxopt.errors import QmuxError

# Tolerance of the semantic checks; the CLI's verify command uses the same.
TOLERANCE = 1e-9
# Input states sampled for the semantic check when 2^m of them is too many.
SEMANTIC_SAMPLE = 256

QUANTUM_LAYERS = (
    "cli.main",
    "muxio.load_qmux",
    "muxio.target_tokens",
    "search.run_search",
    "kernels.gate_stage",
    "kernels.mux_cost",
    "mux.forward_transform",
    "cost.multiplexer_cost",
)
CLASSICAL_LAYERS = ("cli.main", "kernels.gf2_stage", "boolrm.rm_search")

# Report fields that change from run to run: timings and the input path.
VOLATILE_FIELDS = (
    ("manifest", "wall_time_s"),
    ("manifest", "inputs"),
    ("search", "elapsed_s"),
)

PINNED_PATH = Path(__file__).with_name("pinned.json")


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # controls m, or variables n for the classical workload
    family: str
    samples: int = 0  # random-mode draws; 0 means exhaustive search

    @property
    def classical(self) -> bool:
        return self.family == boolrm.FPRM

    @property
    def layers(self) -> tuple:
        """Wrapped functions that must see calls on this workload."""
        return CLASSICAL_LAYERS if self.classical else QUANTUM_LAYERS


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fpqf_m12", 12, "fpqf"),
        Workload("kqf_m9", 9, "kqf"),
        Workload("random_m17", 17, "fpqf", samples=4),
        Workload("classical_n14", 14, boolrm.FPRM),
    )
}


@dataclass
class Inputs:
    argv: list  # CLI arguments after the program name
    facts: dict  # input sizes, recorded with the result
    subject: object  # the Multiplexer or BoolFunc the outputs are checked against


def make_inputs(w: Workload, seed: int, work: Path) -> Inputs:
    """Generate the workload's input from the seed; files go into ``work``."""
    if w.classical:
        rng = np.random.Generator(np.random.PCG64(seed))
        bits = rng.integers(0, 2, size=1 << w.size, dtype=np.uint8)
        text = "0x" + np.packbits(bits).tobytes().hex()
        argv = ["classical", text, "--family", w.family, "--format", "json"]
        facts = {"minterms": 1 << w.size, "bytes": len(text)}
        return Inputs(argv, facts, boolrm.BoolFunc(w.size, bits))
    std = randmux.generate(w.size, randmux.POOL_FULL, seed)
    path = work / f"{w.name}.qmux"
    muxio.save_qmux(std, path)
    argv = ["optimize", path.name, "--family", w.family]
    if w.samples:
        argv += ["--mode", "random", "--samples", str(w.samples), "--seed", str(seed)]
    argv += ["--format", "json"]
    facts = {"targets": 1 << w.size, "bytes": path.stat().st_size}
    return Inputs(argv, facts, std)


def report_digest(report: dict) -> str:
    """SHA-256 of the report with its volatile fields removed."""
    stable = dict(report)
    for section, key in VOLATILE_FIELDS:
        if isinstance(stable.get(section), dict):
            stable[section] = {k: v for k, v in stable[section].items() if k != key}
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_digest(name: str, seed: int):
    """Digest pinned for this workload and seed, or None if none was pinned."""
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def confirm(w: Workload, inputs: Inputs, report: dict, seed: int) -> dict:
    """Re-derive the reported best result by an independent path.

    Returns a dict with ``ok`` and the margins measured on the way.  A
    malformed report is a failed check, not an error.
    """
    try:
        if w.classical:
            return _confirm_classical(inputs.subject, report)
        return _confirm_quantum(w, inputs.subject, report, seed)
    except (KeyError, IndexError, TypeError, ValueError, QmuxError) as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _confirm_classical(func: boolrm.BoolFunc, report: dict) -> dict:
    ranked = report["ranked"]
    best = ranked[0]
    spectrum = boolrm.rm_transform(func, best["polarity"])
    round_trip = bool(
        np.array_equal(boolrm.rm_inverse_transform(spectrum).minterms, func.minterms)
    )
    literal_cost = boolrm.literal_cost(spectrum)
    complete = len(ranked) == 1 << func.num_vars
    return {
        "ok": round_trip and literal_cost == best["cost"] and complete,
        "round_trip": round_trip,
        "literal_cost": literal_cost,
        "reported_cost": best["cost"],
    }


def _confirm_quantum(w: Workload, std: mux.Multiplexer, report: dict, seed: int) -> dict:
    search = report["search"]
    polarity = search["best_polarity"]
    targets = np.stack([gates.parse_gate(t) for t in report["best_targets"]])
    best = mux.Multiplexer(w.size, targets, mux.form_for_polarity(polarity), polarity)
    recomputed = cost.multiplexer_cost(best).total
    if w.samples:
        rng = np.random.default_rng(seed)
        states = rng.choice(1 << w.size, size=SEMANTIC_SAMPLE, replace=False)
        deviation = max(
            float(np.abs(mux.semantics(std, int(s)) - mux.semantics(best, int(s))).max())
            for s in states
        )
        states_checked = SEMANTIC_SAMPLE
    else:
        deviation = mux.max_semantic_deviation(std, best)
        states_checked = 1 << w.size
    # mux.inverse_transform rejects this output at m >= 16 because the raw
    # inverse cascade drifts past EPS; record the margin instead of hiding it.
    raw = mux.transform_stages(best.targets, polarity, "inverse")
    unitarity = float(np.abs(raw @ raw.conj().transpose(0, 2, 1) - np.eye(2)).max())
    round_trip_gap = float(np.abs(raw - std.targets).max())
    reported = (search["best_cost"], report["best_cost_report"]["total"])
    return {
        "ok": deviation <= TOLERANCE and reported == (recomputed, recomputed),
        "semantic_deviation": deviation,
        "states_checked": states_checked,
        "recomputed_cost": recomputed,
        "reported_cost": search["best_cost"],
        "inverse_residual": unitarity,
        "inverse_round_trip_gap": round_trip_gap,
    }
