"""Gate-cost accounting for multiplexers.

An m-controlled gate costs a fixed number of uncontrolled and
singly-controlled primitives, assuming one reusable ancilla for the whole
circuit: a table for 0..9 controls, 32*m - 96 beyond that (the table and
formula agree at 9 controls).  Targets exactly equal to the identity cost
nothing; a target equal to the identity times a nontrivial phase is NOT
free, since a controlled phase is physical.  Line inverters on negative
controls are free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import blocksearch, kernels
from .mux import EPS, KQF, STANDARD, Multiplexer

GATE_COST_TABLE = (1, 1, 5, 13, 29, 52, 84, 116, 154, 192)


def gate_cost(num_controls: int) -> int:
    """Cost of one gate with the given number of controls."""
    if num_controls < 0:
        raise ValueError("control count cannot be negative")
    if num_controls < len(GATE_COST_TABLE):
        return GATE_COST_TABLE[num_controls]
    return 32 * num_controls - 96


def control_count(gate_index: int, polarity: str) -> int:
    """Controls on gate `gate_index` under the polarity digits.

    A fixed digit contributes one control iff the gate-index bit for that
    variable is 1; a mixed digit always contributes one.
    """
    m = len(polarity)
    count = 0
    for k, digit in enumerate(polarity):
        if digit == "2":
            count += 1
        elif (gate_index >> (m - 1 - k)) & 1:
            count += 1
    return count


def control_count_vector(polarity: str) -> np.ndarray:
    """control_count for every gate index, as an int64 vector."""
    return blocksearch.count_vector(polarity, KQF)


def cost_table_vector(max_controls: int) -> np.ndarray:
    """gate_cost for control counts 0..max_controls, for the fast kernels."""
    return np.array([gate_cost(c) for c in range(max_controls + 1)], dtype=np.int64)


@dataclass(frozen=True)
class GateCostEntry:
    gate_index: int
    controls: int
    cost: int


@dataclass(frozen=True)
class CostReport:
    per_gate: tuple
    total: int
    skipped_identities: int

    def to_json_dict(self) -> dict:
        return {
            "per_gate": [
                {"gate_index": e.gate_index, "controls": e.controls, "cost": e.cost}
                for e in self.per_gate
            ],
            "total": self.total,
            "skipped_identities": self.skipped_identities,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def format_table(self, max_rows: int = 64) -> str:
        """Aligned-column text table; long reports elide the middle."""
        lines = [f"{'gate':>6}  {'controls':>8}  {'cost':>6}"]
        entries = self.per_gate
        if len(entries) > max_rows:
            shown = list(entries[: max_rows - 8]) + list(entries[-8:])
            cut = len(entries) - len(shown)
        else:
            shown, cut = list(entries), 0
        half = max_rows - 8 if cut else len(shown)
        for pos, e in enumerate(shown):
            if cut and pos == half:
                lines.append(f"{'...':>6}  ({cut} rows elided)")
            lines.append(f"{e.gate_index:>6}  {e.controls:>8}  {e.cost:>6}")
        lines.append(f"total: {self.total}    skipped identities: {self.skipped_identities}")
        return "\n".join(lines)


def multiplexer_cost(mux: Multiplexer) -> CostReport:
    """Cost report for a multiplexer in its current form.

    Standard form counts every variable as a control on every gate (it is
    the all-mixed polarity).  Identity targets are skipped.
    """
    m = mux.controls
    if mux.form == STANDARD:
        counts = np.full(1 << m, m, dtype=np.int64)
    else:
        counts = blocksearch.count_vector(mux.polarity, mux.form)

    is_identity = kernels.identity_mask(mux.targets, EPS)
    per_gate = tuple(
        GateCostEntry(int(i), int(counts[i]), gate_cost(int(counts[i])))
        for i in np.nonzero(~is_identity)[0]
    )
    total = sum(e.cost for e in per_gate)
    return CostReport(per_gate, total, int(is_identity.sum()))
