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

from dataclasses import dataclass

import numpy as np

from . import blocksearch, jsonout, kernels
from .mux import EPS, KQF, Multiplexer

GATE_COST_TABLE = (1, 1, 5, 13, 29, 52, 84, 116, 154, 192)

# Rows format_table prints whole; a longer table keeps its first 56 and last 8.
TABLE_MAX_ROWS = 64


def gate_cost(num_controls: int) -> int:
    """Cost of one gate with the given number of controls."""
    if num_controls < 0:
        raise ValueError("control count cannot be negative")
    if num_controls < len(GATE_COST_TABLE):
        return GATE_COST_TABLE[num_controls]
    return 32 * num_controls - 96


def control_count_vector(polarity: str) -> np.ndarray:
    """Controls on every gate under the polarity, as an int64 vector."""
    return blocksearch.count_vector(polarity, KQF)


def cost_table_vector(max_controls: int) -> np.ndarray:
    """gate_cost for control counts 0..max_controls, for the fast kernels."""
    return np.array([gate_cost(c) for c in range(max_controls + 1)], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class CostReport:
    """Cost of every gate that is not the identity, in gate order, as
    int64 arrays: its index, its control count and its cost."""

    gate_index: np.ndarray
    controls: np.ndarray
    costs: np.ndarray
    skipped_identities: int

    @property
    def total(self) -> int:
        return int(self.costs.sum())

    def rows(self, which=slice(None)):
        """(gate index, controls, cost) rows as Python ints; `which`
        selects among the costed gates."""
        columns = (self.gate_index[which], self.controls[which], self.costs[which])
        return zip(*(column.tolist() for column in columns))

    def to_json_dict(self) -> dict:
        """JSON body for jsonout.write_json; per_gate is a Table of the
        columns gate_index, controls and cost, which the writer reads from
        the arrays a batch of rows at a time."""
        columns = (self.gate_index, self.controls, self.costs)
        return {
            "per_gate": jsonout.Table(("gate_index", "controls", "cost"), columns),
            "total": self.total,
            "skipped_identities": self.skipped_identities,
        }

    def format_table(self) -> str:
        """Aligned-column text table; long reports elide the middle."""
        row = "{:>6}  {:>8}  {:>6}".format
        lines = [row("gate", "controls", "cost")]
        n = len(self.costs)
        if n <= TABLE_MAX_ROWS:
            lines += [row(*r) for r in self.rows()]
        else:
            lines += [row(*r) for r in self.rows(slice(0, TABLE_MAX_ROWS - 8))]
            lines.append(f"{'...':>6}  ({n - TABLE_MAX_ROWS} rows elided)")
            lines += [row(*r) for r in self.rows(slice(n - 8, n))]
        lines.append(f"total: {self.total}    skipped identities: {self.skipped_identities}")
        return "\n".join(lines)


def multiplexer_cost(mux: Multiplexer) -> CostReport:
    """Cost report for a multiplexer in its current form (standard form is
    the all-mixed polarity).  Identity targets are skipped."""
    counts = blocksearch.count_vector(mux.digits, KQF)
    is_identity = kernels.identity_mask(mux.targets, EPS)
    gate_index = np.flatnonzero(~is_identity).astype(np.int64, copy=False)
    controls = counts[gate_index]
    costs = cost_table_vector(mux.controls)[controls]
    return CostReport(gate_index, controls, costs, int(is_identity.sum()))
