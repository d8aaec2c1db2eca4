"""Gate-cost accounting for multiplexers.

An m-controlled gate costs a fixed number of uncontrolled and
singly-controlled primitives, assuming one reusable ancilla for the whole
circuit: a table for 0..9 controls, 32*m - 96 beyond that (the table and
formula agree at 9 controls).  Targets exactly equal to the identity cost
nothing; a target equal to the identity times a nontrivial phase is NOT
free, since a controlled phase is physical.  Line inverters on negative
controls are free.

multiplexer_cost's CostReport is a streamed view of its multiplexer: it
holds its identity decisions, its total and its skipped identities, and
no per-gate array of counts or costs.  A palette's decisions are one per
palette matrix; a staged palette's (a forward transform's, see
mux.Palette) are one bool per gate, taken from the chunks of
mux.target_chunks, by a pass of its own or by the pass that renders
them (streamed_cost).  Its rows are made kernels.CHUNK_ROWS gates at a
time, each chunk's counts from one blocksearch.count_rows of the pass,
whenever the JSON, CSV or text report asks for them; so pricing a
2^m-gate multiplexer builds no 2^m array of counts, and every report
path reads the rows the same way.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

import numpy as np

from . import blocksearch, jsonout, kernels
from .errors import QmuxError
from .mux import EPS, KQF, Multiplexer, target_chunks

GATE_COST_TABLE = (1, 1, 5, 13, 29, 52, 84, 116, 154, 192)

# Rows format_table prints whole; a longer table keeps its first 56 and last 8.
TABLE_MAX_ROWS = 64


def gate_cost(num_controls: int) -> int:
    """Cost of one gate with the given number of controls."""
    if num_controls < 0:
        raise QmuxError(f"control count cannot be negative, got {num_controls}")
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
    """Cost of every gate of a multiplexer that is not the identity, in gate
    order, as a streamed view of the multiplexer: the report holds its
    identity decisions (`live`, True for a matrix or gate that costs: one
    per palette matrix, or one per gate when `by_gate`) and its total and
    skipped identities, and no per-gate array of counts or costs.  Its
    (gate index, controls, cost) rows are made kernels.CHUNK_ROWS gates at
    a time, each chunk's counts from one blocksearch.count_rows of the
    pass, whenever a writer asks for them (see batches and rows)."""

    mux: Multiplexer
    live: np.ndarray
    total: int
    skipped_identities: int
    by_gate: bool = False

    def batches(self, reverse=False):
        """The costed gates among each kernels.CHUNK_ROWS gates, as int64
        arrays (gate index, controls, cost), chunks in gate order, or from
        the last chunk back."""
        return _batches(self.mux, self.live, self.by_gate, reverse)

    def rows(self, reverse=False):
        """(gate index, controls, cost) rows as Python ints, in gate order,
        or from the last row back."""
        for batch in self.batches(reverse):
            rows = zip(*(column.tolist() for column in batch))
            yield from reversed(list(rows)) if reverse else rows

    def to_json_dict(self) -> dict:
        """JSON body for jsonout.write_json; per_gate is a Table of the
        columns gate_index, controls and cost, handed to the writer as
        batches, one chunk of gates each."""
        keys = ("gate_index", "controls", "cost")
        return {
            "per_gate": jsonout.Table(keys, batches=self.batches()),
            "total": self.total,
            "skipped_identities": self.skipped_identities,
        }

    def format_table(self) -> str:
        """Aligned-column text table; long reports elide the middle.  Only
        the chunks that hold the rows shown are made."""
        row = "{:>6}  {:>8}  {:>6}".format
        lines = [row("gate", "controls", "cost")]
        n = self.mux.num_targets - self.skipped_identities
        if n <= TABLE_MAX_ROWS:
            lines += [row(*r) for r in self.rows()]
        else:
            lines += [row(*r) for r in itertools.islice(self.rows(), TABLE_MAX_ROWS - 8)]
            lines.append(f"{'...':>6}  ({n - TABLE_MAX_ROWS} rows elided)")
            tail = list(itertools.islice(self.rows(reverse=True), 8))
            lines += [row(*r) for r in reversed(tail)]
        lines.append(f"total: {self.total}    skipped identities: {self.skipped_identities}")
        return "\n".join(lines)


def _batches(mux: Multiplexer, live: np.ndarray, by_gate: bool, reverse: bool):
    """CostReport.batches of the multiplexer, whose palette matrices, or
    gates when by_gate, cost where `live` is True."""
    table = cost_table_vector(mux.controls)
    counts = blocksearch.count_rows(mux.digits, KQF)
    starts = range(0, mux.num_targets, kernels.CHUNK_ROWS)
    for start in reversed(starts) if reverse else starts:
        rows = slice(start, start + kernels.CHUNK_ROWS)
        alive = live[rows] if by_gate else mux.palette.per_gate(live, rows)
        controls = counts(rows)[alive]
        yield np.flatnonzero(alive) + start, controls, table[controls]


def multiplexer_cost(mux: Multiplexer, live: np.ndarray | None = None) -> CostReport:
    """Cost report for a multiplexer in its current form (standard form is
    the all-mixed polarity).  Identity targets are skipped; the identity
    test runs once per palette matrix, or, on a staged palette, once per
    gate in one pass over mux.target_chunks, unless `live` brings the
    decisions of a pass already made (see streamed_cost).  The total and
    the count of skipped identities come from one pass over the report's
    batches."""
    by_gate = live is not None or bool(mux.palette.tail)
    if live is None:
        if by_gate:
            live = np.empty(mux.num_targets, dtype=bool)
            collections.deque(_recorded(mux, live), maxlen=0)
        else:
            live = ~kernels.identity_mask(mux.palette.matrices, EPS)
    total = costed = 0
    for gate_index, _, costs in _batches(mux, live, by_gate, reverse=False):
        total += int(costs.sum())
        costed += len(gate_index)
    return CostReport(mux, live, total, mux.num_targets - costed, by_gate)


def _recorded(mux: Multiplexer, live: np.ndarray):
    """The chunks of mux.target_chunks, each chunk's identity decisions
    written into `live` (True where a gate costs) before it is yielded."""
    start = 0
    for chunk in target_chunks(mux):
        decisions = live[start : start + len(chunk)]
        np.logical_not(kernels.identity_mask(chunk, EPS, out=decisions), out=decisions)
        start += len(chunk)
        yield chunk


def streamed_cost(mux: Multiplexer) -> tuple:
    """(chunks, report): the chunks of mux.target_chunks, each recording
    its identity decisions as it passes, and a function that returns the
    multiplexer's CostReport from those decisions once the chunks are used
    up, so a report that renders the targets and prices them runs each
    chunk's tail once."""
    live = np.empty(mux.num_targets, dtype=bool)
    passed = []

    def chunks():
        yield from _recorded(mux, live)
        passed.append(True)

    def report() -> CostReport:
        if not passed:
            raise RuntimeError("the cost report was asked for before its chunks were used up")
        return multiplexer_cost(mux, live)

    return chunks(), report
