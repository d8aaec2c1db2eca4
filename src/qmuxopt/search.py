"""Exhaustive and random polarity search over a standard-form multiplexer.

The exhaustive walk is a depth-first recursion over polarity digits: a
node at depth k holds the gate vector after the butterfly columns of the
first k control variables, so sibling polarities share their common prefix
work.  Per-gate control counts accumulate along the same path.  Memory
along one root-to-leaf path is O(m * 2^m) gates.

When the targets close under multiplication into a small finite group
whose float residuals stay inside EPS over m columns (`group.intern`;
every built-in pool up to m = 18), both searches walk uint8 element IDs
through the group's product table instead of complex 2x2 products, and
the leaf identity test is exact.  Costs, polarities and tie-breaks are
the same as on the complex path, which runs for all other targets, such
as RX(theta) or arbitrary matrix literals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import cost, group, kernels, mux
from .errors import FormMismatch, SizeLimitExceeded

# 2^14 FPQF leaves / 3^9 KQF leaves keep exhaustive runs in the minutes.
EXHAUSTIVE_LIMITS = {mux.FPQF: 14, mux.KQF: 9}
RANDOM_LIMIT = 20

FAMILY_DIGITS = {mux.FPQF: "01", mux.KQF: "012"}


@dataclass
class SearchConfig:
    family: str = mux.FPQF
    mode: str = "exhaustive"
    samples: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILY_DIGITS:
            raise ValueError(f"unknown family {self.family!r}")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.samples < 1:
            raise ValueError("samples must be positive")


@dataclass
class SearchReport:
    family: str
    mode: str
    controls: int
    original_cost: int
    best_polarity: str
    best_cost: int
    worst_polarity: str
    worst_cost: int
    average_cost: float
    polarities_evaluated: int
    elapsed: float = field(default=0.0, compare=False)

    @property
    def average_reduction(self) -> float:
        """1 - average/original; 0 when the original already costs nothing."""
        if self.original_cost == 0:
            return 0.0
        return 1.0 - self.average_cost / self.original_cost

    @property
    def best_reduction(self) -> float:
        if self.original_cost == 0:
            return 0.0
        return 1.0 - self.best_cost / self.original_cost

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "mode": self.mode,
            "controls": self.controls,
            "original_cost": self.original_cost,
            "best_polarity": self.best_polarity,
            "best_cost": self.best_cost,
            "worst_polarity": self.worst_polarity,
            "worst_cost": self.worst_cost,
            "average_cost": self.average_cost,
            "average_reduction": self.average_reduction,
            "best_reduction": self.best_reduction,
            "polarities_evaluated": self.polarities_evaluated,
            "elapsed_s": self.elapsed,
        }

    def csv_row(self) -> str:
        """controls, original, best, worst, average, reduction% (average-based)."""
        return (
            f"{self.controls},{self.original_cost},{self.best_cost},"
            f"{self.worst_cost},{self.average_cost:.2f},"
            f"{100.0 * self.average_reduction:.1f}"
        )


class _Tally:
    """Order-independent reduction: min/max with lexicographic tie-breaks."""

    def __init__(self):
        self.best_polarity = None
        self.best_cost = None
        self.worst_polarity = None
        self.worst_cost = None
        self.total = 0
        self.count = 0

    def add(self, polarity, value):
        if (
            self.best_cost is None
            or value < self.best_cost
            or (value == self.best_cost and polarity < self.best_polarity)
        ):
            self.best_cost = value
            self.best_polarity = polarity
        if (
            self.worst_cost is None
            or value > self.worst_cost
            or (value == self.worst_cost and polarity < self.worst_polarity)
        ):
            self.worst_cost = value
            self.worst_polarity = polarity
        self.total += value
        self.count += 1


def _require_standard(std: mux.Multiplexer):
    if std.form != mux.STANDARD:
        raise FormMismatch(f"search needs a standard-form multiplexer, got {std.form}")


def _standard_cost(std: mux.Multiplexer) -> int:
    """Total cost of the standard form, where every gate has all m controls,
    without building the per-gate entries of cost.multiplexer_cost."""
    m = std.controls
    counts = np.full(1 << m, m, dtype=np.int64)
    total, _ = cost.fast_total_cost(std.targets, counts, cost.cost_table_vector(m))
    return total


def _interned(std: mux.Multiplexer) -> tuple:
    """(gate_group, ids) from group.intern, or (None, targets) when the
    targets do not close: the search then runs on complex matrices."""
    return group.intern(std.targets) or (None, std.targets)


def iter_polarity_costs(std: mux.Multiplexer, family: str):
    """Yield (polarity, cost) for every polarity of the family, in
    lexicographic order, via the prefix-sharing DFS."""
    _require_standard(std)
    m = std.controls
    digits = FAMILY_DIGITS[family]
    idx = np.arange(1 << m)
    bit_vectors = [((idx >> (m - 1 - k)) & 1).astype(np.int64) for k in range(m)]
    cost_table = cost.cost_table_vector(m)
    gate_group, root = _interned(std)

    def walk(targets, counts, depth, prefix):
        if depth == m:
            total, _ = cost.fast_total_cost(targets, counts, cost_table)
            yield "".join(prefix), total
            return
        bit = m - 1 - depth
        for digit in digits:
            child = kernels.gate_stage(targets, mux._FORWARD_KERNELS[digit], bit, gate_group)
            if digit == "2":
                child_counts = counts + 1
            else:
                child_counts = counts + bit_vectors[depth]
            prefix.append(digit)
            yield from walk(child, child_counts, depth + 1, prefix)
            prefix.pop()

    yield from walk(root, np.zeros(1 << m, dtype=np.int64), 0, [])


def exhaustive_search(std: mux.Multiplexer, cfg: SearchConfig) -> SearchReport:
    """Evaluate every polarity of cfg.family and aggregate the results."""
    _require_standard(std)
    limit = EXHAUSTIVE_LIMITS[cfg.family]
    if std.controls > limit:
        raise SizeLimitExceeded(
            f"exhaustive {cfg.family} search is limited to {limit} controls, "
            f"got {std.controls}"
        )
    start = time.perf_counter()
    original = _standard_cost(std)
    tally = _Tally()
    for polarity, value in iter_polarity_costs(std, cfg.family):
        tally.add(polarity, value)
    elapsed = time.perf_counter() - start
    return SearchReport(
        family=cfg.family,
        mode="exhaustive",
        controls=std.controls,
        original_cost=original,
        best_polarity=tally.best_polarity,
        best_cost=tally.best_cost,
        worst_polarity=tally.worst_polarity,
        worst_cost=tally.worst_cost,
        average_cost=tally.total / tally.count,
        polarities_evaluated=tally.count,
        elapsed=elapsed,
    )


def random_polarity_search(std: mux.Multiplexer, cfg: SearchConfig) -> SearchReport:
    """Evaluate cfg.samples polarities drawn uniformly (with replacement).

    Deterministic for a fixed seed: draws come from numpy's default
    generator (PCG64) seeded with cfg.seed.
    """
    _require_standard(std)
    if std.controls > RANDOM_LIMIT:
        raise SizeLimitExceeded(
            f"random search is limited to {RANDOM_LIMIT} controls, got {std.controls}"
        )
    m = std.controls
    base = len(FAMILY_DIGITS[cfg.family])
    cost_table = cost.cost_table_vector(m)
    rng = np.random.default_rng(cfg.seed)
    start = time.perf_counter()
    original = _standard_cost(std)
    gate_group, root = _interned(std)
    tally = _Tally()
    for _ in range(cfg.samples):
        polarity = "".join(str(d) for d in rng.integers(0, base, size=m))
        targets = mux.transform_stages(root, polarity, "forward", gate_group)
        counts = cost.control_count_vector(polarity)
        value, _ = cost.fast_total_cost(targets, counts, cost_table)
        tally.add(polarity, value)
    elapsed = time.perf_counter() - start
    return SearchReport(
        family=cfg.family,
        mode="random",
        controls=m,
        original_cost=original,
        best_polarity=tally.best_polarity,
        best_cost=tally.best_cost,
        worst_polarity=tally.worst_polarity,
        worst_cost=tally.worst_cost,
        average_cost=tally.total / tally.count,
        polarities_evaluated=tally.count,
        elapsed=elapsed,
    )


def run_search(std: mux.Multiplexer, cfg: SearchConfig) -> SearchReport:
    if cfg.mode == "random":
        return random_polarity_search(std, cfg)
    return exhaustive_search(std, cfg)
