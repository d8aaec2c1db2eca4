"""Exhaustive and random polarity search over a standard-form multiplexer.

The exhaustive search is `blocksearch.polarity_costs` on the quantum
butterfly: a DFS of `kernels.gate_stage` forward columns over the top
digits, then blocks of `kernels.qetv_stage` slots.  A gate's count is its
number of controls: a fixed digit controls the gates at its set-bit
indices, a '2' digit every gate, and `cost.gate_cost` prices the count
of every gate that is not the identity.  Random search runs one forward
cascade per sampled polarity.

When the targets close under multiplication into a small finite group
whose float residuals stay inside EPS over m columns (`group.intern`;
every built-in pool up to m = 18), both searches walk uint8 element IDs
through the group's product tables instead of complex 2x2 products, and
the identity test is exact.  Costs, polarities and tie-breaks are the
same as on the complex path, which runs for all other targets, such as
RX(theta) or arbitrary matrix literals.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import blocksearch, cost, group, kernels, mux
from .blocksearch import FAMILY_DIGITS
from .errors import FormMismatch, SizeLimitExceeded

RANDOM_LIMIT = 20


@dataclass
class SearchConfig:
    family: str = mux.FPQF
    mode: str = "exhaustive"
    samples: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.family not in (mux.FPQF, mux.KQF):
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


def _require_standard(std: mux.Multiplexer):
    if std.form != mux.STANDARD:
        raise FormMismatch(f"search needs a standard-form multiplexer, got {std.form}")


def _standard_cost(std: mux.Multiplexer) -> int:
    """Total cost of the standard form, where every gate has all m controls,
    without building the per-gate entries of cost.multiplexer_cost."""
    m = std.controls
    counts = np.full(1 << m, m, dtype=np.int64)
    total, _ = kernels.mux_cost(std.targets, counts, cost.cost_table_vector(m), mux.EPS)
    return total


def _interned(std: mux.Multiplexer) -> tuple:
    """(gate_group, ids) from group.intern, or (None, targets) when the
    targets do not close: the search then runs on complex matrices."""
    return group.intern(std.targets) or (None, std.targets)


def polarity_costs(std: mux.Multiplexer, family: str) -> np.ndarray:
    """Cost of every polarity of the family, as int64 in lexicographic
    polarity order (see blocksearch)."""
    _require_standard(std)
    blocksearch.check_size(family, std.controls)
    gate_group, root = _interned(std)
    return blocksearch.polarity_costs(
        root,
        family,
        stage=lambda vec, digit, bit: kernels.gate_stage(
            vec, mux._FORWARD_KERNELS[digit], bit, gate_group
        ),
        column=lambda pairs, out: kernels.qetv_stage(pairs, out, gate_group),
        live=lambda gates: ~kernels.identity_mask(gates, mux.EPS),
        cost_table=cost.cost_table_vector(std.controls),
    )


def iter_polarity_costs(std: mux.Multiplexer, family: str):
    """Yield (polarity, cost) for every polarity of the family, in
    lexicographic order (see polarity_costs)."""
    costs = polarity_costs(std, family).tolist()
    names = itertools.product(FAMILY_DIGITS[family], repeat=std.controls)
    for name, value in zip(names, costs):
        yield "".join(name), value


def exhaustive_search(std: mux.Multiplexer, cfg: SearchConfig) -> SearchReport:
    """Evaluate every polarity of cfg.family and aggregate the results."""
    start = time.perf_counter()
    costs = polarity_costs(std, cfg.family)
    original = _standard_cost(std)
    # argmin/argmax take the first index: the lexicographically smallest tie.
    best, worst = int(costs.argmin()), int(costs.argmax())
    # The family's digits are the numerals of its base, in order.
    base, m = len(FAMILY_DIGITS[cfg.family]), std.controls
    elapsed = time.perf_counter() - start
    return SearchReport(
        family=cfg.family,
        mode="exhaustive",
        controls=m,
        original_cost=original,
        best_polarity=np.base_repr(best, base).zfill(m),
        best_cost=int(costs[best]),
        worst_polarity=np.base_repr(worst, base).zfill(m),
        worst_cost=int(costs[worst]),
        average_cost=int(costs.sum()) / len(costs),
        polarities_evaluated=len(costs),
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
    polarities, values = [], []
    for _ in range(cfg.samples):
        polarity = "".join(str(d) for d in rng.integers(0, base, size=m))
        targets = mux.transform_stages(root, polarity, "forward", gate_group)
        counts = blocksearch.count_vector(polarity, cfg.family)
        polarities.append(polarity)
        values.append(kernels.mux_cost(targets, counts, cost_table, mux.EPS)[0])
    # Lowest and highest cost, each tie to the lexicographically smallest.
    best_cost, best = min(zip(values, polarities))
    negated_worst, worst = min(zip([-v for v in values], polarities))
    elapsed = time.perf_counter() - start
    return SearchReport(
        family=cfg.family,
        mode="random",
        controls=m,
        original_cost=original,
        best_polarity=best,
        best_cost=best_cost,
        worst_polarity=worst,
        worst_cost=-negated_worst,
        average_cost=sum(values) / len(values),
        polarities_evaluated=len(values),
        elapsed=elapsed,
    )


def run_search(std: mux.Multiplexer, cfg: SearchConfig) -> SearchReport:
    if cfg.mode == "random":
        return random_polarity_search(std, cfg)
    return exhaustive_search(std, cfg)
