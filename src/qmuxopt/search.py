"""Exhaustive and random polarity search over a standard-form multiplexer.

The exhaustive search is `blocksearch.polarity_costs` of the family
(FPQF or KQF), which picks the quantum columns itself: a DFS of forward
columns over all but the bottom `blocksearch.BLOCK_VARS` digits, then one
block of quantum extended-vector slots per DFS node, which costs all of
the node's suffix polarities at once.  A gate's count is its number of
controls: a fixed digit controls the gates at its set-bit indices, a '2'
digit every gate, and `cost.gate_cost` prices the count of every gate
that is not the identity.  Random search runs one `blocksearch.cascade`
per sampled polarity.

When the targets close under multiplication into a small finite group
whose float residuals stay inside EPS over m columns (`group.intern`;
every built-in pool up to m = 18), both searches walk uint8 element IDs
through the group's product tables instead of complex 2x2 products, and
the identity test is exact.  Costs, polarities and tie-breaks are the
same as on the complex path, which runs for all other targets, such as
RX(theta) or arbitrary matrix literals.
"""

from __future__ import annotations

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
    table = cost.cost_table_vector(std.controls)
    return blocksearch.polarity_costs(root, family, table, gate_group)


def _summary(
    std: mux.Multiplexer, cfg: SearchConfig, mode: str, indices, costs, start: float
) -> SearchReport:
    """SearchReport of the evaluated polarities, given by their indices
    (the polarity read as a base-b numeral, so index order is
    lexicographic order) and costs, for a search begun at `start`."""
    m, base = std.controls, len(FAMILY_DIGITS[cfg.family])
    indices = np.asarray(indices, dtype=np.int64)
    costs = np.asarray(costs, dtype=np.int64)
    # Lowest and highest cost, each tie to the lexicographically smallest.
    best = indices[np.lexsort((indices, costs))[0]]
    worst = indices[np.lexsort((indices, -costs))[0]]
    original, _ = kernels.mux_cost(
        std.targets,
        blocksearch.count_vector(std.digits, mux.KQF),
        cost.cost_table_vector(m),
        mux.EPS,
    )
    return SearchReport(
        family=cfg.family,
        mode=mode,
        controls=m,
        original_cost=original,
        best_polarity=np.base_repr(best, base).zfill(m),
        best_cost=int(costs.min()),
        worst_polarity=np.base_repr(worst, base).zfill(m),
        worst_cost=int(costs.max()),
        average_cost=int(costs.sum()) / len(costs),
        polarities_evaluated=len(costs),
        elapsed=time.perf_counter() - start,
    )


def exhaustive_search(std: mux.Multiplexer, cfg: SearchConfig) -> SearchReport:
    """Evaluate every polarity of cfg.family and aggregate the results."""
    start = time.perf_counter()
    costs = polarity_costs(std, cfg.family)
    return _summary(std, cfg, "exhaustive", np.arange(len(costs)), costs, start)


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
    gate_group, root = _interned(std)
    indices, values = [], []
    for _ in range(cfg.samples):
        polarity = "".join(str(d) for d in rng.integers(0, base, size=m))
        targets = blocksearch.cascade(root, polarity, cfg.family, gate_group)
        counts = blocksearch.count_vector(polarity, cfg.family)
        indices.append(int(polarity, base))
        values.append(kernels.mux_cost(targets, counts, cost_table, mux.EPS)[0])
    return _summary(std, cfg, "random", indices, values, start)


def run_search(std: mux.Multiplexer, cfg: SearchConfig) -> SearchReport:
    if cfg.mode == "random":
        return random_polarity_search(std, cfg)
    return exhaustive_search(std, cfg)
