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
whose float residuals stay inside EPS over m columns (`group.intern` of
the multiplexer's palette; every built-in pool up to m = 18), both
searches walk uint8 element IDs through the group's product tables
instead of complex 2x2 products, and the identity test is exact; the
complex targets are then never built.  Costs, polarities and tie-breaks
are the same as on the complex path, which runs for all other targets,
such as RX(theta) or arbitrary matrix literals.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import blocksearch, cost, group, kernels, mux, randmux
from .blocksearch import FAMILY_DIGITS
from .errors import FormMismatch, SizeLimitExceeded


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


def _roots(std: mux.Multiplexer) -> tuple:
    """(gate_group, roots): group.intern of the palette and the gate count,
    and a function that returns a new writable vector for a cascade to
    start from.  When intern accepts, that vector is each gate's uint8
    element ID, spread once from the palette's IDs and copied per call;
    otherwise gate_group is None and it is the complex targets, expanded
    from the palette on each call, so no complex vector outlives its
    cascade.
    """
    interned = group.intern(std.palette.matrices, std.num_targets)
    if interned is None:
        return None, functools.partial(mux.working_targets, std)
    gate_group, ids = interned
    return gate_group, std.palette.per_gate(ids).copy


def _cost(targets: np.ndarray, counts: np.ndarray, controls: int) -> int:
    """Cost of a polarized target vector (gates or IDs) by blocksearch's one
    rule, given its polarity's count_vector; the standard form is the
    all-'2' KQF polarity.  The identity test is exact on IDs and within EPS
    on complex targets, the same decision (see group)."""
    table = cost.cost_table_vector(controls)
    return kernels.mux_cost(targets, counts, table, mux.EPS)[0]


def _original_cost(targets: np.ndarray, std: mux.Multiplexer) -> int:
    """Cost of the standard form's targets (gates or IDs)."""
    return _cost(targets, blocksearch.count_vector(std.digits, mux.KQF), std.controls)


def _exhaustive(std: mux.Multiplexer, family: str) -> tuple:
    """(costs, original): polarity_costs, and the original cost, taken from
    the root vector before the DFS starts on it."""
    _require_standard(std)
    blocksearch.check_size(family, std.controls)
    gate_group, roots = _roots(std)
    root = roots()
    original = _original_cost(root, std)
    table = cost.cost_table_vector(std.controls)
    return blocksearch.polarity_costs(root, family, table, gate_group), original


def polarity_costs(std: mux.Multiplexer, family: str) -> np.ndarray:
    """Cost of every polarity of the family, as int64 in lexicographic
    polarity order (see blocksearch)."""
    return _exhaustive(std, family)[0]


def _summary(
    std: mux.Multiplexer, cfg: SearchConfig, mode: str, best, worst, total, count,
    original, start: float,
) -> SearchReport:
    """SearchReport of `count` evaluated polarities costing `total` in all,
    and of the original cost, for a search begun at `start`.  best and
    worst are (cost, index) of the lowest and highest cost, each tie to
    the smallest index: the polarity read as a base-b numeral, so index
    order is lexicographic order."""
    names = blocksearch.polarity_names([best[1], worst[1]], cfg.family, std.controls)
    return SearchReport(
        family=cfg.family,
        mode=mode,
        controls=std.controls,
        original_cost=original,
        best_polarity=names[0],
        best_cost=best[0],
        worst_polarity=names[1],
        worst_cost=worst[0],
        average_cost=total / count,
        polarities_evaluated=count,
        elapsed=time.perf_counter() - start,
    )


def exhaustive_search(std: mux.Multiplexer, cfg: SearchConfig) -> SearchReport:
    """Evaluate every polarity of cfg.family and aggregate the results."""
    start = time.perf_counter()
    costs, original = _exhaustive(std, cfg.family)
    # argmin and argmax take the first extreme, the smallest index.
    best, worst = int(costs.argmin()), int(costs.argmax())
    return _summary(
        std, cfg, "exhaustive", (int(costs[best]), best), (int(costs[worst]), worst),
        int(costs.sum()), len(costs), original, start,
    )


def random_polarity_search(std: mux.Multiplexer, cfg: SearchConfig) -> SearchReport:
    """Evaluate cfg.samples polarities drawn uniformly (with replacement).

    Deterministic for a fixed seed: draws come from numpy's default
    generator (PCG64) seeded with cfg.seed.  Only running aggregates of the
    samples are kept, so memory does not grow with cfg.samples.
    """
    _require_standard(std)
    if std.controls > randmux.MAX_CONTROLS:
        raise SizeLimitExceeded(
            f"random search is limited to {randmux.MAX_CONTROLS} controls, got {std.controls}"
        )
    m = std.controls
    base = len(FAMILY_DIGITS[cfg.family])
    rng = np.random.default_rng(cfg.seed)
    start = time.perf_counter()
    gate_group, roots = _roots(std)
    original = _original_cost(roots(), std)
    # A polarity's counts depend only on where its '2' digits are: one
    # vector serves every FPQF sample, and KQF keeps the last mask's.
    counts = {}
    # The (cost, index) samples of the lowest cost and of the highest,
    # each tie to the smallest index.
    best = worst = None
    total = 0
    for _ in range(cfg.samples):
        polarity = "".join(str(d) for d in rng.integers(0, base, size=m))
        mask = blocksearch.digit_mask(polarity, "2")
        if mask not in counts:
            counts.clear()  # the old vector is freed before the new one is built
            counts[mask] = blocksearch.count_vector(polarity, cfg.family)
        targets = blocksearch.cascade(roots(), polarity, cfg.family, gate_group)
        sample = (_cost(targets, counts[mask], m), int(polarity, base))
        del targets  # freed before the next sample's root is made
        best = min(best or sample, sample)
        worst = min(worst or sample, sample, key=lambda s: (-s[0], s[1]))
        total += sample[0]
    return _summary(std, cfg, "random", best, worst, total, cfg.samples, original, start)


def run_search(std: mux.Multiplexer, cfg: SearchConfig) -> SearchReport:
    if cfg.mode == "random":
        return random_polarity_search(std, cfg)
    return exhaustive_search(std, cfg)
