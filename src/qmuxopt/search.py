"""Exhaustive and random polarity search over a standard-form multiplexer.

The exhaustive search is a depth-first recursion over the top t polarity
digits: a node at depth k holds the gate vector after the butterfly
columns of the first k control variables, so sibling polarities share
their common prefix work, and each row of 2^b gates (b = m - t) carries
the control count its prefix gives it.

A depth-t node costs all of its suffix polarities at once from the rows'
quantum extended vectors (QETV; `kernels.qetv_stage`).  Expanding one
variable maps each pair (a, b) to four slots, a, b, b a^-1 and a b^-1,
and a forward column keeps two of them: '1' slots (0, 2), '0' slots
(1, 3) and '2' slots (0, 1).  So after b expansions every suffix
polarity's gate is one of a row's 4^b slots, the same product of the
same operands as the per-polarity cascade.  A gate's control count is
its prefix count plus one per kept slot 2 or 3 plus one per '2' digit.
GATE_COST_TABLE is not linear in that count, so the search reduces a
histogram H[count, slot] of the non-identity slots, seeded by the rows'
prefix counts in one bincount, one variable at a time (4 slots -> the
family's digits, one more count bin; shift moves every count up by one):

  '0'  H[b] + shift(H[a b^-1])
  '1'  H[a] + shift(H[b a^-1])
  '2'  shift(H[a] + H[b])

and the node's costs are cost_table @ H, in lexicographic suffix order.
That takes about 4^b products per row where per-leaf cascades take about
3^b 2^b.  A row's block is 4^b gates, so BLOCK_VARS bounds it instead of
expanding all m variables: a KQF node at m = 9 holds 8 rows of 4^6 slots,
32 KB of IDs or 2 MB of complex matrices, where all 4^9 slots at once
would take 16.8 MB of complex matrices.  With b = 0 the block is the
plain leaf, one histogram over the node's 2^m gates.

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

from . import cost, group, kernels, mux
from .errors import FormMismatch, SizeLimitExceeded

# Exhaustive searches cost 2^14 FPQF / 3^9 KQF polarities at most.
EXHAUSTIVE_LIMITS = {mux.FPQF: 14, mux.KQF: 9}
RANDOM_LIMIT = 20

FAMILY_DIGITS = {mux.FPQF: "01", mux.KQF: "012"}

# Bottom variables each DFS node expands to QETV slots (b); 0 costs each
# polarity at its own leaf.  In process on a 2-core Xeon (seed 3, search
# without intern, median of 9), KQF at m = 9 on the full pool (IDs) took
# 54, 33, 26, 18 and 12 ms at b = 4, 5, 6, 7 and 9, with traced peaks of
# 0.4, 0.5, 0.9, 1.7 and 6.7 MB, against 0.6 s with b = 0; on
# custom:X,I,RX(0.3),H (complex) b = 6 took 0.62 s at a 5.5 MB peak and
# b = 9 0.18 s at 42 MB, against 3.5 s.  b = 6 keeps both peaks small.
# FPQF digits keep disjoint slots, so its polarities share no products:
# at m = 12 on custom:X,I,RX(0.3), b = 0, 2 and 4 took 7.7, 8.6 and 8.0 s
# (peaks 4.5, 5.5 and 12.7 MB), so FPQF stays at its leaves.
BLOCK_VARS = {mux.FPQF: 0, mux.KQF: 6}

# QETV slots each digit keeps as its (clear-bit, set-bit) outputs.  Slots 2
# and 3 (b a^-1, a b^-1) sit at set-bit indices, so they add a control; a
# '2' digit adds one to both of its slots.
_QETV_SLOTS = {"0": (1, 3), "1": (0, 2), "2": (0, 1)}


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


def _qetv_rows(rows: np.ndarray, group) -> np.ndarray:
    """QETV of each row: (r, 2^b, ...) gates or IDs -> (r, 4^b, ...) slots.

    Columns run in cascade order, top row bit first, as in the forward
    transform.  Each new slot axis lands outside the earlier ones, so the
    first variable's slot is the least significant; keeping the unexpanded
    bits outermost keeps every column's operands in long contiguous runs.
    """
    r, tail = rows.shape[0], rows.shape[2:]
    etv = rows.reshape(r, rows.shape[1], 1, *tail)
    while etv.shape[1] > 1:
        pairs = etv.reshape(r, 2, etv.shape[1] // 2, etv.shape[2], *tail)
        out = np.empty((r, pairs.shape[2], 4, pairs.shape[3], *tail), rows.dtype)
        kernels.qetv_stage(pairs, out.swapaxes(1, 2), group)
        etv = out.reshape(r, pairs.shape[2], -1, *tail)
    return etv.reshape(r, -1, *tail)


def _block_costs(rows, prefix_counts, digits, group, cost_table) -> np.ndarray:
    """Cost of every suffix polarity of one depth-t DFS node.

    rows is the node's vector as (2^t, 2^b, ...) gates or IDs, and
    prefix_counts[r] the control count the top t digits give row r.
    Returns len(digits)^b int64 costs in lexicographic suffix order.
    """
    r, width = rows.shape[:2]
    etv = _qetv_rows(rows, group)
    live = ~kernels.identity_mask(etv.reshape(-1, *rows.shape[2:]), mux.EPS)
    del etv
    # hist[c, s]: non-identity slot s in rows whose prefix count is c (0..t).
    # Every entry counts at most 2^m gates, so int32 holds it.
    slots, bins = live.size // r, r.bit_length()
    index = np.add.outer(prefix_counts * slots, np.arange(slots))
    hist = np.bincount(index.reshape(-1), weights=live, minlength=bins * slots)
    hist = hist.astype(np.int32).reshape(bins, 1, slots)
    base = len(digits)
    while hist.shape[2] > 1:
        # Reduce the last variable left, whose slot axis is the outermost:
        # (count, digits reduced so far, its 4 slots, the earlier variables'
        # slots) -> (count + 1, its digit, digits so far, earlier slots).
        done, rest = hist.shape[1], hist.shape[2] // 4
        h4 = hist.reshape(bins, done, 4, rest)
        out = np.zeros((bins + 1, base, done, rest), dtype=np.int32)
        for k, digit in enumerate(digits):
            for slot in _QETV_SLOTS[digit]:
                shift = int(digit == "2" or slot >= 2)
                out[shift : shift + bins, k] += h4[:, :, slot]
        bins += 1
        hist = out.reshape(bins, base * done, rest)
    return cost_table @ hist.reshape(bins, -1)


def polarity_costs(std: mux.Multiplexer, family: str) -> np.ndarray:
    """Cost of every polarity of the family, as int64 in lexicographic
    polarity order: a prefix-sharing DFS over the top m - BLOCK_VARS
    digits, then one QETV block per node."""
    _require_standard(std)
    m = std.controls
    digits = FAMILY_DIGITS[family]
    base = len(digits)
    block = min(BLOCK_VARS[family], m)
    top = m - block
    span = base**block
    rows = np.arange(1 << top)
    bit_vectors = [(rows >> (top - 1 - k)) & 1 for k in range(top)]
    cost_table = cost.cost_table_vector(m)
    gate_group, root = _interned(std)
    costs = np.empty(base**m, dtype=np.int64)

    def walk(targets, counts, depth, node):
        if depth == top:
            costs[node * span : (node + 1) * span] = _block_costs(
                targets.reshape(len(rows), -1, *targets.shape[1:]),
                counts, digits, gate_group, cost_table,
            )
            return
        for k, digit in enumerate(digits):
            child = kernels.gate_stage(
                targets, mux._FORWARD_KERNELS[digit], m - 1 - depth, gate_group
            )
            step = 1 if digit == "2" else bit_vectors[depth]
            walk(child, counts + step, depth + 1, node * base + k)

    walk(root, np.zeros(len(rows), dtype=np.int64), 0, 0)
    return costs


def _polarity(index: int, digits: str, m: int) -> str:
    """The index-th polarity of m digits in lexicographic order."""
    out = []
    for _ in range(m):
        index, k = divmod(index, len(digits))
        out.append(digits[k])
    return "".join(reversed(out))


def iter_polarity_costs(std: mux.Multiplexer, family: str):
    """Yield (polarity, cost) for every polarity of the family, in
    lexicographic order (see polarity_costs)."""
    costs = polarity_costs(std, family).tolist()
    names = itertools.product(FAMILY_DIGITS[family], repeat=std.controls)
    for name, value in zip(names, costs):
        yield "".join(name), value


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
    costs = polarity_costs(std, cfg.family)
    # argmin/argmax take the first index: the lexicographically smallest tie.
    best, worst = int(costs.argmin()), int(costs.argmax())
    digits = FAMILY_DIGITS[cfg.family]
    elapsed = time.perf_counter() - start
    return SearchReport(
        family=cfg.family,
        mode="exhaustive",
        controls=std.controls,
        original_cost=original,
        best_polarity=_polarity(best, digits, std.controls),
        best_cost=int(costs[best]),
        worst_polarity=_polarity(worst, digits, std.controls),
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
