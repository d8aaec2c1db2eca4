"""Block search: the cost of every polarity of a butterfly family at once.

This module is the only one that knows the four families.  FPQF/KQF (over
gates or group IDs) and FPRM/KRM (over bits) are both cascades of
butterfly columns over 2^n entries, the first variable (the most
significant index bit) first.  One table per fact, keyed by family:

  FAMILY_DIGITS  the polarity digits: '1' positive, '0' negative, '2' mixed
  SLOT_RULES     per digit, the (slot, shift) of its clear-bit and set-bit
                 outputs (below)
  BLOCK_VARS     how many bottom variables each DFS node expands to slots
  LIMITS         the most variables an exhaustive search takes

check_polarity, check_size and count_vector read them for every caller.

A column maps each pair (x, y), x at the clear-bit index, to two outputs,
each one of a few values the pair can produce, its slots:

  quantum  kernels.qetv_stage  4 slots  a, b, b a^-1, a b^-1
  GF(2)    kernels.etv_stage   3 slots  x, y, x ^ y

A digit's rule gives, per output, the slot it keeps there and the shift,
what the position adds to the entry's count (controls, or literals).
Quantum '0' is ((1, 0), (3, 1)); classical '0' is ((2, 1), (1, 0)), since
the GF(2) NEG column puts x ^ y, and its literal, at the clear-bit index.
The shifts alone give count_vector, the count at every position.

Expanding a variable writes all of a pair's slots, so after b expansions
every suffix polarity's entry is one of a row's width^b slots, the same
operation on the same operands as in its own cascade.  Each new slot axis
lands outside the earlier ones, and the unexpanded bits stay outermost,
so every column works on long contiguous runs.

A live entry (not the identity; a 1 bit) costs cost_table[count], which
need not be linear, so each node reduces a histogram H[count, slot] of
its live slots, seeded by the rows' prefix counts, one variable at a
time (width slots -> one per digit, one more count bin):

  out[c + shift, digit] += H[c, slot]   for both (slot, shift) of the digit

and its costs are cost_table @ H, in lexicographic suffix order.  Literal
cost is linear, so the classical side passes cost_table = arange(n + 1).
That is about width^b operations per row where per-polarity cascades take
about len(digits)^b 2^b.

BLOCK_VARS bounds the block: the top t = n - b digits stay a
prefix-sharing DFS of the caller's columns, and each depth-t node expands
only its 2^t rows of 2^b entries.  A KQF node at m = 9 holds 8 rows of 4^6
slots, 32 KB of IDs or 2 MB of complex matrices, where all 4^9 slots at
once would take 16.8 MB of complex matrices; a classical block is at most
2^6 x 3^10 bytes (3.8 MB) within LIMITS.  With b = 0 the block is the
plain leaf, one histogram over the node's 2^n entries.
"""

from __future__ import annotations

import numpy as np

from .errors import PolarityLengthMismatch, SizeLimitExceeded

FPQF = "fpqf"
KQF = "kqf"
FPRM = "fprm"
KRM = "krm"

FAMILY_DIGITS = {FPQF: "01", KQF: "012", FPRM: "01", KRM: "012"}

# Each digit's (clear-bit, set-bit) outputs as (slot, added count): QETV
# slots a, b, b a^-1, a b^-1 and controls; ETV slots x, y, x ^ y and
# literals.
_QETV_RULES = {"1": ((0, 0), (2, 1)), "0": ((1, 0), (3, 1)), "2": ((0, 1), (1, 1))}
_ETV_RULES = {"1": ((0, 0), (2, 1)), "0": ((2, 1), (1, 0)), "2": ((0, 1), (1, 1))}
SLOT_RULES = {FPQF: _QETV_RULES, KQF: _QETV_RULES, FPRM: _ETV_RULES, KRM: _ETV_RULES}

# Exhaustive searches cost 2^14 FPQF, 3^9 KQF, 2^16 FPRM and 3^10 KRM
# polarities at most.
LIMITS = {FPQF: 14, KQF: 9, FPRM: 16, KRM: 10}

# Bottom variables each DFS node expands to slots (b); 0 costs each
# polarity at its own leaf.  Measured in process on a 2-core Xeon:
# - KQF (seed 3, search without intern, median of 9) at m = 9 on the full
#   pool (IDs) took 54, 33, 26, 18 and 12 ms at b = 4, 5, 6, 7 and 9, with
#   traced peaks of 0.4, 0.5, 0.9, 1.7 and 6.7 MB, against 0.6 s with
#   b = 0; on custom:X,I,RX(0.3),H (complex) b = 6 took 0.62 s at a 5.5 MB
#   peak and b = 9 0.18 s at 42 MB, against 3.5 s.  b = 6 keeps both
#   peaks small.
# - FPQF digits keep disjoint slots, so its polarities share no products:
#   at m = 12 on custom:X,I,RX(0.3), b = 0, 2 and 4 took 7.7, 8.6 and
#   8.0 s (peaks 4.5, 5.5 and 12.7 MB), so FPQF stays at its leaves.
# - FPRM/KRM: 10 is LIMITS[KRM], so every KRM search is one block
#   with no DFS.  FPRM blocks are 2^(n-10) x 3^10 bytes: 0.9 MB at n = 14,
#   3.8 MB at n = 16.  b = 8 ran 1.9x slower at n = 14; b = 11 and 12 ran
#   1.8x and 2.3x faster at n = 16 but peaked 7 MB and 15 MB higher.
BLOCK_VARS = {FPQF: 0, KQF: 6, FPRM: 10, KRM: 10}

# Rows at least this many slots wide seed the histogram with one masked
# row sum per count; narrower ones with one bincount over every slot.  On
# a 2-core Xeon (median of 200, rows x slots): bincount against masked
# sums took 11 against 139 us on 4096 x 1 (an FPQF leaf), 11 against 15 us
# on 16 x 256, 56 against 22 us on 8 x 4^6 (a KQF block at m = 9) and
# 1.9 ms against 0.30 ms on 16 x 3^10 (an FPRM block at n = 14).
_WIDE_ROWS = 1024


def check_polarity(polarity: str, n: int, family: str) -> None:
    """Raise unless polarity is n digits of the family."""
    if len(polarity) != n:
        raise PolarityLengthMismatch(
            f"polarity {polarity!r} has {len(polarity)} digits, expected {n}"
        )
    allowed = FAMILY_DIGITS[family]
    if set(polarity) - set(allowed):
        raise ValueError(f"{family} polarity {polarity!r} uses digits outside {allowed!r}")


def check_size(family: str, n: int) -> None:
    """Raise unless an exhaustive search of the family takes n variables."""
    if family not in LIMITS:
        raise ValueError(f"unknown family {family!r}")
    if n > LIMITS[family]:
        raise SizeLimitExceeded(
            f"exhaustive {family} search is limited to {LIMITS[family]} variables, got {n}"
        )


def count_vector(polarity: str, family: str) -> np.ndarray:
    """Count (controls, or literals) at every position under the polarity,
    as int64: cost.control_count or boolrm.map_coefficient's literal count.
    One digit's vector is its (clear-bit, set-bit) shifts."""
    rules = SLOT_RULES[family]
    counts = np.zeros(1, dtype=np.int64)
    for digit in polarity:
        shifts = np.array([shift for _, shift in rules[digit]])
        counts = (counts[:, None] + shifts).reshape(-1)
    return counts


def expand(rows: np.ndarray, column, width: int) -> np.ndarray:
    """Slots of each row: (r, 2^b, ...) entries -> (r, width^b, ...).

    column(pairs, out) writes the width slots of the pairs pairs[:, 0],
    pairs[:, 1] to out[:, 0] .. out[:, width - 1].  Columns run in cascade
    order, the top row bit first, and each new slot axis lands outside the
    earlier ones.
    """
    r, tail = rows.shape[0], rows.shape[2:]
    block = rows.reshape(r, rows.shape[1], 1, *tail)
    while block.shape[1] > 1:
        pairs = block.reshape(r, 2, block.shape[1] // 2, block.shape[2], *tail)
        out = np.empty((r, pairs.shape[2], width, pairs.shape[3], *tail), rows.dtype)
        column(pairs, out.swapaxes(1, 2))
        block = out.reshape(r, pairs.shape[2], -1, *tail)
    return block.reshape(r, -1, *tail)


def _histogram(alive: np.ndarray, counts: np.ndarray, bins: int, dtype) -> np.ndarray:
    """hist[c, s]: live slot s in the rows whose prefix count is c."""
    r, width = alive.shape
    if width >= _WIDE_ROWS:
        hist = np.zeros((bins, width), dtype=dtype)
        for c in range(bins):
            hist[c] = alive[counts == c].sum(axis=0, dtype=dtype)
        return hist
    index = np.add.outer(counts * width, np.arange(width))
    hist = np.bincount(index.reshape(-1), weights=alive.reshape(-1), minlength=bins * width)
    return hist.astype(dtype).reshape(bins, width)


def _reduce(hist: np.ndarray, digits: str, rules: dict, width: int) -> np.ndarray:
    """Reduce a (bins, width^b) slot histogram to (bins + b, len(digits)^b)."""
    bins = hist.shape[0]
    hist = hist.reshape(bins, 1, -1)
    while hist.shape[2] > 1:
        # Reduce the last variable left, whose slot axis is the outermost:
        # (count, digits reduced so far, its slots, the earlier variables'
        # slots) -> (count + 1, its digit, digits so far, earlier slots).
        done, rest = hist.shape[1], hist.shape[2] // width
        slots = hist.reshape(bins, done, width, rest)
        out = np.zeros((bins + 1, len(digits), done, rest), dtype=hist.dtype)
        for k, digit in enumerate(digits):
            for slot, shift in rules[digit]:
                out[shift : shift + bins, k] += slots[:, :, slot]
        bins += 1
        hist = out.reshape(bins, -1, rest)
    return hist.reshape(bins, -1)


def polarity_costs(
    vector: np.ndarray, family: str, *, stage, column, live, cost_table: np.ndarray
) -> np.ndarray:
    """Cost of every polarity of the family, as int64 in lexicographic
    polarity order.

    vector holds 2^n entries (gates, IDs or bits).  stage(vec, digit, bit)
    applies one butterfly column; column is the slot column (see expand),
    as wide as the family's rules need; live(entries) is 1 or True for each
    entry of a flat (k, ...) array that costs; cost_table[c] is the cost of
    a live entry whose count is c, for c in 0..n.
    """
    n = len(vector).bit_length() - 1
    digits = FAMILY_DIGITS[family]
    rules = SLOT_RULES[family]
    width = 1 + max(slot for rule in rules.values() for slot, _ in rule)
    base = len(digits)
    block = min(BLOCK_VARS[family], n)
    top = n - block
    span = base**block
    rows = np.arange(1 << top)
    # steps[depth][k]: what digit k at that depth adds to each row's count,
    # built once rather than at every node.
    shifts = [count_vector(d, family) for d in digits]
    steps = []
    for depth in range(top):
        bit = (rows >> (top - 1 - depth)) & 1
        steps.append([shift[bit] for shift in shifts])
    # Every histogram entry counts at most 2^n entries, so the narrowest
    # unsigned type holding 2^n is exact (uint16 for n = 8..15).  Against
    # int32 it cut FPRM n = 14 from 44 to 29 ms in a fresh process on a
    # 2-core Xeon, mostly page faults of the reduction's per-step arrays.
    dtype = np.min_scalar_type(1 << n)
    costs = np.empty(base**n, dtype=np.int64)

    def walk(vec, counts, depth, node):
        if depth == top:
            tail = vec.shape[1:]
            slots = expand(vec.reshape(len(rows), -1, *tail), column, width)
            alive = live(slots.reshape(-1, *tail)).reshape(len(rows), -1)
            del slots
            hist = _reduce(_histogram(alive, counts, top + 1, dtype), digits, rules, width)
            costs[node * span : (node + 1) * span] = cost_table @ hist
            return
        for k, digit in enumerate(digits):
            child = stage(vec, digit, n - 1 - depth)
            walk(child, counts + steps[depth][k], depth + 1, node * base + k)

    walk(vector, np.zeros(len(rows), dtype=np.int64), 0, 0)
    return costs
