"""Butterfly cascades and block search: every polarity of a family at once.

This module is the only one that knows the four families and the only
one that turns a family and a polarity digit into butterfly columns.
FPQF/KQF (over gates or group IDs) and FPRM/KRM (over bits) are both
cascades of butterfly columns over 2^n entries, the first variable (the
most significant index bit) first.  One table per fact, keyed by family:

  FAMILY_DIGITS  the polarity digits: '1' positive, '0' negative, '2' mixed
  FORWARD_CODES  per digit, the kernels code of its column in the forward
                 cascade: quantum '1' FORWARD_POS, '0' FORWARD_NEG, '2'
                 IDENTITY; GF(2) '1' GF2_POS, '0' GF2_NEG, '2' GF2_MIXED
  INVERSE_CODES  the same for the inverse cascade: quantum '1'
                 INVERSE_POS, '0' INVERSE_NEG, '2' IDENTITY; GF(2) columns
                 commute and each is its own inverse, so the GF(2) codes
                 are the forward ones
  SLOT_RULES     per digit, the (slot, shift) of its clear-bit and set-bit
                 outputs (below)
  BLOCK_VARS     how many bottom variables each DFS node expands to slots
  LIMITS         the most variables an exhaustive search takes

check_polarity, check_size and count_vector read them for every caller.

cascade(vector, polarity, family, group=None, inverse=False) runs one
polarity's full cascade, every column in place on the vector it is given
(see kernels.gate_stage; callers that keep their vector pass a copy),
c_1's first, or, inverse, c_n's first.
polarity_costs(vector, family, cost_table, group=None) and
expand(rows, family, group=None) take the family alone and pick its
columns from it.  The quantum families run kernels.gate_stage and
kernels.qetv_stage, the GF(2) ones kernels.gf2_stage and
kernels.etv_stage.

The benchmark's tracer (perfbench/tracer.py) replaces kernels.gate_stage
and kernels.gf2_stage by timing wrappers after the program is imported,
reads a column's vector and code from its first two arguments, and counts
GF(2) columns under gf2_stage's name.  So each call of cascade, expand or
polarity_costs reads the column functions off kernels (never out of a
table built at import), GF(2) columns go through the name gf2_stage, and
every column is called positionally as (vector, code, bit, group).

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

One cost rule prices every family: an entry costs cost_table[count],
its count read off count_vector, unless it is its algebra's identity,
which kernels.identity_mask decides for all three kinds of entry (the
identity matrix within gates.EPS, group ID 0, bit 0).  The table need
not be linear, so each node reduces a histogram H[count, slot] of its
live (non-identity) slots, seeded by count_vector of its prefix, one
variable at a time (width slots -> one per digit, one more count bin):

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

CHUNK_BYTES bounds the block in bytes as well.  A node expands and
histograms its rows a chunk at a time, each chunk at most CHUNK_BYTES of
slots (a row takes width^b times the bytes of one entry, so IDs, bits and
matrices each get their own row count) and at least one row, and adds up
the chunks' histograms: the histogram is a sum over rows, so this is
exact.  An FPQF node at m = 14 holds 256 rows of 4^6 slots, 1 MB of IDs
or 64 MB of complex matrices, where a 256 KB chunk takes 64 rows of IDs,
one row of matrices or 4 classical rows of 3^10 bits.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import PolarityLengthMismatch, SizeLimitExceeded
from .gates import EPS

FPQF = "fpqf"
KQF = "kqf"
FPRM = "fprm"
KRM = "krm"

FAMILY_DIGITS = {FPQF: "01", KQF: "012", FPRM: "01", KRM: "012"}
_GF2_FAMILIES = (FPRM, KRM)

_QUANTUM_FORWARD = {"1": kernels.FORWARD_POS, "0": kernels.FORWARD_NEG, "2": kernels.IDENTITY}
_QUANTUM_INVERSE = {"1": kernels.INVERSE_POS, "0": kernels.INVERSE_NEG, "2": kernels.IDENTITY}
_GF2 = {"1": kernels.GF2_POS, "0": kernels.GF2_NEG, "2": kernels.GF2_MIXED}
FORWARD_CODES = {FPQF: _QUANTUM_FORWARD, KQF: _QUANTUM_FORWARD, FPRM: _GF2, KRM: _GF2}
INVERSE_CODES = {FPQF: _QUANTUM_INVERSE, KQF: _QUANTUM_INVERSE, FPRM: _GF2, KRM: _GF2}

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
# - FPQF's two digits keep all four slots between them ('1' a and b a^-1,
#   '0' b and a b^-1), and on IDs a b^-1 is one inv lookup of b a^-1, so
#   a block computes one product per pair for both digits.  Full pool
#   (seed 5, search with intern, best of 5): b = 6 took 0.066 s at m = 12
#   and 0.49 s at m = 14, against 0.22 and 2.3 s with b = 0.  On
#   custom:X,I,RX(0.3) (complex, both products computed) m = 12 took 10.4
#   against 12.4 s at b = 0 while the host ran about 2x slow, and m = 10
#   stayed within run-to-run noise (medians 0.75 against 0.70 s).
# - FPRM/KRM: 10 is LIMITS[KRM], so every KRM search is one block
#   with no DFS.  FPRM blocks are 2^(n-10) x 3^10 bytes: 0.9 MB at n = 14,
#   3.8 MB at n = 16.  b = 8 ran 1.9x slower at n = 14; b = 11 and 12 ran
#   1.8x and 2.3x faster at n = 16 but peaked 7 MB and 15 MB higher.
BLOCK_VARS = {FPQF: 6, KQF: 6, FPRM: 10, KRM: 10}

# The most slot bytes a node expands at once (see the module docstring).
# Measured in process on a 2-core Xeon, each setting in a fresh process:
# FPQF at m = 14 on the full pool (1 MB of ID slots a node) took 0.74 s in
# 8 MB chunks and 0.49 s in 256 KB ones, with 280k against 0.8k minor page
# faults a search; FPRM at n = 16 made 148k against 4k faults, and its
# repeated searches ran about 15 % faster.  Complex FPQF at m = 12 on
# custom:X,I,RX(0.3) peaked at 2.3 MB traced, 43.6 MB unchunked, in about
# the same time.  The cost: FPRM at n = 14 splits each node into 4 chunks
# and its CLI run took about 2 % longer.
CHUNK_BYTES = 256 << 10


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


def digit_mask(polarity: str, digit: str) -> int:
    """Index bits of the variables whose polarity digit is `digit`, variable
    c_1 the most significant bit."""
    return sum(1 << k for k, d in enumerate(reversed(polarity)) if d == digit)


def count_vector(polarity: str, family: str) -> np.ndarray:
    """Count (controls, or literals) at every position under the polarity,
    as int64: reference.control_count, or the literal count of
    reference.map_coefficient.
    One digit's vector is its (clear-bit, set-bit) shifts."""
    rules = SLOT_RULES[family]
    counts = np.zeros(1, dtype=np.int64)
    for digit in polarity:
        shifts = np.array([shift for _, shift in rules[digit]])
        counts = (counts[:, None] + shifts).reshape(-1)
    return counts


def _columns(family: str) -> tuple:
    """(DFS column, slot column, slots it writes per pair) of the family,
    the functions read off kernels now (see the module docstring)."""
    if family in _GF2_FAMILIES:
        return kernels.gf2_stage, kernels.etv_stage, 3
    return kernels.gate_stage, kernels.qetv_stage, 4


def cascade(vector: np.ndarray, polarity: str, family: str, group=None, inverse=False):
    """The vector after the polarity's full cascade of the family's columns.

    Forward runs c_1's column (the most significant bit) first and c_n's
    (bit 0) last; inverse runs the inverse columns in reverse order.
    Given the `group.GateGroup` they index, quantum entries are uint8
    element IDs.  Every column runs in place on `vector`, which must be a
    writable C-contiguous array, and the cascade returns it; the only
    other memory is each column's O(CHUNK_ROWS) temporaries.  A caller
    that still needs its vector passes a copy.
    """
    n = len(polarity)
    if len(vector) != 1 << n:
        raise ValueError(
            f"a polarity of {n} digits needs {1 << n} entries, got a vector of {len(vector)}"
        )
    stage = _columns(family)[0]
    codes = (INVERSE_CODES if inverse else FORWARD_CODES)[family]
    for k in reversed(range(n)) if inverse else range(n):
        stage(vector, codes[polarity[k]], n - 1 - k, group)
    return vector


def expand(rows: np.ndarray, family: str, group=None) -> np.ndarray:
    """Slots of each row: (r, 2^b, ...) entries -> (r, width^b, ...).

    The family's slot column writes the width slots of the pairs
    pairs[:, 0], pairs[:, 1] to out[:, 0] .. out[:, width - 1], on IDs of
    `group` when one is given.  Columns run in cascade order, the top row
    bit first, and each new slot axis lands outside the earlier ones.
    """
    _, column, width = _columns(family)
    r, tail = rows.shape[0], rows.shape[2:]
    block = rows.reshape(r, rows.shape[1], 1, *tail)
    while block.shape[1] > 1:
        pairs = block.reshape(r, 2, block.shape[1] // 2, block.shape[2], *tail)
        out = np.empty((r, pairs.shape[2], width, pairs.shape[3], *tail), rows.dtype)
        column(pairs, out.swapaxes(1, 2), group)
        block = out.reshape(r, pairs.shape[2], -1, *tail)
    return block.reshape(r, -1, *tail)


def _add_histogram(hist: np.ndarray, alive: np.ndarray, counts: np.ndarray) -> None:
    """hist[c, s] += live slot s in the rows whose prefix count is c: one
    masked row sum per count the rows have, so a chunk of a few rows adds
    to a few of the bins."""
    for c in set(counts.tolist()):
        hist[c] += alive[counts == c].sum(axis=0, dtype=hist.dtype)


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


def polarity_costs(vector: np.ndarray, family: str, cost_table: np.ndarray, group=None):
    """Cost of every polarity of the family, as int64 in lexicographic
    polarity order.

    vector holds 2^n entries: gates or IDs of `group` for FPQF/KQF, bits
    for FPRM/KRM.  cost_table[c] is the cost of an entry whose count is c,
    for c in 0..n, unless the entry is its algebra's identity (see the
    module docstring).
    """
    n = len(vector).bit_length() - 1
    stage, _, width = _columns(family)
    codes = FORWARD_CODES[family]
    digits = FAMILY_DIGITS[family]
    base = len(digits)
    block = min(BLOCK_VARS[family], n)
    top = n - block
    span = base**block
    # Every histogram entry counts at most 2^n entries, so the narrowest
    # unsigned type holding 2^n is exact (uint16 for n = 8..15).  Against
    # int32 it cut FPRM n = 14 from 44 to 29 ms in a fresh process on a
    # 2-core Xeon, mostly page faults of the reduction's per-step arrays.
    dtype = np.min_scalar_type(1 << n)
    costs = np.empty(base**n, dtype=np.int64)
    # Rows a node expands at once: CHUNK_BYTES of slots, and at least one.
    chunk = max(1, CHUNK_BYTES // (width**block * (vector.nbytes // len(vector))))
    # One histogram for every node, zeroed in place: a fresh one per node
    # page-faults its bins in again (1.6 MB a node for FPRM at n = 16).
    hist = np.empty((top + 1, width**block), dtype=dtype)

    def walk(vec, prefix):
        if len(prefix) < top:
            for digit in digits:
                walk(stage(vec.copy(), codes[digit], n - 1 - len(prefix), group), prefix + digit)
            return
        # A depth-top node: 2^top runs of 2^block entries, each run counted
        # as its top bits are under the prefix.
        tail = vec.shape[1:]
        grid = vec.reshape(1 << top, -1, *tail)
        counts = count_vector(prefix, family)
        hist.fill(0)
        for lo in range(0, len(grid), chunk):
            slots = expand(grid[lo : lo + chunk], family, group)
            # The live test takes the slots' name, so they are freed before
            # the histogram: 0.5 MB less peak RSS for FPQF at m = 12.
            slots = ~kernels.identity_mask(slots.reshape(-1, *tail), EPS).reshape(len(slots), -1)
            _add_histogram(hist, slots, counts[lo : lo + chunk])
        node = int(prefix or "0", base)
        costs[node * span : (node + 1) * span] = cost_table @ _reduce(
            hist, digits, SLOT_RULES[family], width
        )

    walk(vector, "")
    return costs
