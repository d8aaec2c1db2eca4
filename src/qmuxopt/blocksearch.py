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

check_polarity, check_size, count_vector, count_rows and polarity_names
read them for every caller.

cascade(vector, polarity, family, group=None, inverse=False) runs one
polarity's full cascade, every column in place on the vector it is given
(see kernels.gate_stage; callers that keep their vector pass a copy),
c_1's first, or, inverse, c_n's first.
staged_forward(matrices, index, polarity, family) runs the forward
cascade of a palette (see mux.Palette) in two stages: the columns above
a chunk of 2^chunk_digits(n) entries, each a kernels.gate_stage call on
the gates' palette positions with the palette as its label algebra, each
distinct operand pair multiplied once a transform, and the chunk's own
columns, the polarity's tail, left to cascade on each chunk where it is
read.
polarity_costs(vector, family, cost_table, group=None) and
expand(rows, family, spare, group=None, left=0) take the family
alone and pick its columns from it.  The quantum families run
kernels.gate_stage and kernels.qetv_stage, the GF(2) ones
kernels.gf2_stage and kernels.etv_stage.

The benchmark's tracer (perfbench/tracer.py) replaces kernels.gate_stage
and kernels.gf2_stage by timing wrappers after the program is imported,
reads a column's vector and code from its first two arguments, and counts
GF(2) columns under gf2_stage's name.  So each call of cascade,
staged_forward, expand or polarity_costs reads the column functions off
kernels (never out of a table built at import), GF(2) columns go through
the name gf2_stage, and every column is called positionally as (vector,
code, bit, group).  A staged forward column counts as a gate-stage
column over its 2^n palette positions.

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

kernels.CHUNK_ROWS bounds the block in bytes as well.  A node expands
and histograms its rows a chunk at a time, each chunk at most as many
bytes of slots as CHUNK_ROWS complex 2x2 matrices take (64 bytes each,
256 KB at the default; a row takes width^b times the bytes of one entry,
so IDs, bits and matrices each get their own row count) and at least one
row, and adds up the chunks' histograms: the histogram is a sum over
rows, so this is exact.  An FPQF node at m = 14 holds 256 rows of 4^6
slots, 1 MB of IDs or 64 MB of complex matrices, where a 256 KB chunk
takes 64 rows of IDs, one row of matrices or 4 classical rows of 3^10
bits.

A search allocates its vector- and slot-sized working memory once,
sized from the chunk's row count, and every node writes into it: one
vector per DFS depth, refilled from its parent's with np.copyto; the
chunk's rows, gathered with np.take; two slot buffers that expand's
columns write into in turn (the slot columns take an `out`); the live
planes (kernels.identity_mask takes an `out` too); one histogram and a
row of its sums; and the reduction's two step buffers, sized by its
largest step.  What a node still allocates is small: its prefix's
2^(n - b) counts and their order, and, on matrices only, identity_mask's
deviations, CHUNK_ROWS gates at a time.  A node takes its rows (2^b
entries each) in order of prefix count, so each count's live slots are
one run of the chunk, summed without a gather.  The reduction writes
each step into the other buffer, and once the reduced digits outnumber
the slots left, one transpose moves them innermost, so its last steps
run on long runs too.

On exact entries, IDs and bits, the last variable is compared, not
expanded.  In a group b a^-1 is the identity exactly when a == b, and so
is a b^-1, so after b - 1 expansions the last variable's live planes
are a != 0, b != 0 and a != b, one plane for slots 2 and 3 both: three
comparisons a pair in place of the largest column, its table lookups
and its 4^b slots a row.  Bits are exact the same way, x ^ y being 0
exactly when x == y, so their live planes are x != 0, y != 0 and x != y,
one a slot, in place of the last ETV column's copy and XOR.  Matrices
keep the full expansion and identity_mask, since a product within EPS of
I does not need equal operands.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import kernels
from .errors import PolarityLengthMismatch, QmuxError, SizeLimitExceeded
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


def check_polarity(polarity: str, n: int, family: str) -> None:
    """Raise unless polarity is n digits of the family."""
    if len(polarity) != n:
        raise PolarityLengthMismatch(
            f"polarity {polarity!r} has {len(polarity)} digits, expected {n}"
        )
    allowed = FAMILY_DIGITS[family]
    if set(polarity) - set(allowed):
        raise QmuxError(f"{family} polarity {polarity!r} uses digits outside {allowed!r}")


def check_size(family: str, n: int) -> None:
    """Raise unless an exhaustive search of the family takes n variables."""
    if family not in LIMITS:
        raise QmuxError(f"unknown family {family!r}")
    if n > LIMITS[family]:
        raise SizeLimitExceeded(
            f"exhaustive {family} search is limited to {LIMITS[family]} variables, got {n}"
        )


def digit_mask(polarity: str, digit: str) -> int:
    """Index bits of the variables whose polarity digit is `digit`, variable
    c_1 the most significant bit."""
    return sum(1 << k for k, d in enumerate(reversed(polarity)) if d == digit)


def polarity_names(index, family: str, n: int) -> list:
    """The n-digit polarity strs of lexicographic indices: each index's
    base-len(FAMILY_DIGITS[family]) numeral, c_1 the most significant
    digit, a digit column at a time from c_n, into one byte per digit."""
    digits = np.frombuffer(FAMILY_DIGITS[family].encode(), np.uint8)
    values = np.empty((len(index), n), np.uint8)
    rest = np.array(index, dtype=np.int64)
    for k in range(n - 1, -1, -1):
        rest, values[:, k] = np.divmod(rest, len(digits))
    text = digits[values].tobytes().decode()
    return [text[i : i + n] for i in range(0, len(text), n)]


def chunk_digits(n: int) -> int:
    """How many bottom digits of an n-digit polarity index one chunk: those
    of the largest power of two at most kernels.CHUNK_ROWS, and at most n.
    Their columns pair entries of one chunk only."""
    return min(n, kernels.CHUNK_ROWS.bit_length() - 1)


def count_vector(polarity: str, family: str) -> np.ndarray:
    """Count (controls, or literals) at every position under the polarity,
    as int64: control_count, or the literal count of map_coefficient, of
    the test oracle (tests/oracle.py).
    One digit's vector is its (clear-bit, set-bit) shifts."""
    rules = SLOT_RULES[family]
    counts = np.zeros(1, dtype=np.int64)
    for digit in polarity:
        shifts = np.array([shift for _, shift in rules[digit]])
        counts = (counts[:, None] + shifts).reshape(-1)
    return counts


def count_rows(polarity: str, family: str):
    """count_vector a slice of positions at a time: a function that takes a
    slice and returns the counts there, for one pass over the positions.
    A position's count is its top digits' count plus its bottom digits'
    count, read off one vector each, built here once.  The bottom digits
    are as many as index a kernels.CHUNK_ROWS chunk, at most n, so both
    vectors stay small (2^12 and 2^(n - 12) entries at the default) and no
    2^n vector is built."""
    n = len(polarity)
    low_digits = chunk_digits(n)
    high = count_vector(polarity[: n - low_digits], family)
    low = count_vector(polarity[n - low_digits :], family)

    def counts(rows: slice) -> np.ndarray:
        positions = np.arange(*rows.indices(1 << n))
        return high[positions >> low_digits] + low[positions & (len(low) - 1)]

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


def staged_forward(matrices: np.ndarray, index, polarity: str, family: str) -> tuple:
    """(matrices, index, tail): the forward cascade of the gate vector
    matrices[index], a normal palette (see mux.Palette), under a quantum
    polarity, staged.  The columns at bits >= chunk_digits(n) have run, on
    the palette; the returned one may hold matrices no gate uses, which
    mux.Multiplexer drops.  The tail is the polarity's last
    chunk_digits(n) digits, whose columns pair the gates of one chunk only:
    cascade(gates, tail, family) on each chunk of 2^len(tail) gates, in
    order, finishes the cascade.  With no column to run above the chunk
    the input arrays come back as they are.

    Each head digit's column is kernels.gate_stage on the gates' palette
    positions, with the palette (_Rows) as its group: a product of two
    positions is the position of the product of their matrices, the same
    kernels.times_inverse on the same operands as on the gate vector, so
    the gates are the same bytes.  Each distinct operand pair is multiplied
    once a transform, over all its columns.  Every column goes
    kernels.CHUNK_ROWS pairs at a time; what grows with the work is the
    palette and its two sorted tables, of its matrices and of the operand
    pairs multiplied.
    """
    n = len(polarity)
    top = n - chunk_digits(n)
    codes = [FORWARD_CODES[family][digit] for digit in polarity[:top]]
    tail = polarity[top:]
    if all(code == kernels.IDENTITY for code in codes):
        return matrices, index, tail
    palette = _Rows(matrices)
    # Every product may add a matrix: the working index holds the most.
    work = index.astype(np.min_scalar_type(len(matrices) + len(codes) * (len(index) // 2)))
    for k, code in enumerate(codes):
        kernels.gate_stage(work, code, n - 1 - k, palette)
    return palette.buffer[: palette.size], work, tail


def _search(table: np.ndarray, keys: np.ndarray, sorter=None) -> tuple:
    """(at, found): where each of the sorted keys goes in the table, sorted
    itself or in the order of `sorter`, and whether it is there."""
    at = np.searchsorted(table, keys, sorter=sorter)
    found = at < len(table)
    rows = at[found] if sorter is None else sorter[at[found]]
    found[found] = table[rows] == keys[found]
    return at, found


class _Rows:
    """A palette that grows by products, as the label algebra a staged
    forward column runs on: kernels.gate_stage given it as `group` computes
    on positions of its matrices (see times_inverse).

    It starts from a palette's distinct matrices.  Its matrices stay in
    order of arrival, in a buffer that doubles when full, with a table of
    their positions sorted by their exact 64 bytes (kernels.byte_keys).
    A product takes the position of a matrix with its bytes and is appended
    otherwise, so two different matrices never share a position.  A second
    sorted table, of the operand pairs already multiplied and their
    products' positions, spans the whole transform."""

    def __init__(self, matrices: np.ndarray):
        self.buffer = np.array(matrices, dtype=complex)
        self.size = len(matrices)
        self.order = np.argsort(kernels.byte_keys(self.buffer))
        self.pairs = np.empty(0, dtype=np.uint64)  # sorted operand pairs, x << 32 | y
        self.products = np.empty(0, dtype=np.intp)  # the position of each pair's product

    def times_inverse(self, x, y, out) -> np.ndarray:
        """The positions of buffer[x] @ buffer[y]^-1 for the operand
        positions x and y, written into `out`, which is returned:
        kernels.times_inverse given this palette.  Each distinct pair is
        multiplied once a transform, by kernels.times_inverse on its
        matrices."""
        keys, where = kernels.distinct((x.astype(np.uint64).ravel() << 32) | y.ravel())
        at, known = _search(self.pairs, keys)
        positions = np.empty(len(keys), dtype=np.intp)
        positions[known] = self.products[at[known]]
        todo = keys[~known]
        # The operand gathers are freed before add runs.
        made = kernels.times_inverse(self.buffer[todo >> 32], self.buffer[todo & 0xFFFFFFFF])
        positions[~known] = self.add(made)
        self.pairs = np.insert(self.pairs, at[~known], todo)
        self.products = np.insert(self.products, at[~known], positions[~known])
        out[...] = positions[where].reshape(out.shape)
        return out

    def add(self, products: np.ndarray) -> np.ndarray:
        """The positions of a (p, 2, 2) stack of products, appending those
        that no matrix of the same bytes holds yet."""
        keys, where = kernels.distinct(kernels.byte_keys(products))
        at, hit = _search(kernels.byte_keys(self.buffer[: self.size]), keys, self.order)
        positions = np.empty(len(keys), dtype=np.intp)
        positions[hit] = self.order[at[hit]]
        positions[~hit] = self._append(keys[~hit].view(complex).reshape(-1, 2, 2))
        self.order = np.insert(self.order, at[~hit], positions[~hit])
        return positions[where]

    def _append(self, matrices: np.ndarray) -> np.ndarray:
        """Append the matrices and return their positions."""
        end = self.size + len(matrices)
        if end > len(self.buffer):
            grown = np.empty((max(end, 2 * len(self.buffer)), 2, 2), dtype=complex)
            grown[: self.size] = self.buffer[: self.size]
            self.buffer = grown
        self.buffer[self.size : end] = matrices
        positions = np.arange(self.size, end)
        self.size = end
        return positions


def _view(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """The first entries of a flat workspace buffer, viewed as `shape`."""
    return buffer[: math.prod(shape)].reshape(shape)


def expand(rows: np.ndarray, family: str, spare, group=None, left: int = 0) -> np.ndarray:
    """Slots of each row: (r, 2^b, ...) entries -> (r, width^b, ...).

    The family's slot column writes the width slots of the pairs
    pairs[:, 0], pairs[:, 1] to out[:, 0] .. out[:, width - 1], on IDs of
    `group` when one is given.  Columns run in cascade order, the top row
    bit first, and each new slot axis lands outside the earlier ones.  The
    bottom `left` variables stay entries: each row is then 2^left runs of
    width^(b - left) slots, so with left = 1 its two halves are the last
    variable's pairs, every variable above it expanded.

    spare is two flat buffers of the rows' dtype, each with room for all
    the rows' slots; the columns write into them in turn and the result is
    a view of one (or the rows themselves, if nothing is expanded).
    """
    _, column, width = _columns(family)
    r, tail = rows.shape[0], rows.shape[2:]
    block = rows.reshape(r, rows.shape[1], 1, *tail)
    turn = 0
    while block.shape[1] > 1 << left:
        pairs = block.reshape(r, 2, block.shape[1] // 2, block.shape[2], *tail)
        out = _view(spare[turn], (r, pairs.shape[2], width, pairs.shape[3], *tail))
        turn ^= 1
        column(pairs, out.swapaxes(1, 2), group)
        block = out.reshape(r, pairs.shape[2], -1, *tail)
    return block.reshape(r, -1, *tail)


def _add_histogram(hist: np.ndarray, alive: np.ndarray, runs: list, lo: int, total) -> None:
    """hist[c] += the live slots of the rows whose prefix count is c.  The
    chunk holds a node's rows lo, lo + 1, ..., and the node's rows come
    sorted by count, so the rows of count c are one run (c, start, end);
    each run's part of the chunk is summed into the buffer `total` (shaped
    like one row) and added."""
    hi = lo + len(alive)
    for c, start, end in runs:
        if start < hi and end > lo:
            rows = alive[max(start, lo) - lo : min(end, hi) - lo]
            np.add.reduce(rows, axis=0, dtype=hist.dtype, out=total)
            hist[c] += total


def _reduce_buffers(bins: int, block: int, base: int, width: int, dtype) -> list:
    """_reduce's two flat step buffers for a (bins, width^block) histogram,
    each sized by its largest step: step j (j = 0 .. block - 1) writes
    (bins + 1 + j) count bins of base^(j + 1) digits and width^(block - 1 - j)
    slots left."""
    step = max(
        ((bins + 1 + j) * base ** (j + 1) * width ** (block - 1 - j) for j in range(block)),
        default=0,
    )
    return [np.empty(step, dtype=dtype) for _ in range(2)]


def _reduce(hist: np.ndarray, digits: str, rules: dict, width: int, spare) -> np.ndarray:
    """Reduce a (bins, width^b) slot histogram to (bins + b, len(digits)^b),
    each step written into the two buffers of _reduce_buffers in turn.

    The reduced digits start outside the slots left and move innermost with
    one transpose once they outnumber them, so each step reads and writes
    long runs.  Measured on warm blocks on a 2-core Xeon (median of 400,
    three rounds), this took 0.6-0.8 ms for an FPRM n = 14 block and
    1.7-2.5 ms for KRM n = 10, where keeping the digits outside took 1.1
    and 6.1-6.6 ms and keeping them innermost from the first step 4.3-5.8
    and 3.9-4.8 ms (FPQF m = 12: 0.14-0.17 against 0.41-0.42 ms innermost).
    Switching at done >= left or done * width > left instead stayed within
    run-to-run noise.
    """
    bins, left = hist.shape
    base, done, turn, inner = len(digits), 1, 0, False
    while left > 1:
        # Reduce the last variable left, whose slot axis is the outermost
        # of the slots left: (count, digits so far, its slots, earlier
        # slots) -> (count + 1, its digit, digits so far, earlier slots).
        if not inner and done > left:
            moved = _view(spare[turn], (bins, left, done))
            np.copyto(moved, hist.reshape(bins, done, left).swapaxes(1, 2))
            hist, turn, inner = moved, turn ^ 1, True
        rest = left // width
        if inner:
            slots = hist.reshape(bins, width, rest, done)
            out = _view(spare[turn], (bins + 1, rest, base, done))
            into = out.swapaxes(1, 2)
        else:
            slots = hist.reshape(bins, done, width, rest).swapaxes(1, 2)
            out = into = _view(spare[turn], (bins + 1, base, done, rest))
        out.fill(0)
        for k, digit in enumerate(digits):
            for slot, shift in rules[digit]:
                into[shift : shift + bins, k] += slots[:, slot]
        hist, bins, done, left, turn = out, bins + 1, done * base, rest, turn ^ 1
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
    rules = SLOT_RULES[family]
    base = len(digits)
    block = min(BLOCK_VARS[family], n)
    top = n - block
    span = base**block
    tail = vector.shape[1:]
    # Every histogram entry counts at most 2^n entries, so the narrowest
    # unsigned type holding 2^n is exact (uint16 for n = 8..15).  Against
    # int32 it cut FPRM n = 14 from 44 to 29 ms in a fresh process on a
    # 2-core Xeon, mostly page faults of the reduction's per-step arrays.
    dtype = np.min_scalar_type(1 << n)
    costs = np.empty(base**n, dtype=np.int64)
    # Rows a node expands at once: the bytes of kernels.CHUNK_ROWS complex
    # 2x2 matrices (64 each) of slots, and at least one row.  At the
    # default 256 KB, complex FPQF at m = 12 on custom:X,I,RX(0.3) peaked
    # at 2.3 MB traced, 43.6 MB unchunked, in about the same time; against
    # 8 MB chunks (2-core Xeon, fresh process) FPQF at m = 14 on the full
    # pool took 0.81 s both, FPRM at n = 16 0.69 against 0.59 s, complex
    # FPQF at m = 10 0.48 against 0.42 s, with a third of the page faults.
    row_bytes = width**block * (vector.nbytes // len(vector))
    chunk = max(1, kernels.CHUNK_ROWS * 64 // row_bytes)
    # On exact entries (IDs and bits, 1-D vectors) the last variable's
    # slots are compared, not expanded.
    left = 1 if vector.ndim == 1 and block else 0
    live_width = 3 * width ** (block - 1) if left else width**block

    # The workspace, allocated once: one vector per DFS depth below the
    # root (a DFS keeps one alive per depth anyway), the chunk's rows, the
    # expansion's two slot buffers, the live planes, one histogram for every
    # node (zeroed in place), a row of its sums and the reduction's two step
    # buffers.
    vectors = [vector] + [np.empty(vector.shape, vector.dtype) for _ in range(top)]
    gathered = np.empty((chunk, 1 << block, *tail), vector.dtype)
    entries = chunk * 2**left * width ** (block - left) * math.prod(tail)
    slot_buffers = [np.empty(entries, vector.dtype) for _ in range(2)]
    live = np.empty(chunk * live_width, dtype=bool)
    hist = np.empty((top + 1, width**block), dtype=dtype)
    total = np.empty(live_width, dtype=dtype)
    step_buffers = _reduce_buffers(top + 1, block, base, width, dtype)
    # The histogram of the live planes: slots 2 and 3 share one plane on IDs.
    planes = hist.reshape(top + 1, width, -1)[:, :3] if left else hist

    def compared(rows):
        # On IDs, b a^-1 and a b^-1 are ID 0 exactly when a == b (group
        # tables are exact), and on bits x ^ y is 0 exactly when x == y, so
        # the last variable's slots take three comparisons of its pairs and
        # no table lookup or XOR.
        pairs = expand(rows, family, slot_buffers, group, left).reshape(len(rows), 2, -1)
        alive = _view(live, (len(rows), 3, pairs.shape[2]))
        np.not_equal(pairs[:, 0], 0, out=alive[:, 0])
        np.not_equal(pairs[:, 1], 0, out=alive[:, 1])
        np.not_equal(pairs[:, 0], pairs[:, 1], out=alive[:, 2])
        return alive

    def masked(rows):
        expanded = expand(rows, family, slot_buffers, group)
        alive = _view(live, expanded.shape[:2])
        kernels.identity_mask(expanded.reshape(-1, *tail), EPS, out=alive.reshape(-1))
        return np.logical_not(alive, out=alive)

    alive_planes = compared if left else masked

    def leaf(vec, prefix):
        # A depth-top node: 2^top runs of 2^block entries, each run counted
        # as its top bits are under the prefix, taken in order of count.
        grid = vec.reshape(1 << top, -1, *tail)
        counts = count_vector(prefix, family)
        order = np.argsort(counts, kind="stable")
        ends = np.cumsum(np.bincount(counts)).tolist()
        runs = [(c, s, e) for c, (s, e) in enumerate(zip([0, *ends], ends)) if e > s]
        hist.fill(0)
        for lo in range(0, len(grid), chunk):
            # The indices are argsort's, so "clip" never clips; it lets take
            # write straight into `out` ("raise" stages it in a copy).
            picked = order[lo : lo + chunk]
            rows = np.take(grid, picked, axis=0, out=gathered[: len(picked)], mode="clip")
            alive = alive_planes(rows)
            _add_histogram(planes, alive, runs, lo, _view(total, alive.shape[1:]))
        if left and width == 4:
            # Slot 3, a b^-1, is live exactly where slot 2 is.
            hist.reshape(top + 1, width, -1)[:, 3] = planes[:, 2]
        node = int(prefix or "0", base)
        np.matmul(
            cost_table,
            _reduce(hist, digits, rules, width, step_buffers),
            out=costs[node * span : (node + 1) * span],
        )

    # The DFS, its nodes in lexicographic order of the top digits: a node's
    # vector is its parent's, copied, after one column, so a node reruns
    # the columns from the first digit where its prefix leaves the previous
    # node's (from the root for the first node).
    previous = ()
    for prefix in itertools.product(digits, repeat=top):
        depth = next((k for k, (a, b) in enumerate(zip(prefix, previous)) if a != b), 0)
        for k in range(depth, top):
            np.copyto(vectors[k + 1], vectors[k])
            stage(vectors[k + 1], codes[prefix[k]], n - 1 - k, group)
        leaf(vectors[top], "".join(prefix))
        previous = prefix
    return costs
