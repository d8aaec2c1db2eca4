"""Hot numeric kernels: butterfly columns and per-polarity cost sums.

One butterfly column pairs the indices that differ at `bit`; the pair is
(a, b) with a at the clear-bit index.  `gate_stage` runs every column, of
either algebra, from one code table:

  FORWARD_POS   (a, b) -> (a, b @ a^-1)
  FORWARD_NEG   (a, b) -> (b, a @ b^-1)
  INVERSE_POS   (a, b) -> (a, b @ a)
  INVERSE_NEG   (a, b) -> (b @ a, a)
  GF2_POS       (a, b) -> (a, b ^ a)
  GF2_NEG       (a, b) -> (a ^ b, b)
  IDENTITY      (a, b) -> (a, b)        (GF2_MIXED is IDENTITY)

The quantum codes take a (2^n, 2, 2) vector of unitaries or, given the
`group.GateGroup` they index, a (2^n,) uint8 vector of element IDs, where
each product is a lookup in the group's tables (mul[i, j] is the ID of
element i times element j; the flat mulinv[(i << 8) | j] that of element
i times the inverse of element j, one lookup on a uint16 index):

  FORWARD_POS   (a, b) -> (a, mulinv[b << 8 | a])
  FORWARD_NEG   (a, b) -> (b, mulinv[a << 8 | b])
  INVERSE_POS   (a, b) -> (a, mul[b, a])
  INVERSE_NEG   (a, b) -> (mul[b, a], a)

ID 0 is the identity, so an ID vector's identity test is `ids == 0`.  The
GF(2) codes take a (2^n,) uint8 vector of bits, with XOR as the product.

A column runs in place: it overwrites the vector it is given and returns
it.  A caller that still needs the input passes a copy.

The quantum extended-vector (QETV) column keeps all four values a forward
column can produce from a pair, so one expansion serves every digit:

  qetv_stage    (a, b) -> (a, b, b @ a^-1, a @ b^-1)

`blocksearch.SLOT_RULES` gives the slots each digit keeps; each product is
the same operation on the same operands as in gate_stage, so the kept
slots equal the forward column bit for bit.  On IDs the last slot is inv
of the third, exactly.  The GF(2) extended-vector column keeps all three
values its columns produce:

  etv_stage  (x, y) -> (x, y, x ^ y)

Both take (pairs, out, group=None).  Which code a polarity digit runs,
and in which order, is blocksearch's to decide, not this module's.

`unique` finds the distinct values of a key vector with one stable sort.
The program uses it in place of np.unique, whose first bare call (no
return_* flag) imports numpy.ma: about 10 ms in a fresh interpreter.

Operands stay unitary throughout, so matrix inverses are conjugate
transposes.
"""

from __future__ import annotations

import numpy as np

# No compiled backend; constants because the benchmark's machine facts record them.
HAVE_NUMBA = False
USE_NUMBA = False

FORWARD_POS = 0
FORWARD_NEG = 1
INVERSE_POS = 2
INVERSE_NEG = 3
IDENTITY = 4
GF2_POS = 5
GF2_NEG = 6
GF2_MIXED = IDENTITY

# Rows one pass over a gate vector handles at a time: every temporary of
# a butterfly column, identity test, unitarity check, key hash or render
# holds at most this many matrices (256 KB of complex 2x2).
CHUNK_ROWS = 4096


def _halves(arr: np.ndarray, bit: int):
    """Clear-bit and set-bit halves of every pair differing at `bit`.

    Reshaping (2^n, ...) to (2^n / 2^(bit+1), 2, 2^bit, ...) puts the pair
    partner on axis 1, so both halves are views.
    """
    v = arr.reshape(-1, 2, 1 << bit, *arr.shape[1:])
    return v[:, 0], v[:, 1]


def _times(x, y, out, group) -> None:
    """out = x @ y, on matrices or, given their group, on IDs."""
    if group is None:
        np.matmul(x, y, out=out)
    else:
        out[...] = group.mul[x, y]


def _times_inverse(x, y, out, group) -> None:
    """out = x @ y^-1, on matrices or, given their group, on IDs."""
    if group is None:
        np.matmul(x, y.conj().swapaxes(-1, -2), out=out)
    else:
        index = x.astype(np.uint16)
        index <<= 8
        index |= y
        np.take(group.mulinv, index, out=out)


def _xor(x, y, out, group) -> None:
    """out = x ^ y, on bits."""
    np.bitwise_xor(x, y, out=out)


# Per kernel: the product, its operands (x, y) as halves (0 the clear-bit
# half a, 1 the set-bit half b), the output half it lands in, and the input
# half left in the other output half.
_COLUMNS = {
    FORWARD_POS: (_times_inverse, (1, 0), 1, 0),
    FORWARD_NEG: (_times_inverse, (0, 1), 1, 1),
    INVERSE_POS: (_times, (1, 0), 1, 0),
    INVERSE_NEG: (_times, (1, 0), 0, 0),
    GF2_POS: (_xor, (1, 0), 1, 0),
    GF2_NEG: (_xor, (0, 1), 0, 1),
}


def _pieces(rows: int, run: int):
    """Index expressions that split a column's (rows, run) grid of pairs
    into views of at most CHUNK_ROWS pairs: whole rows while a row is
    shorter than CHUNK_ROWS, runs of one row from there on."""
    if run >= CHUNK_ROWS:
        for r in range(rows):
            for s in range(0, run, CHUNK_ROWS):
                yield r, slice(s, s + CHUNK_ROWS)
    else:
        step = CHUNK_ROWS // run
        for r in range(0, rows, step):
            yield slice(r, r + step)


def gate_stage(vec: np.ndarray, kernel: int, bit: int, group=None) -> np.ndarray:
    """Run one butterfly column in place on `vec` and return it: a
    (2^n, 2, 2) gate vector, a (2^n,) uint8 ID vector of `group`, or a
    (2^n,) uint8 bit vector for the GF(2) codes.

    `vec` must be writable and C-contiguous, so that the pair halves are
    views of it; any other vector is refused rather than written through a
    copy.  The column runs CHUNK_ROWS pairs at a time: each piece's product
    is staged in a temporary of at most CHUNK_ROWS entries and written
    back, so the bytes do not depend on the chunking.
    """
    if not (vec.flags.c_contiguous and vec.flags.writeable):
        raise ValueError("a butterfly column needs a writable C-contiguous vector")
    if kernel == IDENTITY:
        return vec
    if kernel not in _COLUMNS:
        raise ValueError(f"unknown kernel code {kernel}")
    product, (x, y), dest, kept = _COLUMNS[kernel]
    halves = _halves(vec, bit)
    for piece in _pieces(*halves[0].shape[:2]):
        # The product overwrites one of its own operands: stage it.
        result = np.empty(halves[x][piece].shape, vec.dtype)
        product(halves[x][piece], halves[y][piece], result, group)
        if kept == dest:
            halves[1 - dest][piece] = halves[kept][piece]
        halves[dest][piece] = result
    return vec


def qetv_stage(pairs: np.ndarray, out: np.ndarray, group=None) -> None:
    """One QETV column: write the slots (a, b, b a^-1, a b^-1) of the pairs
    a = pairs[:, 0], b = pairs[:, 1] to out[:, 0] .. out[:, 3].

    pairs is (r, 2, ...) and out a preallocated (r, 4, ...) array or view,
    of matrices or, given their group, of IDs.
    """
    a, b = pairs[:, 0], pairs[:, 1]
    out[:, :2] = pairs
    _times_inverse(b, a, out[:, 2], group)
    if group is None:
        _times_inverse(a, b, out[:, 3], group)
    else:
        np.take(group.inv, out[:, 2], out=out[:, 3])


def etv_stage(pairs: np.ndarray, out: np.ndarray, group=None) -> None:
    """One GF(2) extended-vector column: write the slots (x, y, x ^ y) of the
    bit pairs x = pairs[:, 0], y = pairs[:, 1] to out[:, 0] .. out[:, 2].
    Bits index no group: `group` is there for qetv_stage's signature."""
    out[:, :2] = pairs
    np.bitwise_xor(pairs[:, 0], pairs[:, 1], out=out[:, 2])


def identity_mask(gates: np.ndarray, eps: float) -> np.ndarray:
    """True for each gate equal to the 2x2 identity within eps in every entry,
    CHUNK_ROWS gates at a time.

    A 1-D vector holds group IDs, whose identity is exactly ID 0.
    """
    if gates.ndim == 1:
        return gates == 0
    mask = np.empty(len(gates), dtype=bool)
    for start in range(0, len(gates), CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        deviation = np.abs(gates[rows] - np.eye(2)).reshape(-1, 4).max(axis=1)
        np.less_equal(deviation, eps, out=mask[rows])
    return mask


def mux_cost(gates, counts, cost_table, eps):
    """Total gate cost of a polarized gate vector.

    counts[i] is the number of controls on gate i; cost_table maps a control
    count to its cost.  Gates equal to the identity within eps (or, in an
    ID vector, equal to ID 0) are free.
    Returns (total_cost, skipped_identities).
    """
    is_id = identity_mask(gates, eps)
    total = int(cost_table[counts[~is_id]].sum())
    return total, int(is_id.sum())


def unique(values: np.ndarray):
    """(distinct, first, inverse) of a 1-D array, as np.unique(values,
    return_index=True, return_inverse=True) gives them: the sorted distinct
    values, the index of each one's first occurrence, and for every entry
    the position of its value in `distinct`."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], order[starts], inverse


# The classical callers' name for gate_stage, under which the benchmark
# traces GF(2) columns apart from quantum ones.
gf2_stage = gate_stage
