"""Hot numeric kernels: butterfly columns and per-polarity cost sums, and
the only home of 2x2 matrix arithmetic.

Every complex 2x2 product of the package is `times` or `times_inverse`,
and every test of whether a matrix is within EPS of a known one is
`rows_within`.  The butterflies and identity tests here, group's closure
and tables, gates' unitarity residual and catalog match, and mux's
realized operators all call them, so a change of arithmetic is a change
to these three functions.

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

The quantum codes take a (2^n, 2, 2) vector of unitaries or, given a
label algebra as `group`, a 1-D vector of its labels, where each product
x y^-1 is group.times_inverse(x, y, out).  A `group.GateGroup` labels its
elements by uint8 IDs, and its product is a lookup in its tables (the
flat mulinv[(i << 8) | j] is the ID of element i times the inverse of
element j, one lookup on a uint16 index; inv[j] is the ID of the inverse
of element j, whose own inverse is j again):

  FORWARD_POS   (a, b) -> (a, mulinv[b << 8 | a])
  FORWARD_NEG   (a, b) -> (b, mulinv[a << 8 | b])
  INVERSE_POS   (a, b) -> (a, mulinv[b << 8 | inv[a]])
  INVERSE_NEG   (a, b) -> (mulinv[b << 8 | inv[a]], a)

ID 0 is the identity, so an ID vector's identity test is `ids == 0`.  The
staged forward cascade's palette (blocksearch.staged_forward) labels
matrices by their palette positions, and its product multiplies the
matrices with times_inverse and returns the product's position; it runs
the forward codes only.  The GF(2) codes take a (2^n,) uint8 vector of
bits, with XOR as the product.

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

Both take (pairs, out, group=None), where `group` is a GateGroup.  Which
code a polarity digit runs, and in which order, is blocksearch's to
decide, not this module's.

`CHUNK_ROWS` is the program's one per-gate batch size: kernel passes,
loader batches, render chunks, report rows and the pieces of one write
all take at most that many at a time, and it sets the character bound of
one write (see jsonout.write).
`distinct` is the package's one deduplication, a sort of a 1-D array:
gates.render_gates runs it on a chunk's float patterns, mux.Multiplexer
on its palette's matrices, and the staged forward cascade's palette on
each piece's operand pairs and on its products.  Matrices go in as
`byte_keys`, void keys of their exact 64 bytes: the one place a matrix
is read as its bytes.
`read_only` is how the immutable values `boolrm.BoolFunc` and
`boolrm.RMSpectrum` take an array: they copy it unless it is handed
over.

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


def times(x, y, out=None, group=None) -> np.ndarray:
    """x @ y, on matrices or, given their group, on IDs, where it is x times
    the inverse of inv[y].  Written into `out` when one is given; returns
    it."""
    if group is None:
        return np.matmul(x, y, out=out)
    return times_inverse(x, group.inv[y], out, group)


def times_inverse(x, y, out=None, group=None) -> np.ndarray:
    """x @ y^-1, on matrices or, given their label algebra, on its labels:
    group.times_inverse(x, y, out).  Written into `out` when one is given;
    returns it."""
    if group is None:
        return np.matmul(x, y.conj().swapaxes(-1, -2), out=out)
    return group.times_inverse(x, y, out)


def _xor(x, y, out, group) -> None:
    """out = x ^ y, on bits."""
    np.bitwise_xor(x, y, out=out)


# Per kernel: the product, its operands (x, y) as halves (0 the clear-bit
# half a, 1 the set-bit half b), the output half it lands in, and the input
# half left in the other output half.
_COLUMNS = {
    FORWARD_POS: (times_inverse, (1, 0), 1, 0),
    FORWARD_NEG: (times_inverse, (0, 1), 1, 1),
    INVERSE_POS: (times, (1, 0), 1, 0),
    INVERSE_NEG: (times, (1, 0), 0, 0),
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
    (2^n, 2, 2) gate vector, a (2^n,) vector of labels of `group`, or a
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
    times_inverse(b, a, out[:, 2], group)
    if group is None:
        times_inverse(a, b, out[:, 3], group)
    else:
        np.take(group.inv, out[:, 2], out=out[:, 3], mode="clip")  # see GateGroup.times_inverse


def etv_stage(pairs: np.ndarray, out: np.ndarray, group=None) -> None:
    """One GF(2) extended-vector column: write the slots (x, y, x ^ y) of the
    bit pairs x = pairs[:, 0], y = pairs[:, 1] to out[:, 0] .. out[:, 2].
    Bits index no group: `group` is there for qetv_stage's signature."""
    out[:, :2] = pairs
    np.bitwise_xor(pairs[:, 0], pairs[:, 1], out=out[:, 2])


def rows_within(stack: np.ndarray, matrix: np.ndarray, eps: float) -> np.ndarray:
    """Positions, in order, of the matrices of a (n, 2, 2) stack whose
    every entry lies within eps of matrix's in complex modulus: the
    package's one within-EPS test.  A row with a NaN or inf entry is never
    within.

    A modulus within eps needs its real and imaginary parts within eps, so
    each entry narrows the rows by its real part, then its imaginary part,
    and takes the modulus only on the rows left: the same rows as the
    modulus alone.  Each temporary holds one entry per row.
    """
    rows = np.arange(len(stack))
    for (r, c), v in np.ndenumerate(matrix):
        rows = rows[np.abs(stack.real[rows, r, c] - v.real) <= eps]
        rows = rows[np.abs(stack.imag[rows, r, c] - v.imag) <= eps]
        rows = rows[np.abs(stack[rows, r, c] - v) <= eps]
    return rows


def identity_mask(gates: np.ndarray, eps: float, out=None) -> np.ndarray:
    """True for each entry that is its algebra's identity: a (n, 2, 2) gate
    that rows_within finds within eps of the 2x2 identity, tested
    CHUNK_ROWS gates at a time; in a 1-D uint8 vector, a group ID equal to
    ID 0 or a GF(2) bit equal to 0, both exactly.  Written into `out`, a
    bool vector of one entry per gate, when one is given.
    """
    if out is None:
        out = np.empty(len(gates), dtype=bool)
    if gates.ndim == 1:
        return np.equal(gates, 0, out=out)
    out[...] = False
    for start in range(0, len(gates), CHUNK_ROWS):
        out[start + rows_within(gates[start : start + CHUNK_ROWS], np.eye(2), eps)] = True
    return out


def mux_cost(gates, counts, cost_table, eps):
    """Total cost of a polarized vector of gates, group IDs or GF(2) bits.

    counts[i] is the count of entry i (controls, or literals); cost_table
    maps a count to its cost.  Entries that identity_mask calls the
    identity (the identity gate within eps, ID 0, bit 0) are free.
    Returns (total_cost, skipped_identities).
    """
    is_id = identity_mask(gates, eps)
    total = int(cost_table[counts[~is_id]].sum())
    return total, int(is_id.sum())


def distinct(values: np.ndarray):
    """(distinct, where): the sorted distinct values of a 1-D array, of
    numbers or of void keys compared by their bytes, and the index of each
    value among them, as np.unique(values, return_inverse=True) gives
    them, with `where` in the narrowest unsigned type that holds it: the
    package's one deduplication.  Its temporaries are the size of its
    input, so callers hand it a chunk at a time.  For a chunk's 32,768
    float patterns np.unique's own working arrays peak at 1.4 MB under
    tracemalloc, this at 0.6 MB."""
    perm = np.argsort(values)
    ordered = values[perm]
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    new[1:] = ordered[1:] != ordered[:-1]  # np.not_equal has no loop for void keys
    found = ordered[new]
    del ordered
    numbers = np.cumsum(new, dtype=np.min_scalar_type(len(values)))
    numbers -= 1
    where = np.empty_like(numbers)
    where[perm] = numbers
    return found, where


def byte_keys(stack: np.ndarray) -> np.ndarray:
    """A C-contiguous (p, 2, 2) complex stack as p void keys of its exact 64
    bytes each, a view: equal keys are equal bytes, and sorted keys are
    the matrices in byte order."""
    return stack.reshape(len(stack), 4).view("V64").reshape(-1)


def read_only(values, dtype=None) -> np.ndarray:
    """values as a read-only C-contiguous array of dtype.  An array the
    caller passes is still the caller's to change, so it is copied, unless
    it is already read-only and owns its memory: that is how the loaders
    and the transforms hand over the arrays they build."""
    arr = np.asarray(values, dtype=dtype, order="C")
    if arr is values and (arr.flags.writeable or not arr.flags.owndata):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


# The classical callers' name for gate_stage, under which the benchmark
# traces GF(2) columns apart from quantum ones.
gf2_stage = gate_stage
