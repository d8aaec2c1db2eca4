"""Hot numeric kernels: butterfly columns and per-polarity cost sums.

Kernel codes (one butterfly column pairs indices differing at `bit`; the
pair is (a, b) with a at the clear-bit index):

  FORWARD_POS   (a, b) -> (a, b @ a^-1)
  FORWARD_NEG   (a, b) -> (b, a @ b^-1)
  INVERSE_POS   (a, b) -> (a, b @ a)
  INVERSE_NEG   (a, b) -> (b @ a, a)
  IDENTITY      (a, b) -> (a, b)

With a `group.GateGroup` the vector holds uint8 element IDs instead of
matrices, and each product is a lookup in the group's tables (mul[i, j] is
the ID of element i times element j; the flat mulinv[(i << 8) | j] that of
element i times the inverse of element j, one lookup on a uint16 index):

  FORWARD_POS   (a, b) -> (a, mulinv[b << 8 | a])
  FORWARD_NEG   (a, b) -> (b, mulinv[a << 8 | b])
  INVERSE_POS   (a, b) -> (a, mul[b, a])
  INVERSE_NEG   (a, b) -> (mul[b, a], a)

ID 0 is the identity, so an ID vector's identity test is `ids == 0`.

The quantum extended-vector (QETV) column keeps all four values a forward
column can produce from a pair, so one expansion serves every digit:

  qetv_stage    (a, b) -> (a, b, b @ a^-1, a @ b^-1)

Digit '1' keeps slots (0, 2), '0' keeps (1, 3) and '2' keeps (0, 1); each
product is the same operation on the same operands as in gate_stage, so
the kept slots equal the forward column bit for bit.  On IDs the last slot
is inv of the third, exactly.

GF(2) codes for the classical transform (x, y are bits):

  GF2_POS    (x, y) -> (x, x ^ y)
  GF2_NEG    (x, y) -> (x ^ y, y)
  GF2_MIXED  (x, y) -> (x, y)

Its extended-vector column keeps all three values those columns produce:

  etv_stage  (x, y) -> (x, y, x ^ y)

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

GF2_POS = 0
GF2_NEG = 1
GF2_MIXED = 2


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


def gate_stage(gates: np.ndarray, kernel: int, bit: int, group=None) -> np.ndarray:
    """Apply one butterfly column to a (2^n, 2, 2) gate vector, or, given
    the `group` its IDs index, to a (2^n,) uint8 ID vector."""
    if kernel == IDENTITY:
        return gates.copy()
    a, b = _halves(gates, bit)
    # C order, so the reshape in _halves is a view of `out`; empty_like
    # would keep a Fortran-ordered input's layout and write into a copy.
    out = np.empty(gates.shape, gates.dtype)
    lo, hi = _halves(out, bit)
    if kernel == FORWARD_POS:
        lo[...] = a
        _times_inverse(b, a, hi, group)
    elif kernel == FORWARD_NEG:
        lo[...] = b
        _times_inverse(a, b, hi, group)
    elif kernel == INVERSE_POS:
        lo[...] = a
        _times(b, a, hi, group)
    elif kernel == INVERSE_NEG:
        _times(b, a, lo, group)
        hi[...] = a
    else:
        raise ValueError(f"unknown kernel code {kernel}")
    return out


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


def etv_stage(pairs: np.ndarray, out: np.ndarray) -> None:
    """One GF(2) extended-vector column: write the slots (x, y, x ^ y) of the
    bit pairs x = pairs[:, 0], y = pairs[:, 1] to out[:, 0] .. out[:, 2]."""
    out[:, :2] = pairs
    np.bitwise_xor(pairs[:, 0], pairs[:, 1], out=out[:, 2])


def identity_mask(gates: np.ndarray, eps: float) -> np.ndarray:
    """True for each gate equal to the 2x2 identity within eps in every entry.

    A 1-D vector holds group IDs, whose identity is exactly ID 0.
    """
    if gates.ndim == 1:
        return gates == 0
    return np.abs(gates - np.eye(2)).reshape(gates.shape[0], 4).max(axis=1) <= eps


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


def gf2_stage(vec: np.ndarray, kernel: int, bit: int) -> np.ndarray:
    """Apply one GF(2) butterfly column to a (2^n,) uint8 vector."""
    if kernel == GF2_MIXED:
        return vec.copy()
    x, y = _halves(vec, bit)
    out = np.empty(vec.shape, vec.dtype)
    lo, hi = _halves(out, bit)
    if kernel == GF2_POS:
        lo[...] = x
        np.bitwise_xor(x, y, out=hi)
    elif kernel == GF2_NEG:
        np.bitwise_xor(x, y, out=lo)
        hi[...] = y
    else:
        raise ValueError(f"unknown GF(2) kernel code {kernel}")
    return out
