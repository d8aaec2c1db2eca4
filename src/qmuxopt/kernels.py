"""Hot numeric kernels: butterfly columns and per-polarity cost sums.

Kernel codes (one butterfly column pairs indices differing at `bit`; the
pair is (a, b) with a at the clear-bit index):

  FORWARD_POS   (a, b) -> (a, b @ a^-1)
  FORWARD_NEG   (a, b) -> (b, a @ b^-1)
  INVERSE_POS   (a, b) -> (a, b @ a)
  INVERSE_NEG   (a, b) -> (b @ a, a)
  IDENTITY      (a, b) -> (a, b)

GF(2) codes for the classical transform (x, y are bits):

  GF2_POS    (x, y) -> (x, x ^ y)
  GF2_NEG    (x, y) -> (x ^ y, y)
  GF2_MIXED  (x, y) -> (x, y)

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


def gate_stage(gates: np.ndarray, kernel: int, bit: int) -> np.ndarray:
    """Apply one butterfly column to a (2^n, 2, 2) gate vector."""
    if kernel == IDENTITY:
        return gates.copy()
    a, b = _halves(gates, bit)
    # C order, so the reshape in _halves is a view of `out`; empty_like
    # would keep a Fortran-ordered input's layout and write into a copy.
    out = np.empty(gates.shape, gates.dtype)
    lo, hi = _halves(out, bit)
    if kernel == FORWARD_POS:
        lo[...] = a
        np.matmul(b, a.conj().swapaxes(-1, -2), out=hi)
    elif kernel == FORWARD_NEG:
        lo[...] = b
        np.matmul(a, b.conj().swapaxes(-1, -2), out=hi)
    elif kernel == INVERSE_POS:
        lo[...] = a
        np.matmul(b, a, out=hi)
    elif kernel == INVERSE_NEG:
        np.matmul(b, a, out=lo)
        hi[...] = a
    else:
        raise ValueError(f"unknown kernel code {kernel}")
    return out


def identity_mask(gates: np.ndarray, eps: float) -> np.ndarray:
    """True for each gate equal to the 2x2 identity within eps in every entry."""
    return np.abs(gates - np.eye(2)).reshape(gates.shape[0], 4).max(axis=1) <= eps


def mux_cost(gates, counts, cost_table, eps):
    """Total gate cost of a polarized gate vector.

    counts[i] is the number of controls on gate i; cost_table maps a control
    count to its cost.  Gates equal to the identity within eps are free.
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
