"""Exact encoding of a multiplexer's targets as elements of a finite group.

Every built-in pool (X Y Z H V VD I) draws from the single-qubit Clifford
group, which closes under multiplication to 192 unitaries: 24 Cliffords
times the 8 phases e^{i pi k/4}.  When a multiplexer's distinct targets
generate a group of at most 256 elements, each target becomes a uint8 ID,
a butterfly product becomes a lookup in the (G, G) table `mul`, and a
matrix inverse a lookup in `inv`.  ID 0 is the exact identity, phase 1
included, so the leaf identity test is `ids == 0`.

Why the ID path and the complex path agree on every identity decision:
a butterfly column makes each new gate from one product of two gates of
the previous column.  To first order in the spectral norm, that gate's
error is the sum of its operands' errors plus three per-product terms:
the table residual (the float product of two elements against their
product's element), the adjoint residual (the complex path inverts by
conjugate transpose, the ID path looks up `inv`) and its own rounding.
Starting from the target residual, m columns leave every complex gate
within 2^m * (target + table + adjoint residual) of its element, plus
2^m roundings of the size the table residual already contains.  `intern`
measures the residuals in the Frobenius norm, which bounds the spectral
norm and every entry, and declines unless the first term stays within
EPS / 2; the other half of EPS is for the rounding.  Distinct elements
lie more than 2^-20 apart (checked), so a complex gate is within EPS of
I exactly when its element is ID 0.  The growth is real: an H literal
of 13 digits squares to (1 - 1.3e-13) I, and the all-positive m = 14
cascade carries that to a gate 1.1e-9 from I, which the complex path
counts; `intern` declines that input from m = 12 on.  On the full pool
the residuals sum to 1.2e-15, so the ID path runs up to m = 18, where
the measured drift (1.7e-12 at m = 17) stays far inside the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates, kernels

MAX_ELEMENTS = 256  # IDs fit in one byte
# Largest residual accepted at any depth: targets against their elements,
# tables against products, adjoints against inverses (Frobenius norm).
TOL = 1e-12
# Keys round entries to multiples of 2^-20: far coarser than the drift of a
# few products, far finer than the distance between distinct elements.
_KEY_SCALE = float(1 << 20)
# Odd multipliers, one per real entry: splitmix64 outputs from seed 0, made odd.
_KEY_MUL = np.array(
    [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F5, 0x06C45D188009454F, 0xF88BB8A8724C81ED,
        0x1B39896A51A8749B, 0x53CB9F0C747EA2EB, 0x2C829ABE1F4532E1, 0xC584133AC916AB3D,
    ],
    dtype=np.uint64,
)


@dataclass(frozen=True, eq=False)
class GateGroup:
    """A finite group of 2x2 unitaries with its product and inverse tables.

    elements[0] is the identity; mul[i, j] is the ID of
    elements[i] @ elements[j] and inv[i] the ID of elements[i]^-1.
    mulinv[(i << 8) | j] is the ID of elements[i] @ elements[j]^-1, so one
    flat lookup on a uint16 index serves a butterfly's product with an
    inverse; entries past G are 0.
    """

    elements: np.ndarray  # (G, 2, 2) complex
    mul: np.ndarray  # (G, G) uint8
    inv: np.ndarray  # (G,) uint8
    mulinv: np.ndarray  # (MAX_ELEMENTS^2,) uint8


def _keys(mats: np.ndarray) -> np.ndarray:
    """One uint64 hash per matrix of its entries rounded to the key grid,
    kernels.CHUNK_ROWS matrices at a time.

    Each entry is mixed (multiply, xorshift, multiply) before the sum: a
    plain linear combination collides on structured sets such as the
    Clifford group.
    """
    keys = np.empty(len(mats), dtype=np.uint64)
    for start in range(0, len(mats), kernels.CHUNK_ROWS):
        rows = slice(start, start + kernels.CHUNK_ROWS)
        entries = mats[rows].reshape(-1, 4).view(float)
        mixed = np.rint(entries * _KEY_SCALE).astype(np.int64).view(np.uint64)
        mixed *= _KEY_MUL
        mixed ^= mixed >> np.uint64(29)
        mixed *= _KEY_MUL[0]
        mixed.sum(axis=1, dtype=np.uint64, out=keys[rows])
    return keys


def _gap(x: np.ndarray, y: np.ndarray, ids=None) -> float:
    """Largest Frobenius norm of x[i] - y[i], or of x[i] - y[ids[i]], over a
    stack of 2x2 matrices, kernels.CHUNK_ROWS matrices at a time."""
    worst = 0.0
    for start in range(0, len(x), kernels.CHUNK_ROWS):
        rows = slice(start, start + kernels.CHUNK_ROWS)
        other = y[rows] if ids is None else y[ids[rows]]
        diff = (x[rows] - other).view(float).reshape(-1, 8)
        worst = max(worst, float(np.einsum("ij,ij->i", diff, diff).max()))
    return float(np.sqrt(worst))


def _lookup(table_keys: np.ndarray, order: np.ndarray, keys: np.ndarray):
    """Positions of keys in table_keys (sorted by `order`), or None on any miss."""
    pos = np.searchsorted(table_keys, keys, sorter=order).clip(max=len(order) - 1)
    found = order[pos]
    return found if np.array_equal(table_keys[found], keys) else None


def _closure(generators: np.ndarray):
    """Elements of the group the generators span, identity first, or None
    when there are more than MAX_ELEMENTS of them.

    Breadth-first: each new element times every generator.  A finite
    monoid of unitaries is a group, so inverses need no separate step.
    """
    frontier = gates.I[None]
    elements = [frontier]
    seen = set(_keys(frontier).tolist())
    while len(frontier):
        products = np.matmul(frontier[:, None], generators[None]).reshape(-1, 2, 2)
        keys = _keys(products).tolist()
        fresh = []
        for i, key in enumerate(keys):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        if len(seen) > MAX_ELEMENTS:
            return None
        frontier = products[fresh]
        elements.append(frontier)
    return np.concatenate(elements)


def intern(targets: np.ndarray):
    """(GateGroup, ids) when the distinct targets generate a group of at
    most MAX_ELEMENTS elements and the residuals of the encoding keep a
    cascade over len(targets) gates within EPS / 2 of it (see the module
    docstring); None otherwise.

    ids is a uint8 vector with targets[i] within TOL of elements[ids[i]].
    """
    target_keys = _keys(targets)
    distinct, first, where = kernels.unique(target_keys)
    if len(distinct) > MAX_ELEMENTS:
        return None
    elements = _closure(targets[first])
    if elements is None:
        return None
    g = len(elements)
    element_keys = _keys(elements)
    order = np.argsort(element_keys)
    rep_ids = _lookup(element_keys, order, distinct)
    if rep_ids is None:
        return None
    ids = rep_ids.astype(np.uint8)[where]

    # Row by row keeps the temporaries at G matrices; the whole G x G
    # product at once would allocate several MB.  A key collision that
    # merged two elements shows up as a product off its element; two keys
    # for one element show up as a near neighbour.
    mul = np.empty((g, g), dtype=np.uint8)
    table_residual = 0.0
    for i in range(g):
        near = np.abs(elements - elements[i]).reshape(g, 4).max(axis=1) < 1 / _KEY_SCALE
        if np.count_nonzero(near) != 1:
            return None
        row = np.matmul(elements[i], elements)
        row_ids = _lookup(element_keys, order, _keys(row))
        if row_ids is None:
            return None
        table_residual = max(table_residual, _gap(row, elements[row_ids]))
        mul[i] = row_ids
    inv = np.argmin(mul, axis=1).astype(np.uint8)
    if np.any(mul[np.arange(g), inv] != 0):
        return None
    residuals = (
        _gap(targets, elements, ids),  # also catches a hash collision that merged targets
        table_residual,
        _gap(elements.conj().swapaxes(1, 2), elements[inv]),
    )
    depth = (len(targets) - 1).bit_length()
    if max(residuals) > TOL or sum(residuals) * (1 << depth) > gates.EPS / 2:
        return None
    mulinv = np.zeros((MAX_ELEMENTS, MAX_ELEMENTS), dtype=np.uint8)
    mulinv[:g, :g] = mul[:, inv]
    return GateGroup(elements, mul, inv, mulinv.reshape(-1)), ids
