"""Exact encoding of a multiplexer's targets as elements of a finite group.

`intern` takes a multiplexer's palette, its few distinct matrices, and
the number of gates the cascade runs over: the group, its tables and the
residuals come from the palette alone, and the depth of the error bound
below from the gate count.  The search spreads the palette's IDs to the
gates with one lookup per gate, so no 2^m-entry key, sort or complex
vector is built on the way.

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
the residuals are 0 (targets), 9.89e-16 (table) and 2.2e-16 (adjoint),
1.21e-15 in all, so the ID path runs up to m = 18 (3.2e-10 against
EPS / 2 = 5e-10; m = 19 would be 6.3e-10), where the measured drift
(1.7e-12 at m = 17) stays far inside the bound.

The table `mul` is built by row blocks: each row is one (2, 2) @ (2, 2G)
product of its element with all elements side by side, and each block
takes one key, lookup, residual and near-neighbour pass.  A block holds
kernels.CHUNK_ROWS // (4 G) rows, so each temporary holds about
kernels.CHUNK_ROWS complex entries (64 KB), under glibc's default 128 KB
mmap threshold: freeing blocks of kernels.CHUNK_ROWS matrices (256 KB)
raised that threshold, and the allocator's later choices cost a
full-pool m = 12 FPQF CLI run 8.95k minor page faults against 6.36k.
One BLAS call per row rounds a few products differently from one call
per pair: the full pool's table residual read 9.878e-16 that way, and no
decision or table differs (`tests/test_group.py` holds `intern` to
`product_table` of the test oracle `tests/oracle.py`, which builds the
table row by row).
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


def _table(elements: np.ndarray):
    """(mul, residual): the (G, G) product table and the largest Frobenius
    norm of a float product against its element; None when a product's key
    is not an element's, or when an element has a near neighbour.

    A key collision that merged two elements shows up as a product off its
    element; two keys for one element show up as a near neighbour.  By row
    blocks (see the module docstring), the temporaries stay at about
    kernels.CHUNK_ROWS complex entries; the whole G x G product at once
    would allocate several MB.
    """
    g = len(elements)
    element_keys = _keys(elements)
    order = np.argsort(element_keys)
    side = elements.transpose(1, 0, 2).reshape(2, 2 * g)  # [E_0 E_1 ...] by columns
    mul = np.empty((g, g), dtype=np.uint8)
    residual = 0.0
    step = max(1, kernels.CHUNK_ROWS // (4 * g))
    for start in range(0, g, step):
        block = elements[start : start + step]
        distance = np.abs(block[:, None] - elements).reshape(len(block), g, 4).max(axis=2)
        if np.any(np.count_nonzero(distance < 1 / _KEY_SCALE, axis=1) != 1):
            return None
        products = np.matmul(block, side).reshape(len(block), 2, g, 2).transpose(0, 2, 1, 3)
        products = np.ascontiguousarray(products).reshape(-1, 2, 2)
        row_ids = _lookup(element_keys, order, _keys(products))
        if row_ids is None:
            return None
        residual = max(residual, _gap(products, elements, row_ids))
        mul[start : start + step] = row_ids.reshape(len(block), g)
    return mul, residual


def intern(targets: np.ndarray, count: int):
    """(GateGroup, ids) when the distinct targets generate a group of at
    most MAX_ELEMENTS elements and the residuals of the encoding keep a
    cascade over `count` gates within EPS / 2 of it (see the module
    docstring); None otherwise.

    targets is a multiplexer's palette, its distinct matrices, or any
    stack of matrices; repeats are allowed.  count sets the cascade's
    depth, so a palette of a few matrices for 2^m gates is accepted or
    declined exactly as its 2^m-gate vector would be.  ids is a uint8
    vector with targets[i] within TOL of elements[ids[i]].
    """
    target_keys = _keys(targets)
    distinct, first, where = np.unique(target_keys, return_index=True, return_inverse=True)
    if len(distinct) > MAX_ELEMENTS:
        return None
    elements = _closure(targets[first])
    if elements is None:
        return None
    element_keys = _keys(elements)
    order = np.argsort(element_keys)
    rep_ids = _lookup(element_keys, order, distinct)
    if rep_ids is None:
        return None
    ids = rep_ids.astype(np.uint8)[where]
    table = _table(elements)
    if table is None:
        return None
    mul, table_residual = table
    g = len(elements)
    inv = np.argmin(mul, axis=1).astype(np.uint8)
    if np.any(mul[np.arange(g), inv] != 0):
        return None
    residuals = (
        _gap(targets, elements, ids),  # also catches a hash collision that merged targets
        table_residual,
        _gap(elements.conj().swapaxes(1, 2), elements[inv]),
    )
    depth = (count - 1).bit_length()
    if max(residuals) > TOL or sum(residuals) * (1 << depth) > gates.EPS / 2:
        return None
    mulinv = np.zeros((MAX_ELEMENTS, MAX_ELEMENTS), dtype=np.uint8)
    mulinv[:g, :g] = mul[:, inv]
    return GateGroup(elements, mul, inv, mulinv.reshape(-1)), ids
