"""Single-qubit gate algebra and the named gate catalog.

Gates are plain (2, 2) complex128 numpy arrays.  Equality is exact and
entrywise: a global phase on a controlled gate becomes a physical relative
phase in the circuit, so two gates differing by a phase are distinct here.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import kernels
from .errors import NonUnitary, UnknownGate

# Unitarity / equality tolerance.  Errors grow with depth: by group.py's
# doubling argument, m butterfly columns can carry 2^m times the rounding of
# one product.  Measured on full-pool targets (seed 3): the forward cascade
# stays within 3.5e-12 of unitary at m = 17, but the inverse cascade of that
# output drifts 1.2e-9 from unitary at m = 16 and 3.5e-9 at m = 17, past EPS,
# so mux.inverse_transform rejects its own round trip from m = 16 on.
EPS = 1e-9

_SQRT2 = np.sqrt(2.0)

I = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2
# Square root of NOT: V @ V == X.
V = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2
VD = V.conj().T.copy()

CATALOG = {"I": I, "X": X, "Y": Y, "Z": Z, "H": H, "V": V, "VD": VD}
ALIASES = {"NOT": "X", "PX": "X", "PY": "Y", "PZ": "Z"}

for _g in CATALOG.values():
    _g.setflags(write=False)
del _g


def rx(theta: float) -> np.ndarray:
    """Rotation by theta radians about the X axis."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Rotation by theta radians about the Y axis."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Rotation by theta radians about the Z axis."""
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex
    )


def unitarity_residual(us: np.ndarray) -> float:
    """Largest entry of |u u^H - I| over a (n, 2, 2) stack, kernels.CHUNK_ROWS
    matrices at a time: nan when any entry anywhere is non-finite, so that
    wins over a non-unitary matrix; inf when finite entries overflow."""
    worst = 0.0
    for start in range(0, len(us), kernels.CHUNK_ROWS):
        part = us[start : start + kernels.CHUNK_ROWS]
        if not np.isfinite(part.view(float)).all():
            return math.nan
        with np.errstate(over="ignore", invalid="ignore"):
            residual = float(np.abs(part @ part.conj().transpose(0, 2, 1) - I).max())
        worst = max(worst, math.inf if math.isnan(residual) else residual)
    return worst


_ROTATION_RE = re.compile(r"^(RX|RY|RZ)\((.+)\)$")
_MATRIX_RE = re.compile(r"^M\((.+)\)$")
_ROTATIONS = {"RX": rx, "RY": ry, "RZ": rz}


def parse_gate(token: str) -> np.ndarray:
    """Parse a gate token to its 2x2 matrix.

    Accepted grammar:
      - catalog names  I, X, Y, Z, H, V, VD  (aliases NOT/PX -> X, PY -> Y,
        PZ -> Z), case-insensitive;
      - rotations  RX(theta), RY(theta), RZ(theta)  with theta in radians;
      - matrix literal  M(a_re,a_im,b_re,b_im,c_re,c_im,d_re,d_im)  row-major.

    Raises UnknownGate for anything else, a non-finite rotation angle
    included, and NonUnitary when a matrix literal fails the unitarity
    check.
    """
    text = token.strip().upper()
    name = ALIASES.get(text, text)
    if name in CATALOG:
        return CATALOG[name]

    match = _ROTATION_RE.match(text)
    if match:
        try:
            angle = float(match.group(2))
        except ValueError:
            angle = math.nan
        if not math.isfinite(angle):
            raise UnknownGate(f"bad rotation angle in {token!r}")
        return _ROTATIONS[match.group(1)](angle)

    match = _MATRIX_RE.match(text)
    if match:
        parts = match.group(1).split(",")
        if len(parts) != 8:
            raise UnknownGate(
                f"matrix literal needs 8 numbers, got {len(parts)}: {token!r}"
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise UnknownGate(f"bad number in matrix literal {token!r}") from None
        u = np.array(
            [
                [complex(vals[0], vals[1]), complex(vals[2], vals[3])],
                [complex(vals[4], vals[5]), complex(vals[6], vals[7])],
            ]
        )
        dev = unitarity_residual(u[None])
        if not dev <= EPS:
            raise NonUnitary(f"matrix literal is not unitary (deviation {dev:.3e})")
        return u

    raise UnknownGate(f"unrecognized gate token {token!r}")


# Tokens travel in sub-batches of this share of kernels.CHUNK_ROWS rows,
# 64 at the default, and each sub-batch is one piece of jsonout.write's.
# A matrix literal is at most 202 characters (eight 24-character reprs),
# so a piece stays well inside one write (16 characters for each of
# CHUNK_ROWS rows).  Larger pieces raise the emission peak: random search
# at m = 17 (seed 3, peak RSS from os.wait4, 2-core Xeon) read about
# 0.1 MB more at 256 rows a piece than at 64.
SUB_BATCH_SHARE = 64


def sub_batch_rows() -> int:
    """The rows of one sub-batch of tokens: kernels.CHUNK_ROWS //
    SUB_BATCH_SHARE, at least one."""
    return max(1, kernels.CHUNK_ROWS // SUB_BATCH_SHARE)


# A gate's kind: the index of its catalog name, or _LITERAL for a matrix
# literal.
_NAMES = np.array([*CATALOG, None], dtype=object)
_LITERAL = len(CATALOG)


def render_gates(us: np.ndarray):
    """The tokens that parse_gate accepts for a (n, 2, 2) stack, in order,
    as an iterator over lists of at most sub_batch_rows() tokens, the unit
    in which tokens travel to jsonout.write.  Callers hand it a chunk at a
    time (see mux.target_chunks), and a sub-batch's strings are made only
    when the previous sub-batch is used up, so a chunk's tokens are never
    all alive at once.

    Catalog gates render as their names: one comparison of the stack per
    catalog gate, in catalog order, so the first match wins.  Everything
    else becomes a matrix literal M(a_re,a_im,...,d_re,d_im), row-major, at
    full float precision (repr keeps -0.0), so parse and render round-trip.
    The literals' entries, viewed as interleaved (re, im) float64, are
    deduplicated by bit pattern (so -0.0 and 0.0 stay apart) with one sort
    of the stack's patterns (see _distinct), and each distinct pattern is
    repr'd once, before the first sub-batch.  A token's text depends only
    on its own matrix, so the bytes depend neither on the chunking nor on
    the sub-batching.
    """
    n = len(us)
    kind = np.full(n, _LITERAL, dtype=np.uint8)
    for k, mat in enumerate(CATALOG.values()):
        hit = np.abs(us - mat).reshape(n, 4).max(axis=1) <= EPS
        kind[hit & (kind == _LITERAL)] = k
    distinct, where = _distinct(us[kind == _LITERAL].view(np.uint64).reshape(-1))
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return _sub_batches(kind, texts, where)


def _distinct(bits: np.ndarray):
    """(distinct, where): the sorted distinct values of a 1-D array and the
    index of each value among them, as np.unique(bits,
    return_inverse=True) gives them, with `where` in the narrowest unsigned
    type that holds it.  For a chunk's 32,768 patterns np.unique's own
    working arrays peak at 1.4 MB under tracemalloc, this at 0.6 MB."""
    perm = np.argsort(bits)
    ordered = bits[perm]
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    del ordered
    numbers = np.cumsum(new, dtype=np.min_scalar_type(len(bits)))
    numbers -= 1
    where = np.empty_like(numbers)
    where[perm] = numbers
    return distinct, where


def _sub_batches(kind: np.ndarray, texts: np.ndarray, where: np.ndarray):
    """Lists of the tokens of each sub_batch_rows() rows: catalog names by
    their kind, and a sub-batch's literals, the next of the stack's
    literals in order, joined from the texts of their entries' patterns."""
    rows = sub_batch_rows()
    done = 0  # literals rendered so far; each has 8 entries in `where`
    for start in range(0, len(kind), rows):
        part = kind[start : start + rows]
        tokens = _NAMES[part]
        literal = part == _LITERAL
        count = int(np.count_nonzero(literal))
        if count:
            entries = texts[where[8 * done : 8 * (done + count)]].reshape(count, 8).tolist()
            tokens[literal] = ["M(" + ",".join(row) + ")" for row in entries]
            done += count
        yield tokens.tolist()
