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


def inverse(u: np.ndarray) -> np.ndarray:
    """Inverse of a unitary: the conjugate transpose."""
    return np.ascontiguousarray(u.conj().T)


def approx_eq(u: np.ndarray, v: np.ndarray, tol: float = EPS) -> bool:
    """Exact entrywise comparison within tol.  Not phase-insensitive."""
    return bool(np.max(np.abs(u - v)) <= tol)


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


def render_gates(us: np.ndarray):
    """Tokens that parse_gate accepts for a (n, 2, 2) stack: a list of
    tokens per kernels.CHUNK_ROWS matrices, each made only when the
    generator reaches it, so the strings of one chunk are the only
    per-entry objects alive at a time.

    Catalog gates render as their names: one comparison of the chunk per
    catalog gate, in catalog order, so the first match wins.  Everything
    else becomes a matrix literal M(a_re,a_im,...,d_re,d_im), row-major, at
    full float precision (repr keeps -0.0), so parse and render round-trip.
    The literals' entries, viewed as interleaved (re, im) float64, are
    deduplicated by bit pattern (so -0.0 and 0.0 stay apart) with one
    np.sort of the chunk's patterns and one np.searchsorted into its
    distinct ones; each distinct pattern is repr'd once per chunk.  A
    token's text depends only on its own matrix, so the bytes do not depend
    on the chunking.
    """
    for start in range(0, len(us), kernels.CHUNK_ROWS):
        yield _render_chunk(us[start : start + kernels.CHUNK_ROWS])


def _render_chunk(us: np.ndarray) -> list:
    n = len(us)
    tokens = [None] * n
    unmatched = np.ones(n, dtype=bool)
    for name, mat in CATALOG.items():
        hit = unmatched & (np.abs(us - mat).reshape(n, 4).max(axis=1) <= EPS)
        for i in np.flatnonzero(hit).tolist():
            tokens[i] = name
        unmatched &= ~hit
    rest = np.flatnonzero(unmatched)
    if not len(rest):
        return tokens
    bits = us[rest].view(np.float64).reshape(-1).view(np.uint64)
    ordered = np.sort(bits)
    starts = np.empty(len(ordered), dtype=bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    distinct = ordered[starts]
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    where = np.searchsorted(distinct, bits).reshape(-1, 8)
    for i, entries in zip(rest.tolist(), texts[where].tolist()):
        tokens[i] = "M(" + ",".join(entries) + ")"
    return tokens
