"""Single-qubit gate algebra and the named gate catalog.

Gates are plain (2, 2) complex128 numpy arrays.  Equality is exact and
entrywise: a global phase on a controlled gate becomes a physical relative
phase in the circuit, so two gates differing by a phase are distinct here.
"""

from __future__ import annotations

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

# Matrix literals joined per batch in render_gates: the strings of one batch
# are the only per-entry temporaries alive at a time.
RENDER_CHUNK_ROWS = 4096

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


def is_unitary(u: np.ndarray, tol: float = EPS) -> bool:
    """True iff u has finite entries and u @ u† = I within tol."""
    if not np.all(np.isfinite(u.view(float))):
        return False
    return bool(np.max(np.abs(u @ u.conj().T - I)) <= tol)


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

    Raises UnknownGate for anything else, NonUnitary when a matrix literal
    fails the unitarity check.
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
            raise UnknownGate(f"bad rotation angle in {token!r}") from None
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
        if not is_unitary(u):
            dev = float(np.max(np.abs(u @ u.conj().T - I)))
            raise NonUnitary(f"matrix literal is not unitary (deviation {dev:.3e})")
        return u

    raise UnknownGate(f"unrecognized gate token {token!r}")


def _matrix_literal(real: list, imag: list) -> str:
    """M(...) token from the row-major real and imaginary parts, at full
    float precision (repr keeps -0.0)."""
    return "M(" + ",".join(f"{re!r},{im!r}" for re, im in zip(real, imag)) + ")"


def render_gate(u: np.ndarray) -> str:
    """Render a matrix as a token that parse_gate accepts.

    Catalog gates render as their names; everything else becomes a matrix
    literal with full float precision, so parse/render round-trips.
    """
    for name, mat in CATALOG.items():
        if approx_eq(u, mat):
            return name
    return _matrix_literal(u.real.ravel().tolist(), u.imag.ravel().tolist())


def render_gates(us: np.ndarray) -> list:
    """render_gate of every matrix in a (n, 2, 2) stack, vectorized.

    One comparison of the whole stack per catalog gate, in catalog order,
    so the first match wins as in render_gate.  The other matrices become
    literals: their entries, viewed as interleaved (re, im) float64 in
    row-major order, are deduplicated by bit pattern (so -0.0 and 0.0 stay
    apart), each distinct one is repr'd once, and the tokens are joined
    RENDER_CHUNK_ROWS matrices at a time, which bounds the temporaries.
    """
    n = len(us)
    tokens = [None] * n
    unmatched = np.ones(n, dtype=bool)
    for name, mat in CATALOG.items():
        hit = unmatched & (np.abs(us - mat).reshape(n, 4).max(axis=1) <= EPS)
        for i in np.flatnonzero(hit).tolist():
            tokens[i] = name
        unmatched &= ~hit
    rest = np.flatnonzero(unmatched)
    bits = us[rest].view(np.float64).reshape(-1).view(np.uint64)
    distinct, _, where = kernels.unique(bits)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    where = where.reshape(-1, 8)
    for start in range(0, len(rest), RENDER_CHUNK_ROWS):
        chunk = slice(start, start + RENDER_CHUNK_ROWS)
        for i, entries in zip(rest[chunk].tolist(), texts[where[chunk]].tolist()):
            tokens[i] = "M(" + ",".join(entries) + ")"
    return tokens


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Sample a random element of U(2).

    Parametrized as phase * rz(alpha) @ ry(beta) @ rz(gamma), which covers
    the whole group and is reproducible from the generator state.
    """
    alpha, gamma, delta = rng.uniform(0.0, 2 * np.pi, size=3)
    beta = rng.uniform(0.0, np.pi)
    return np.exp(1j * delta) * (rz(alpha) @ ry(beta) @ rz(gamma))
