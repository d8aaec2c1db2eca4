"""Classical fixed-polarity and Kronecker XOR forms of Boolean functions.

A function on n variables is a minterm bit-vector of length 2^n in
ascending natural index order; the first variable (c_1, usually written a)
is the most significant index bit.  A polarity is a digit string of length
n: '1' positive, '0' negative, '2' mixed.  FPRM polarities use only {0,1};
KRM polarities use {0,1,2}.

The transform is a cascade of GF(2) butterfly columns, one per variable.
The columns commute, so the order is fixed (first variable first) purely
for determinism.  Output position i of the transform pairs with the base
function map_coefficient(i, p); positions are never reordered.

rm_search costs every polarity without running one cascade per polarity.
Every coefficient of every polarity is one entry of the function's
extended truth vector (ETV), which has 3^n entries: per variable, slot 0
is the x = 0 cofactor, slot 1 the x = 1 cofactor and slot 2 their XOR.
Digit '1' keeps slots (0, 2), '0' keeps (2, 1) and '2' keeps (0, 1), and
each digit's literal rides on slot 2 for '1' and '0' and on both slots for
'2'.  So one variable at a time reduces two arrays over the slots, N (how
many coefficients are 1) and W (their literal total so far), with one
output per digit:

  '1'  N0 + N2,  W0 + W2 + N2
  '0'  N1 + N2,  W1 + W2 + N2
  '2'  N0 + N1,  W0 + W1 + N0 + N1

After the last variable W holds the literal cost of every polarity, in
lexicographic order: O(n 3^n) work in place of O(n 4^n).  A full ETV
takes 3^n bytes (43 MB at n = 16), so the search splits the variables.
The top t = n - BLOCK_VARS digits stay a prefix-sharing DFS of GF(2)
columns.  Each depth-t node views its vector as 2^t rows of 2^b bits
(b = n - t) and expands only the rows' bottom b variables, which is a
(2^t, 3^b) byte block.  N sums the block over the rows, and W also
weights each row by the literal count its prefix gives it.  The block is
at most 2^6 x 3^10 bytes (3.8 MB) within SEARCH_LIMITS.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import PolarityLengthMismatch, SizeLimitExceeded

FPRM = "fprm"
KRM = "krm"

FAMILY_DIGITS = {FPRM: "01", KRM: "012"}

# Exhaustive-search limits: 2^16 FPRM polarities / 3^10 KRM polarities.
SEARCH_LIMITS = {FPRM: 16, KRM: 10}

# Bottom variables rm_search expands to ETV slots per DFS node (b).  10 is
# SEARCH_LIMITS[KRM], so every KRM search is one block with no DFS.  FPRM
# blocks are 2^(n-10) x 3^10 bytes: 0.9 MB at n = 14, 3.8 MB at n = 16.
# In process on a 2-core Xeon: b = 8 ran 1.9x slower at n = 14; b = 11 and 12 ran
# 1.8x and 2.3x faster at n = 16 but peaked 7 MB and 15 MB higher.
BLOCK_VARS = 10

# ETV slots each digit keeps as its two transform outputs (clear-bit output
# first), and the kept slots whose coefficient carries the digit's literal.
_ETV_RULES = {
    "1": ((0, 2), (2,)),
    "0": ((2, 1), (2,)),
    "2": ((0, 1), (0, 1)),
}

_GF2_KERNELS = {
    "1": kernels.GF2_POS,
    "0": kernels.GF2_NEG,
    "2": kernels.GF2_MIXED,
}

_STAGE_MATRICES = {
    "1": np.array([[1, 0], [1, 1]], dtype=np.uint8),
    "0": np.array([[1, 1], [0, 1]], dtype=np.uint8),
    "2": np.eye(2, dtype=np.uint8),
}


def validate_polarity(polarity: str, num_vars: int, family: str = KRM) -> None:
    if len(polarity) != num_vars:
        raise PolarityLengthMismatch(
            f"polarity {polarity!r} has {len(polarity)} digits, expected {num_vars}"
        )
    allowed = FAMILY_DIGITS[family]
    bad = set(polarity) - set(allowed)
    if bad:
        raise ValueError(f"polarity {polarity!r} uses digits outside {allowed!r}")


@dataclass(frozen=True)
class BoolFunc:
    """Boolean function as a minterm vector."""

    num_vars: int
    minterms: np.ndarray

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        vec = np.asarray(self.minterms, dtype=np.uint8)
        if vec.shape != (1 << self.num_vars,):
            raise ValueError(
                f"minterm vector must have length {1 << self.num_vars}, "
                f"got shape {vec.shape}"
            )
        if np.any(vec > 1):
            raise ValueError("minterm values must be 0 or 1")
        vec.setflags(write=False)
        object.__setattr__(self, "minterms", vec)

    @classmethod
    def from_string(cls, text: str) -> "BoolFunc":
        """Build from a binary or 0x-prefixed hex minterm string.

        The string lists minterm values m_0 .. m_{2^n - 1}; a hex string of
        k digits expands to 4k bits.
        """
        text = text.strip()
        if text.lower().startswith("0x"):
            digits = text[2:]
            if not digits or any(c not in "0123456789abcdefABCDEF" for c in digits):
                raise ValueError(f"bad hex minterm string {text!r}")
            bits = "".join(f"{int(c, 16):04b}" for c in digits)
        else:
            if not text or set(text) - {"0", "1"}:
                raise ValueError(f"bad binary minterm string {text!r}")
            bits = text
        n = (len(bits) - 1).bit_length()
        if len(bits) != 1 << n or len(bits) < 2:
            raise ValueError(
                f"minterm string length {len(bits)} is not a power of two >= 2"
            )
        return cls(n, np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0"))

    @classmethod
    def from_on_set(cls, num_vars: int, on_indices) -> "BoolFunc":
        vec = np.zeros(1 << num_vars, dtype=np.uint8)
        for idx in on_indices:
            vec[idx] = 1
        return cls(num_vars, vec)

    def value(self, point: int) -> int:
        return int(self.minterms[point])


@dataclass(frozen=True)
class RMSpectrum:
    """Transform output: coefficient bit-vector plus its polarity."""

    polarity: str
    coefficients: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.coefficients, dtype=np.uint8)
        vec.setflags(write=False)
        object.__setattr__(self, "coefficients", vec)

    @property
    def num_vars(self) -> int:
        return len(self.polarity)


@dataclass(frozen=True)
class BaseFunction:
    """Product of literals paired with a spectral coefficient.

    literals[k] is None when variable k+1 is absent, True for a positive
    literal, False for a negative one.  An all-absent base is the constant 1.
    """

    literals: tuple

    @property
    def literal_count(self) -> int:
        return sum(1 for lit in self.literals if lit is not None)

    def evaluate(self, point: int) -> int:
        n = len(self.literals)
        for k, lit in enumerate(self.literals):
            if lit is None:
                continue
            bit = (point >> (n - 1 - k)) & 1
            if bool(bit) != lit:
                return 0
        return 1

    def label(self, names: str = "abcdefghijklmnop") -> str:
        parts = []
        for k, lit in enumerate(self.literals):
            if lit is None:
                continue
            parts.append(names[k] if lit else names[k] + "'")
        return "".join(parts) or "1"


def rm_transform(func: BoolFunc, polarity: str) -> RMSpectrum:
    """Spectral coefficients of func at the given polarity.

    One butterfly column per variable; the column for variable c_k pairs
    indices differing at bit (n - k).  Equals the Kronecker transform
    matrix applied to the minterm vector.
    """
    n = func.num_vars
    validate_polarity(polarity, n)
    vec = func.minterms.copy()
    for k, digit in enumerate(polarity):
        vec = kernels.gf2_stage(vec, _GF2_KERNELS[digit], n - 1 - k)
    return RMSpectrum(polarity, vec)


def rm_inverse_transform(spectrum: RMSpectrum) -> BoolFunc:
    """Recover the minterm vector from a spectrum.

    The three GF(2) kernels are self-inverse, so the inverse is the same
    columns in reverse order.
    """
    n = spectrum.num_vars
    vec = spectrum.coefficients.copy()
    for k in reversed(range(n)):
        vec = kernels.gf2_stage(vec, _GF2_KERNELS[spectrum.polarity[k]], n - 1 - k)
    return BoolFunc(n, vec)


def rm_transform_matrix(polarity: str) -> np.ndarray:
    """GF(2) transform matrix: the Kronecker product over polarity digits.

    Intended as a small-n cross-check of the butterfly path, so sizes are
    capped at 12 variables.
    """
    if len(polarity) > 12:
        raise SizeLimitExceeded("transform matrices are limited to 12 variables")
    validate_polarity(polarity, len(polarity))
    mat = np.array([[1]], dtype=np.uint8)
    for digit in polarity:
        mat = np.kron(mat, _STAGE_MATRICES[digit])
    return mat


def map_coefficient(index: int, polarity: str) -> BaseFunction:
    """Base function paired with transform output position `index`.

    Digit-by-digit comparison of the index against the polarity: a fixed
    digit includes its variable (at that digit's polarity) iff the index
    bit equals the digit; a mixed digit always includes its variable, with
    polarity taken from the index bit.
    """
    n = len(polarity)
    literals = []
    for k, digit in enumerate(polarity):
        bit = (index >> (n - 1 - k)) & 1
        if digit == "2":
            literals.append(bool(bit))
        elif bit == int(digit):
            literals.append(digit == "1")
        else:
            literals.append(None)
    return BaseFunction(tuple(literals))


def negative_digit_mask(polarity: str) -> int:
    """Index mask with a 1 at each fixed-negative ('0') digit's bit."""
    n = len(polarity)
    mask = 0
    for k, digit in enumerate(polarity):
        if digit == "0":
            mask |= 1 << (n - 1 - k)
    return mask


def base_order_index(index: int, polarity: str) -> int:
    """Map a transform output position to its base-function index.

    Base-function index j has bit k set iff variable c_{k+1} appears in the
    base function (for mixed digits the bit gives the literal's polarity).
    The map is an XOR with the fixed-negative digit mask, an involution.
    """
    return index ^ negative_digit_mask(polarity)


def literal_count_vector(polarity: str) -> np.ndarray:
    """literal counts of map_coefficient(i, polarity) for every position i."""
    n = len(polarity)
    idx = np.arange(1 << n)
    counts = np.zeros(1 << n, dtype=np.int64)
    for k, digit in enumerate(polarity):
        bit = (idx >> (n - 1 - k)) & 1
        if digit == "2":
            counts += 1
        else:
            counts += bit == int(digit)
    return counts


def literal_cost(spectrum: RMSpectrum) -> int:
    """Total literals over the nonzero coefficients; constants cost 0."""
    counts = literal_count_vector(spectrum.polarity)
    return int((spectrum.coefficients.astype(np.int64) * counts).sum())


def evaluate_spectrum(spectrum: RMSpectrum, point: int) -> int:
    """XOR of the nonzero coefficients' base functions at one input point."""
    acc = 0
    for i in np.nonzero(spectrum.coefficients)[0]:
        acc ^= map_coefficient(int(i), spectrum.polarity).evaluate(point)
    return acc


def _etv_rows(rows: np.ndarray) -> np.ndarray:
    """Extended truth vector of each row: (r, 2^b) bits -> (r, 3^b) bits.

    The last variable is expanded first, so every step copies contiguous
    runs of 3^j bytes rather than single strided bytes.
    """
    r = rows.shape[0]
    etv = rows
    for j in range(rows.shape[1].bit_length() - 1):
        pairs = etv.reshape(r, -1, 2, 3**j)
        etv = np.empty((r, pairs.shape[1], 3, 3**j), dtype=np.uint8)
        etv[:, :, :2] = pairs
        np.bitwise_xor(pairs[:, :, 0], pairs[:, :, 1], out=etv[:, :, 2])
    return etv.reshape(r, -1)


def _suffix_costs(rows: np.ndarray, prefix_counts: np.ndarray, digits: str) -> np.ndarray:
    """Literal cost of every suffix polarity of one depth-t DFS node.

    rows is the node's vector as (2^t, 2^b); prefix_counts[r] is the literal
    count the top t digits give row r.  Returns len(digits)^b int32 costs in
    lexicographic suffix order.
    """
    etv = _etv_rows(rows)
    count = etv.sum(axis=0, dtype=np.int32)
    weight = np.einsum("r,rk->k", prefix_counts.astype(np.int32), etv)
    del etv
    for j in range(rows.shape[1].bit_length() - 1):
        n3 = count.reshape(len(digits)**j, 3, -1)
        w3 = weight.reshape(len(digits)**j, 3, -1)
        count_out, weight_out = [], []
        for digit in digits:
            (s, u), literal_slots = _ETV_RULES[digit]
            count_out.append(n3[:, s] + n3[:, u])
            weight_out.append(w3[:, s] + w3[:, u] + sum(n3[:, k] for k in literal_slots))
        count = np.stack(count_out, axis=1).reshape(-1)
        weight = np.stack(weight_out, axis=1).reshape(-1)
    return weight


def rm_search(func: BoolFunc, family: str = FPRM) -> list:
    """Every polarity of the family with its literal cost.

    Returns (polarity, cost) pairs sorted by ascending cost, ties broken by
    lexicographic polarity order.
    """
    if family not in FAMILY_DIGITS:
        raise ValueError(f"unknown family {family!r}")
    if func.num_vars > SEARCH_LIMITS[family]:
        raise SizeLimitExceeded(
            f"{family} search is limited to {SEARCH_LIMITS[family]} variables, "
            f"got {func.num_vars}"
        )
    n = func.num_vars
    digits = FAMILY_DIGITS[family]
    base = len(digits)
    top = max(n - BLOCK_VARS, 0)
    span = base ** (n - top)
    costs = np.empty(base**n, dtype=np.int64)

    def walk(vec, prefix, node):
        if len(prefix) == top:
            costs[node * span : (node + 1) * span] = _suffix_costs(
                vec.reshape(1 << top, -1), literal_count_vector(prefix), digits
            )
            return
        bit = n - 1 - len(prefix)
        for k, digit in enumerate(digits):
            child = kernels.gf2_stage(vec, _GF2_KERNELS[digit], bit)
            walk(child, prefix + digit, node * base + k)

    walk(func.minterms, "", 0)
    order = np.argsort(costs, kind="stable")  # stable: ties stay lexicographic
    # Python objects only now, after every block array is freed.
    names = ["".join(p) for p in itertools.product(digits, repeat=n)]
    return [(names[i], c) for i, c in zip(order.tolist(), costs[order].tolist())]
