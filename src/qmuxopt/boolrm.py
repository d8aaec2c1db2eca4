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

rm_search costs every polarity with `blocksearch.polarity_costs` on the
GF(2) butterfly: a DFS of `kernels.gf2_stage` columns over the top
digits, then blocks of `kernels.etv_stage` slots, the function's extended
truth vector (ETV; per variable the x = 0 cofactor, the x = 1 cofactor
and their XOR).  A coefficient's count is the literal count of its base
function: a fixed digit adds a literal where the index bit equals the
digit, a '2' digit always.  A polarity's literal cost is the sum of the
counts of its nonzero coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import blocksearch, kernels
from .blocksearch import FAMILY_DIGITS, FPRM, KRM, check_polarity, count_vector, digit_mask
from .errors import SizeLimitExceeded

_STAGE_MATRICES = {
    "1": np.array([[1, 0], [1, 1]], dtype=np.uint8),
    "0": np.array([[1, 1], [0, 1]], dtype=np.uint8),
    "2": np.eye(2, dtype=np.uint8),
}


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
    check_polarity(polarity, func.num_vars, KRM)
    return RMSpectrum(polarity, _cascade(func.minterms, polarity))


def rm_inverse_transform(spectrum: RMSpectrum) -> BoolFunc:
    """Recover the minterm vector from a spectrum.

    Each GF(2) column is its own inverse, and columns on different bits
    commute, so the cascade that made the spectrum also undoes it.
    """
    return BoolFunc(spectrum.num_vars, _cascade(spectrum.coefficients, spectrum.polarity))


def _cascade(vec: np.ndarray, polarity: str) -> np.ndarray:
    """The GF(2) butterfly columns of the polarity, c_1's first."""
    n = len(polarity)
    for k, digit in enumerate(polarity):
        vec = kernels.gf2_stage(vec, kernels.GF2[digit], n - 1 - k)
    return vec


def rm_transform_matrix(polarity: str) -> np.ndarray:
    """GF(2) transform matrix: the Kronecker product over polarity digits.

    Intended as a small-n cross-check of the butterfly path, so sizes are
    capped at 12 variables.
    """
    if len(polarity) > 12:
        raise SizeLimitExceeded("transform matrices are limited to 12 variables")
    check_polarity(polarity, len(polarity), KRM)
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
    return digit_mask(polarity, "0")


def base_order_index(index: int, polarity: str) -> int:
    """Map a transform output position to its base-function index.

    Base-function index j has bit k set iff variable c_{k+1} appears in the
    base function (for mixed digits the bit gives the literal's polarity).
    The map is an XOR with the fixed-negative digit mask, an involution.
    """
    return index ^ negative_digit_mask(polarity)


def literal_cost(spectrum: RMSpectrum) -> int:
    """Total literals over the nonzero coefficients; constants cost 0."""
    counts = count_vector(spectrum.polarity, KRM)
    return int((spectrum.coefficients.astype(np.int64) * counts).sum())


def evaluate_spectrum(spectrum: RMSpectrum, point: int) -> int:
    """XOR of the nonzero coefficients' base functions at one input point."""
    acc = 0
    for i in np.nonzero(spectrum.coefficients)[0]:
        acc ^= map_coefficient(int(i), spectrum.polarity).evaluate(point)
    return acc


def rm_search(func: BoolFunc, family: str = FPRM) -> list:
    """Every polarity of the family with its literal cost.

    Returns (polarity, cost) pairs sorted by ascending cost, ties broken by
    lexicographic polarity order.
    """
    blocksearch.check_size(family, func.num_vars)
    n = func.num_vars
    costs = blocksearch.polarity_costs(
        func.minterms,
        family,
        stage=lambda vec, digit, bit: kernels.gf2_stage(vec, kernels.GF2[digit], bit),
        column=kernels.etv_stage,
        live=lambda bits: bits,
        cost_table=np.arange(n + 1),
    )
    order = np.argsort(costs, kind="stable")  # stable: ties stay lexicographic
    # Python objects only now, after every block array is freed.
    names = ["".join(p) for p in itertools.product(FAMILY_DIGITS[family], repeat=n)]
    return [(names[i], c) for i, c in zip(order.tolist(), costs[order].tolist())]
