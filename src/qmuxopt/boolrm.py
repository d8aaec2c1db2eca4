"""Classical fixed-polarity and Kronecker XOR forms of Boolean functions.

A function on n variables is a minterm bit-vector of length 2^n in
ascending natural index order; the first variable (c_1, usually written a)
is the most significant index bit.  A polarity is a digit string of length
n: '1' positive, '0' negative, '2' mixed.  FPRM polarities use only {0,1};
KRM polarities use {0,1,2}.

The transform is a cascade of GF(2) butterfly columns, one per variable.
The columns commute, so the order is fixed (first variable first) purely
for determinism.  Output position i of the transform pairs with the base
function map_coefficient(i, p) of the test oracle (tests/oracle.py);
positions are never reordered.

rm_transform and rm_inverse_transform run `blocksearch.cascade` on the
family's GF(2) columns.  rm_search costs every polarity with
`blocksearch.polarity_costs`: a DFS of GF(2) columns over the top digits,
then blocks of the function's extended truth vector (ETV; per variable
the x = 0 cofactor, the x = 1 cofactor and their XOR).  A coefficient's
count is the literal count of its base function: a fixed digit adds a
literal where the index bit equals the digit, a '2' digit always.  A
polarity's literal cost is the sum of the counts of its nonzero
coefficients, so the cost table is 0..n.

rm_search returns a Ranking: a read-only view over two arrays, the costs
in lexicographic polarity order and their stable ascending argsort.  It
holds no per-polarity Python object; its rows, (polarity, cost) pairs,
are named a batch at a time as a report reaches them, so the 2^n or 3^n
rows of a ranking never exist as objects at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import blocksearch, kernels
from .blocksearch import FPRM, KRM, cascade, check_polarity, count_vector
from .errors import ParseError, QmuxError
from .kernels import read_only


@dataclass(frozen=True)
class BoolFunc:
    """Boolean function as a minterm vector."""

    num_vars: int
    minterms: np.ndarray

    def __post_init__(self):
        if self.num_vars < 1:
            raise QmuxError("need at least one variable")
        vec = read_only(self.minterms, np.uint8)
        if vec.shape != (1 << self.num_vars,):
            raise QmuxError(
                f"minterm vector must have length {1 << self.num_vars}, "
                f"got shape {vec.shape}"
            )
        if np.any(vec > 1):
            raise QmuxError("minterm values must be 0 or 1")
        object.__setattr__(self, "minterms", vec)

    @classmethod
    def from_string(cls, text: str) -> "BoolFunc":
        """Build from a binary or 0x-prefixed hex minterm string.

        The string lists minterm values m_0 .. m_{2^n - 1}; a hex string of
        k digits expands to 4k bits.  A string that is neither is refused
        as a ParseError whose source is the string as given.
        """
        bits = text.strip()
        if bits.lower().startswith("0x"):
            digits = bits[2:]
            if not digits or any(c not in "0123456789abcdefABCDEF" for c in digits):
                raise ParseError(f"bad hex minterm string {bits!r}", text)
            bits = "".join(f"{int(c, 16):04b}" for c in digits)
        elif not bits or set(bits) - {"0", "1"}:
            raise ParseError(f"bad binary minterm string {bits!r}", text)
        n = (len(bits) - 1).bit_length()
        if len(bits) != 1 << n or len(bits) < 2:
            raise ParseError(f"minterm string length {len(bits)} is not a power of two >= 2", text)
        vec = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
        vec.setflags(write=False)  # handed over: kept uncopied
        return cls(n, vec)

    def value(self, point: int) -> int:
        return int(self.minterms[point])


@dataclass(frozen=True)
class RMSpectrum:
    """Transform output: coefficient bit-vector plus its polarity."""

    polarity: str
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", read_only(self.coefficients, np.uint8))

    @property
    def num_vars(self) -> int:
        return len(self.polarity)


def rm_transform(func: BoolFunc, polarity: str) -> RMSpectrum:
    """Spectral coefficients of func at the given polarity.

    One butterfly column per variable; the column for variable c_k pairs
    indices differing at bit (n - k).  Equals the Kronecker transform
    matrix applied to the minterm vector.
    """
    check_polarity(polarity, func.num_vars, KRM)
    coefficients = cascade(func.minterms.copy(), polarity, KRM)
    coefficients.setflags(write=False)  # handed over: kept uncopied
    return RMSpectrum(polarity, coefficients)


def rm_inverse_transform(spectrum: RMSpectrum) -> BoolFunc:
    """Recover the minterm vector from a spectrum.

    Each GF(2) column is its own inverse, and columns on different bits
    commute, so the cascade that made the spectrum also undoes it.
    """
    coefficients = cascade(spectrum.coefficients.copy(), spectrum.polarity, KRM, inverse=True)
    coefficients.setflags(write=False)  # handed over: kept uncopied
    return BoolFunc(spectrum.num_vars, coefficients)


def literal_cost(spectrum: RMSpectrum) -> int:
    """Total literals over the nonzero coefficients; constants cost 0."""
    counts = count_vector(spectrum.polarity, KRM)
    return int((spectrum.coefficients.astype(np.int64) * counts).sum())


@dataclass(frozen=True, eq=False)
class Ranking:
    """Every polarity of a family with its literal cost, cheapest first,
    ties in lexicographic polarity order: a view over two arrays.

    costs[i] is the cost of the polarity whose index is i in lexicographic
    order, i read as a base-len(FAMILY_DIGITS[family]) numeral with c_1
    most significant; order lists the ranked indices, a stable argsort of
    costs.  A slice of the ranking slices order (the CLI's --top), so it
    stays a view.  Iteration, an integer index and batches() give
    (polarity, cost) rows, with the polarities named from their indices a
    batch at a time (blocksearch.polarity_names): a report of every row
    holds only one batch's strs.
    """

    family: str
    num_vars: int
    costs: np.ndarray
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return replace(self, order=self.order[key])
        row = self[key : key + 1 or None]
        if not len(row):
            raise IndexError(f"ranking index {key} out of range for {len(self)} polarities")
        return next(iter(row))

    def __iter__(self):
        return itertools.chain.from_iterable(zip(*batch) for batch in self.batches())

    def batches(self, rows: int | None = None):
        """The ranked rows, `rows` (default kernels.CHUNK_ROWS) at a time, as
        (polarities, costs): a list of strs and a list of ints, made only
        when the batch is reached."""
        rows = rows or kernels.CHUNK_ROWS
        for start in range(0, len(self.order), rows):
            index = self.order[start : start + rows]
            names = blocksearch.polarity_names(index, self.family, self.num_vars)
            yield names, self.costs[index].tolist()


def rm_search(func: BoolFunc, family: str = FPRM) -> Ranking:
    """Every polarity of the family with its literal cost, as a Ranking:
    cheapest first, ties broken by lexicographic polarity order."""
    blocksearch.check_size(family, func.num_vars)
    n = func.num_vars
    costs = blocksearch.polarity_costs(func.minterms, family, np.arange(n + 1))
    order = np.argsort(costs, kind="stable")  # stable: ties stay lexicographic
    costs.setflags(write=False)  # handed over: kept uncopied
    order.setflags(write=False)
    return Ranking(family, n, costs, order)
