"""Reference oracles: each form by its defining semantics, slowly.

The program computes every form with butterfly cascades; each function
here computes the same thing from first principles, for tests to compare:
butterfly_stage, pair by pair, checks kernels.gate_stage; triangular_solve,
gate by gate from the activation semantics, mux.forward_transform;
rm_transform_matrix (a Kronecker product) and evaluate_spectrum (the XOR of
map_coefficient's base functions) boolrm.rm_transform; rm_ranking, one
transform per polarity sorted in Python, the Ranking of boolrm.rm_search;
control_count and map_coefficient's literal counts
blocksearch.count_vector; render_gate, one matrix at a time,
gates.render_gates; product_table, row by row and
by nearest elements, the table step of group.intern; and the pinned
optima of known_cases search.exhaustive_search.  random_unitary samples
inputs for them.  No module of the program imports this one (the
package's __init__ names its exports, imported on first use), and it never
calls the kernels it checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import gates
from .blocksearch import FAMILY_DIGITS, KRM, check_polarity, digit_mask
from .boolrm import BoolFunc, RMSpectrum, literal_cost, rm_transform
from .errors import FormMismatch, LengthNotPowerOfTwo, SizeLimitExceeded
from .mux import STANDARD, Multiplexer, activation_mask, form_for_polarity
from .pla import to_multiplexer

# group.intern's key grid: distinct elements lie farther apart than this.
_GRID = 2.0**-20

_STAGE_MATRICES = {
    "1": np.array([[1, 0], [1, 1]], dtype=np.uint8),
    "0": np.array([[1, 1], [0, 1]], dtype=np.uint8),
    "2": np.eye(2, dtype=np.uint8),
}


def butterfly_stage(gate_vector, kernel, bit: int) -> np.ndarray:
    """Apply a 2-gate kernel to every index pair differing at `bit`.

    kernel is a callable (a, b) -> (a', b') applied per pair.
    """
    arr = np.ascontiguousarray(np.asarray(gate_vector, dtype=complex))
    n = arr.shape[0]
    if n < 2 or n & (n - 1):
        raise LengthNotPowerOfTwo(f"gate vector length {n} is not a power of two")
    if arr.shape[1:] != (2, 2):
        raise ValueError("gate vector entries must be 2x2 matrices")
    num_bits = n.bit_length() - 1
    if not 0 <= bit < num_bits:
        raise ValueError(f"bit {bit} out of range for {n} gates")
    out = arr.copy()
    step = 1 << bit
    for base in range(n):
        if base & step:
            continue
        lo, hi = kernel(arr[base], arr[base + step])
        out[base] = lo
        out[base + step] = hi
    return out


def render_gate(u: np.ndarray) -> str:
    """Render a matrix as a token that parse_gate accepts: the name of the
    first catalog gate within EPS, or else a matrix literal at full float
    precision (repr keeps -0.0), so parse/render round-trips."""
    for name, mat in gates.CATALOG.items():
        if gates.approx_eq(u, mat):
            return name
    entries = zip(u.real.ravel().tolist(), u.imag.ravel().tolist())
    return "M(" + ",".join(f"{re!r},{im!r}" for re, im in entries) + ")"


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Sample a random element of U(2).

    Parametrized as phase * rz(alpha) @ ry(beta) @ rz(gamma), which covers
    the whole group and is reproducible from the generator state.
    """
    alpha, gamma, delta = rng.uniform(0.0, 2 * np.pi, size=3)
    beta = rng.uniform(0.0, np.pi)
    return np.exp(1j * delta) * (gates.rz(alpha) @ gates.ry(beta) @ gates.rz(gamma))


def product_table(elements: np.ndarray):
    """(mul, residual) of group.intern's table step, one row at a time and
    without keys: mul[i, j] is the element nearest elements[i] @ elements[j]
    by the largest entry difference, and residual the largest Frobenius
    norm of such a product against its element.  None, where the step
    declines, when two elements lie within 2^-20 of each other (the key
    grid) or a product lies no nearer than that to every element."""
    g = len(elements)
    mul = np.empty((g, g), dtype=np.uint8)
    residual = 0.0
    for i in range(g):
        if np.count_nonzero(np.abs(elements - elements[i]).max(axis=(1, 2)) < _GRID) != 1:
            return None
        row = np.matmul(elements[i], elements)
        distance = np.abs(row[:, None] - elements[None]).max(axis=(2, 3))
        mul[i] = nearest = distance.argmin(axis=1)
        if distance[np.arange(g), nearest].max() >= _GRID:
            return None
        residual = max(residual, float(np.linalg.norm(row - elements[nearest], axis=(1, 2)).max()))
    return mul, residual


def triangular_solve(std: Multiplexer, polarity: str) -> Multiplexer:
    """Polarized targets derived one gate at a time from first principles.

    For each gate index t (ascending), pick the input state that fires t as
    its top gate and peel the already-solved lower gates off the standard
    target.  Independent of the butterfly cascade; used as its reference.
    """
    if std.form != STANDARD:
        raise FormMismatch(f"triangular solve needs standard form, got {std.form}")
    form = form_for_polarity(polarity)
    check_polarity(polarity, std.controls, form)
    m = std.controls
    if m > 8:
        raise SizeLimitExceeded("triangular solve is limited to 8 controls")

    # Input state whose top active gate is t: flip t's bits on negative digits.
    flip = digit_mask(polarity, "0")
    solved = np.empty((1 << m, 2, 2), dtype=complex)
    probe = Multiplexer(m, np.tile(np.eye(2, dtype=complex), (1 << m, 1, 1)), form, polarity)
    targets = std.targets
    for t in range(1 << m):
        state = t ^ flip
        active = np.flatnonzero(activation_mask(probe, state))
        tail = np.eye(2, dtype=complex)
        for j in sorted(active):
            if j != t:
                tail = solved[j] @ tail
        solved[t] = targets[state] @ gates.inverse(tail)
    return Multiplexer(m, solved, form, polarity)


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


def rm_ranking(func: BoolFunc, family: str) -> list:
    """Every polarity of the family with its literal cost, as (polarity,
    cost) pairs sorted stably by cost: the rows of boolrm.rm_search's
    Ranking, from one boolrm.rm_transform per polarity (its cascade, which
    rm_transform_matrix checks) instead of the block search, in
    itertools.product order instead of named from indices."""
    polarities = map("".join, itertools.product(FAMILY_DIGITS[family], repeat=func.num_vars))
    costs = [(p, literal_cost(rm_transform(func, p))) for p in polarities]
    return sorted(costs, key=lambda item: item[1])


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


def evaluate_spectrum(spectrum: RMSpectrum, point: int) -> int:
    """XOR of the nonzero coefficients' base functions at one input point."""
    acc = 0
    for i in np.nonzero(spectrum.coefficients)[0]:
        acc ^= map_coefficient(int(i), spectrum.polarity).evaluate(point)
    return acc


def control_count(gate_index: int, polarity: str) -> int:
    """Controls on gate `gate_index` under the polarity digits.

    A fixed digit contributes one control iff the gate-index bit for that
    variable is 1; a mixed digit always contributes one.
    """
    m = len(polarity)
    count = 0
    for k, digit in enumerate(polarity):
        if digit == "2":
            count += 1
        elif (gate_index >> (m - 1 - k)) & 1:
            count += 1
    return count


@dataclass(frozen=True)
class KnownCase:
    name: str
    multiplexer: Multiplexer
    best_fpqf_polarity: str | None = None


def known_cases() -> list:
    """Hand-built multiplexers with known optima where pinned."""
    ivvx_targets = np.stack([gates.I, gates.V, gates.V, gates.X])
    parity3 = BoolFunc.from_string("01101001")
    return [
        KnownCase("iv-v-x", Multiplexer(2, ivvx_targets), "11"),
        KnownCase("all-identity-2", Multiplexer(2, np.stack([gates.I] * 4))),
        KnownCase("parity-3", to_multiplexer(parity3)),
    ]
