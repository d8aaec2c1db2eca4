"""Quantum multiplexer model: activation semantics and polarity transforms.

A multiplexer with m controls holds 2^m single-qubit targets, one per
control index, with control variable c_1 the most significant index bit.
Circuit order maps to matrix order as "later gate = left factor": the gate
at index 0 is applied first, so the realized operator for an input state
is the product of the active targets with the highest index leftmost.

Standard form activates exactly the target whose index equals the input
state.  In a polarized form with digits p (per variable: '1' positive,
'0' negative, '2' mixed), gate i is controlled by variable c_k when the
k-th bit of i is 1 (fixed digits) or always (mixed digits); a negative
digit reads its control line through an inverter.  Every product here,
of the realized operators and (through blocksearch.cascade) of the
transforms, is kernels.times or kernels.times_inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gates, kernels
from .blocksearch import FPQF, KQF, cascade, check_polarity, digit_mask
from .errors import FormMismatch, QmuxError, is_int
from .kernels import read_only

STANDARD = "standard"

EPS = gates.EPS


@dataclass(frozen=True, eq=False)
class Palette:
    """A gate vector held as its distinct matrices and, per gate, the
    position of its matrix: gate i is matrices[index[i]].

    index is None when matrices already holds one matrix per gate, as it
    does for a plain (2^m, 2, 2) target array.  The loaders, randmux and pla
    build palettes; forward and inverse transforms return plain arrays.
    """

    matrices: np.ndarray  # (k, 2, 2) complex
    index: np.ndarray | None = None  # (2^m,) unsigned ints below k

    def per_gate(self, values: np.ndarray, rows=slice(None)) -> np.ndarray:
        """values, one per palette matrix, for the gates `rows` (a slice or
        an integer array of gate positions): values[index[rows]]."""
        if self.index is None:
            return values[rows]
        return values[self.index[rows]]


def used_palette(matrices: np.ndarray, choices: np.ndarray) -> Palette:
    """Palette of the matrices that `choices`, one position in `matrices`
    per gate, picks: unused matrices are left out, the rest keep their
    order, and the index is renumbered to them."""
    used = np.bincount(choices, minlength=len(matrices)) > 0
    renumber = np.cumsum(used) - 1
    index = renumber.astype(np.min_scalar_type(renumber[-1]))[choices]
    index.setflags(write=False)
    return Palette(matrices[used], index)


@dataclass(frozen=True, eq=False, init=False)
class Multiplexer:
    """Immutable multiplexer value.

    Multiplexer(controls, targets, form, polarity, inverted_lines) takes
    the targets as a (2^controls, 2, 2) complex array or as a Palette; every
    palette matrix must be unitary within EPS.  An input of a few distinct
    gates is held as its palette and an index of one byte per gate (while
    the palette has at most 256 matrices), and
    `palette` is how every consumer reads the targets: the unitarity
    check, group.intern and the identity tests run on palette.matrices
    alone, and palette.per_gate spreads their per-matrix results to the
    gates.  Only this module expands a palette into the 2^m complex vector:
    `targets` builds it (read-only) on each read, the transforms build a
    fresh one as their cascade's working copy, and target_chunks gives it
    to the writers a chunk at a time.

    inverted_lines lists 1-based control lines that carry a leading
    inverter (produced by negative_control_realization); only a
    fixed-polarity digit's line can.
    """

    controls: int
    palette: Palette
    form: str = STANDARD
    polarity: str | None = None
    inverted_lines: tuple = ()

    def __init__(self, controls, targets, form=STANDARD, polarity=None, inverted_lines=()):
        if not is_int(controls):
            raise QmuxError(f"controls {controls!r} is not an int")
        if controls < 1:
            raise QmuxError("a multiplexer needs at least one control variable")
        palette = targets if isinstance(targets, Palette) else Palette(targets)
        matrices = read_only(palette.matrices, complex)
        index = None if palette.index is None else read_only(palette.index)
        expected = (1 << controls, 2, 2)
        if index is None:
            shape = matrices.shape
        else:
            if matrices.ndim != 3 or matrices.shape[1:] != (2, 2):
                raise QmuxError(f"palette matrices must be (k, 2, 2), got {matrices.shape}")
            if index.ndim != 1 or index.dtype.kind != "u":
                raise QmuxError("a palette index is a vector of unsigned ints")
            shape = (len(index), 2, 2)
        if shape != expected:
            raise QmuxError(f"targets must have shape {expected}, got {shape}")
        if index is not None and (top := int(index.max())) >= len(matrices):
            raise QmuxError(f"palette index {top} out of range 0..{len(matrices) - 1}")
        worst = gates.unitarity_residual(matrices)
        if math.isnan(worst):
            raise QmuxError("targets contain non-finite entries")
        if worst > EPS:
            raise QmuxError(f"targets are not unitary (worst deviation {worst:.3e})")

        if form == STANDARD:
            if polarity is not None:
                raise QmuxError("standard form carries no polarity")
        elif form in (FPQF, KQF):
            if polarity is None:
                raise QmuxError(f"{form} form requires a polarity")
            check_polarity(polarity, controls, form)
        else:
            raise QmuxError(f"unknown form {form!r}")

        lines = tuple(sorted(set(inverted_lines)))
        if lines and form == STANDARD:
            raise QmuxError("standard form has no polarized lines to invert")
        for k in lines:
            if not 1 <= k <= controls:
                raise QmuxError(f"inverted line {k} out of range 1..{controls}")
            if polarity[k - 1] == "2":
                raise QmuxError(f"line {k} is mixed polarity and cannot carry an inverter")
        for name, value in (
            ("controls", controls),
            ("palette", Palette(matrices, index)),
            ("form", form),
            ("polarity", polarity),
            ("inverted_lines", lines),
        ):
            object.__setattr__(self, name, value)

    @property
    def targets(self) -> np.ndarray:
        """The (2^controls, 2, 2) complex targets, read-only: a palette is
        expanded into a new array on every read."""
        out = self.palette.per_gate(self.palette.matrices)
        out.setflags(write=False)
        return out

    @property
    def num_targets(self) -> int:
        return 1 << self.controls

    @property
    def digits(self) -> str:
        """Polarity digits; standard form is the all-mixed polarity."""
        return self.polarity or "2" * self.controls

    def describe(self) -> str:
        if self.form == STANDARD:
            return STANDARD
        return f"{self.form}:{self.polarity}"


def working_targets(mux: Multiplexer) -> np.ndarray:
    """A new writable (2^m, 2, 2) array of the targets, for a cascade to run
    in place on: the palette's expansion, or a copy of a plain array."""
    return np.require(mux.palette.per_gate(mux.palette.matrices), requirements="CW")


def target_chunks(mux: Multiplexer):
    """The targets kernels.CHUNK_ROWS gates at a time, as (n, 2, 2) arrays:
    views of a plain array, or gathers from the palette, so the whole
    complex vector is never built."""
    for start in range(0, mux.num_targets, kernels.CHUNK_ROWS):
        yield mux.palette.per_gate(mux.palette.matrices, slice(start, start + kernels.CHUNK_ROWS))


def activation_mask(mux: Multiplexer, input_state: int) -> np.ndarray:
    """Boolean mask over gate indices: which targets fire for this input.

    Gate i fires when its set bits lie within `allowed` and include
    `required`.  A variable's line value (after any inverter) allows the
    gate bit when it matches the digit ('1' or '2': line 1; '0': line 0),
    and a '2' digit also requires the gate bit to equal the line.
    Standard form, the all-'2' polarity, thus fires only gate i == state.
    """
    m = mux.controls
    if not 0 <= input_state < (1 << m):
        raise ValueError(f"input state {input_state} out of range for {m} controls")
    state = input_state ^ sum(1 << (m - k) for k in mux.inverted_lines)
    allowed = state ^ digit_mask(mux.digits, "0")
    required = state & digit_mask(mux.digits, "2")
    idx = np.arange(1 << m)
    return ((idx & ~allowed) == 0) & ((idx & required) == required)


def semantics(mux: Multiplexer, input_state: int) -> np.ndarray:
    """Operator realized on the target qubit for one input state.

    Ordered product of the active targets, highest index leftmost; the
    identity when nothing fires.
    """
    active = np.flatnonzero(activation_mask(mux, input_state))
    out = np.eye(2, dtype=complex)
    for target in mux.palette.per_gate(mux.palette.matrices, active):
        out = kernels.times(target, out)
    return out


def max_semantic_deviation(a: Multiplexer, b: Multiplexer) -> float:
    """Largest entrywise gap between the two realized operators, over all inputs."""
    if a.controls != b.controls:
        raise FormMismatch("multiplexers have different control counts")
    worst = 0.0
    for state in range(1 << a.controls):
        dev = float(np.abs(semantics(a, state) - semantics(b, state)).max())
        worst = max(worst, dev)
    return worst


def transform_stages(targets: np.ndarray, polarity: str, direction: str, group=None):
    """blocksearch.cascade of a raw gate vector, `direction` "forward" or
    "inverse".

    Kept only because the benchmark's workloads call it; no program code
    does.  ROADMAP item 1, the benchmark refresh, deletes it.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    return cascade(targets.copy(), polarity, KQF, group, direction == "inverse")


def form_for_polarity(polarity: str) -> str:
    return KQF if "2" in polarity else FPQF


def forward_transform(std: Multiplexer, polarity: str) -> Multiplexer:
    """Convert a standard-form multiplexer to the polarized form.

    The all-mixed polarity returns the same target list: standard form is
    the all-mixed point of the family.
    """
    if std.form != STANDARD:
        raise FormMismatch(f"forward transform needs standard form, got {std.form}")
    check_polarity(polarity, std.controls, KQF)  # all of '012', before a form is picked
    form = form_for_polarity(polarity)
    out = cascade(working_targets(std), polarity, form)
    out.setflags(write=False)  # handed over: kept uncopied
    return Multiplexer(std.controls, out, form, polarity)


def inverse_transform(polarized: Multiplexer) -> Multiplexer:
    """Recover the standard-form multiplexer a polarized one came from."""
    if polarized.form == STANDARD:
        raise FormMismatch("inverse transform needs a polarized multiplexer")
    plain = without_inverters(polarized)
    out = cascade(working_targets(plain), plain.polarity, plain.form, inverse=True)
    out.setflags(write=False)  # handed over: kept uncopied
    return Multiplexer(plain.controls, out, STANDARD)


def without_inverters(mux: Multiplexer) -> Multiplexer:
    """Fold explicit line inverters back into negative polarity digits."""
    if not mux.inverted_lines:
        return mux
    digits = list(mux.polarity)
    for k in mux.inverted_lines:
        digits[k - 1] = "0" if digits[k - 1] == "1" else "1"
    return Multiplexer(mux.controls, mux.palette, mux.form, "".join(digits))


def negative_control_realization(mux: Multiplexer) -> Multiplexer:
    """Trade negative digits for explicit inverters at the line starts.

    Returns an equivalent description whose digits are positive wherever
    they were negative, with those lines flagged inverted; realized
    semantics match the original for every input state.
    """
    if mux.form == STANDARD:
        raise FormMismatch("standard form has no polarity to realize")
    if "0" not in mux.polarity:
        return mux
    digits = []
    flipped = []
    for k, digit in enumerate(mux.polarity, start=1):
        if digit == "0":
            digits.append("1")
            flipped.append(k)
        else:
            digits.append(digit)
    lines = tuple(sorted(set(mux.inverted_lines) ^ set(flipped)))
    return Multiplexer(mux.controls, mux.palette, mux.form, "".join(digits), lines)

