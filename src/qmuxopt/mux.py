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
from .blocksearch import FPQF, KQF, cascade, check_polarity, digit_mask, staged_forward
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
    build palettes of distinct matrices.

    A forward transform's palette is staged: `tail` holds the polarity
    digits whose columns have still to run, those of the bottom
    len(tail) index bits, which pair the gates of one chunk of
    2^len(tail) only (see blocksearch.staged_forward).  Its gates are
    matrices[index[i]] only after each chunk's tail columns, so they are
    read through mux.target_chunks, and per_gate refuses to spread values
    over them.  With an empty tail the palette holds the gates themselves.
    """

    matrices: np.ndarray  # (k, 2, 2) complex
    index: np.ndarray | None = None  # (2^m,) unsigned ints below k
    tail: str = ""

    def per_gate(self, values: np.ndarray, rows=slice(None)) -> np.ndarray:
        """values, one per palette matrix, for the gates `rows` (a slice or
        an integer array of gate positions): values[index[rows]].  On a
        staged palette this is a fault of the caller: its gates are not
        its matrices until the tail has run."""
        if self.tail:
            raise RuntimeError("a staged palette's gates are read through mux.target_chunks")
        return self._spread(values, rows)

    def _spread(self, values: np.ndarray, rows) -> np.ndarray:
        """values[index[rows]], staged or not."""
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
    gates.  A forward transform's output holds a staged palette (see
    Palette) and only a polarized form may: its gates come a chunk at a
    time from target_chunks, which runs each chunk's tail columns and
    checks the chunk unitary, and the writers, the cost report and the
    unitarity check all read them there.  Only this module expands a
    palette into the 2^m complex vector: working_targets builds it for
    `targets`, the inverse transform and the semantics (once per call of
    max_semantic_deviation).

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
        _check_unitary(matrices)
        tail = palette.tail
        if len(tail) > controls or set(tail) - set("012"):
            raise QmuxError(f"a staged tail is at most {controls} digits of '012', got {tail!r}")

        if form == STANDARD:
            if polarity is not None:
                raise QmuxError("standard form carries no polarity")
            if tail:
                raise QmuxError("standard form holds its targets, not a staged palette")
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
            ("palette", Palette(matrices, index, tail)),
            ("form", form),
            ("polarity", polarity),
            ("inverted_lines", lines),
        ):
            object.__setattr__(self, name, value)

    @property
    def targets(self) -> np.ndarray:
        """The (2^controls, 2, 2) complex targets, read-only: a palette is
        expanded into a new array on every read (see working_targets)."""
        out = working_targets(self)
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


def _check_unitary(stack: np.ndarray) -> None:
    """Refuse a (n, 2, 2) stack of targets with a non-finite entry or a
    matrix more than EPS from unitary."""
    worst = gates.unitarity_residual(stack)
    if math.isnan(worst):
        raise QmuxError("targets contain non-finite entries")
    if worst > EPS:
        raise QmuxError(f"targets are not unitary (worst deviation {worst:.3e})")


def working_targets(mux: Multiplexer) -> np.ndarray:
    """A new writable (2^m, 2, 2) array of the targets, for a cascade to run
    in place on: the palette's expansion, or a copy of a plain array; a
    staged palette's chunks of target_chunks, in order."""
    palette = mux.palette
    if not palette.tail:
        return np.require(palette.per_gate(palette.matrices), requirements="CW")
    out = np.empty((mux.num_targets, 2, 2), dtype=complex)
    start = 0
    for chunk in target_chunks(mux):
        out[start : start + len(chunk)] = chunk
        start += len(chunk)
    return out


def target_chunks(mux: Multiplexer):
    """The targets a chunk at a time, as (n, 2, 2) arrays, so the whole
    complex vector is never built: kernels.CHUNK_ROWS gates at a time,
    views of a plain array or gathers from the palette; on a staged
    palette 2^len(tail) gates at a time, each chunk gathered, its tail
    columns run in place by blocksearch.cascade and the chunk checked
    unitary within EPS (a QmuxError otherwise), so each call runs the
    tail once more."""
    palette = mux.palette
    if not palette.tail:
        for start in range(0, mux.num_targets, kernels.CHUNK_ROWS):
            yield palette.per_gate(palette.matrices, slice(start, start + kernels.CHUNK_ROWS))
        return
    size = 1 << len(palette.tail)
    for start in range(0, mux.num_targets, size):
        chunk = np.require(palette._spread(palette.matrices, slice(start, start + size)),
                           requirements="CW")
        cascade(chunk, palette.tail, KQF)
        _check_unitary(chunk)
        yield chunk


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
        raise QmuxError(f"input state {input_state} out of range for {m} controls")
    state = input_state ^ sum(1 << (m - k) for k in mux.inverted_lines)
    allowed = state ^ digit_mask(mux.digits, "0")
    required = state & digit_mask(mux.digits, "2")
    idx = np.arange(1 << m)
    return ((idx & ~allowed) == 0) & ((idx & required) == required)


def semantics(mux: Multiplexer, input_state: int) -> np.ndarray:
    """Operator realized on the target qubit for one input state.

    Ordered product of the active targets, highest index leftmost; the
    identity when nothing fires.  A staged palette's targets are built
    whole for the call (see working_targets).
    """
    active = np.flatnonzero(activation_mask(mux, input_state))
    if mux.palette.tail:
        return _realized(working_targets(mux)[active])
    return _realized(mux.palette.per_gate(mux.palette.matrices, active))


def _realized(active: np.ndarray) -> np.ndarray:
    """The product of a stack of active targets, the last leftmost."""
    out = np.eye(2, dtype=complex)
    for target in active:
        out = kernels.times(target, out)
    return out


def max_semantic_deviation(a: Multiplexer, b: Multiplexer) -> float:
    """Largest entrywise gap between the two realized operators, over all
    inputs; each multiplexer's targets are built once for the call."""
    if a.controls != b.controls:
        raise FormMismatch("multiplexers have different control counts")
    targets = working_targets(a), working_targets(b)
    worst = 0.0
    for state in range(1 << a.controls):
        ops = [_realized(t[activation_mask(m, state)]) for t, m in zip(targets, (a, b))]
        worst = max(worst, float(np.abs(ops[0] - ops[1]).max()))
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
    """Convert a standard-form multiplexer to the polarized form, staged:
    blocksearch.staged_forward runs the columns above the chunk on the
    palette, and the result holds the palette the gates use, with the
    polarity's tail digits (see Palette), so no 2^m complex vector is
    built.  Each chunk's tail runs where target_chunks reads it.

    The all-mixed polarity returns the same target list: standard form is
    the all-mixed point of the family.
    """
    if std.form != STANDARD:
        raise FormMismatch(f"forward transform needs standard form, got {std.form}")
    check_polarity(polarity, std.controls, KQF)  # all of '012', before a form is picked
    form = form_for_polarity(polarity)
    matrices, index, tail = staged_forward(
        std.palette.matrices, std.palette.index, polarity, form
    )
    if matrices is not std.palette.matrices:
        staged = used_palette(matrices, index)
        matrices, index = staged.matrices, staged.index
        matrices.setflags(write=False)  # handed over: kept uncopied
    return Multiplexer(std.controls, Palette(matrices, index, tail), form, polarity)


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

