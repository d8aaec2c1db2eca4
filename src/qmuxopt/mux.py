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

Every Multiplexer holds its targets as a normal palette (see Palette),
made from whatever its caller passes, so no reader of the targets
branches on where they came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gates, kernels
from .blocksearch import FPQF, KQF, cascade, check_polarity, digit_mask, staged_forward
from .errors import FormMismatch, QmuxError, is_int

STANDARD = "standard"

EPS = gates.EPS


@dataclass(frozen=True, eq=False)
class Palette:
    """A gate vector held as matrices and, per gate, the position of its
    matrix in an unsigned index: gate i is matrices[index[i]].

    A plain (2^m, 2, 2) target array is the palette indexed by arange(2^m).
    A Multiplexer's palette is normal: every matrix is used, no two have
    the same bytes, they lie in byte order (see kernels.byte_keys), and the
    index is in the narrowest unsigned type that holds it.  So a token, a
    cost or an identity decision, which depend only on a matrix's bytes,
    is made once per distinct target.

    A forward transform's palette is staged: `tail` holds the polarity
    digits whose columns have still to run, those of the bottom
    len(tail) index bits, which pair the gates of one chunk of
    2^len(tail) only (see blocksearch.staged_forward).  Its gates are
    matrices[index[i]] only after each chunk's tail columns, so they are
    read through mux.target_chunks, and per_gate refuses to spread values
    over them.  With an empty tail the palette holds the gates themselves.
    """

    matrices: np.ndarray  # (k, 2, 2) complex
    index: np.ndarray  # (2^m,) unsigned ints below k
    tail: str = ""

    def per_gate(self, values: np.ndarray, rows=slice(None)) -> np.ndarray:
        """values, one per palette matrix, for the gates `rows` (a slice or
        an integer array of gate positions): values[index[rows]].  On a
        staged palette this is a fault of the caller: its gates are not
        its matrices until the tail has run."""
        if self.tail:
            raise RuntimeError("a staged palette's gates are read through mux.target_chunks")
        return values[self.index[rows]]


def _normal(matrices: np.ndarray, index: np.ndarray) -> tuple:
    """(matrices, index) of a palette made normal (see Palette),
    both new read-only arrays: the used matrices, those of equal bytes
    merged, in byte order, and the index renumbered to them."""
    used = np.zeros(len(matrices), dtype=bool)
    used[index] = True
    keys, where = kernels.distinct(kernels.byte_keys(matrices[used]))
    renumber = np.empty(len(matrices), dtype=np.min_scalar_type(len(keys) - 1))
    renumber[used] = where
    matrices, index = keys.view(complex).reshape(-1, 2, 2), renumber[index]
    matrices.setflags(write=False)
    index.setflags(write=False)
    return matrices, index


@dataclass(frozen=True, eq=False, init=False)
class Multiplexer:
    """Immutable multiplexer value.

    Multiplexer(controls, targets, form, polarity, inverted_lines) takes
    the targets as a Palette or as a (2^controls, 2, 2) complex array, read
    as the palette whose index is arange(2^controls).  It is the one place
    a palette is made normal (see Palette), always into new arrays, and
    then every matrix must be unitary within EPS.  `palette` is how every
    consumer reads the targets: the unitarity check, group.intern and the
    identity tests run on palette.matrices alone, and palette.per_gate
    spreads their per-matrix results to the gates.  A forward transform's
    output holds a staged palette (see Palette) and only a polarized form
    may: its gates come a chunk at a time from target_chunks, which runs
    each chunk's tail columns and checks the chunk unitary, and the
    writers, the cost report and the unitarity check all read them there.
    Only this module expands a palette into the 2^m complex vector:
    working_targets builds it for `targets`, the inverse transform and the
    semantics (once per call of max_semantic_deviation).

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
        if not isinstance(targets, Palette):
            targets = np.asarray(targets, dtype=complex)
            targets = Palette(targets, np.arange(targets.size // 4, dtype=np.uint64))
        matrices = np.asarray(targets.matrices, dtype=complex)
        index = np.asarray(targets.index)
        if matrices.ndim != 3 or matrices.shape[1:] != (2, 2):
            raise QmuxError(f"target matrices must be (k, 2, 2), got {matrices.shape}")
        if index.ndim != 1 or index.dtype.kind != "u":
            raise QmuxError("a palette index is a vector of unsigned ints")
        expected, shape = (1 << controls, 2, 2), (len(index), 2, 2)
        if shape != expected:
            raise QmuxError(f"targets must have shape {expected}, got {shape}")
        if (top := int(index.max())) >= len(matrices):
            raise QmuxError(f"palette index {top} out of range 0..{len(matrices) - 1}")
        matrices, index = _normal(matrices, index)
        _check_unitary(matrices)
        tail = targets.tail
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
    in place on: the palette's expansion, or a staged palette's chunks of
    target_chunks, in order."""
    palette = mux.palette
    if not palette.tail:
        return palette.per_gate(palette.matrices)
    out = np.empty((mux.num_targets, 2, 2), dtype=complex)
    start = 0
    for chunk in target_chunks(mux):
        out[start : start + len(chunk)] = chunk
        start += len(chunk)
    return out


def target_chunks(mux: Multiplexer):
    """The targets a chunk at a time, as new (n, 2, 2) arrays gathered from
    the palette, so the whole complex vector is never built:
    kernels.CHUNK_ROWS gates at a time, or on a staged palette
    2^len(tail), each chunk's tail columns run in place by
    blocksearch.cascade and the chunk checked unitary within EPS (a
    QmuxError otherwise), so each call runs the tail once more."""
    palette = mux.palette
    size = 1 << len(palette.tail) if palette.tail else kernels.CHUNK_ROWS
    for start in range(0, mux.num_targets, size):
        chunk = palette.matrices[palette.index[start : start + size]]
        if palette.tail:
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
    staged = Palette(*staged_forward(std.palette.matrices, std.palette.index, polarity, form))
    return Multiplexer(std.controls, staged, form, polarity)


def inverse_transform(polarized: Multiplexer) -> Multiplexer:
    """Recover the standard-form multiplexer a polarized one came from."""
    if polarized.form == STANDARD:
        raise FormMismatch("inverse transform needs a polarized multiplexer")
    plain = without_inverters(polarized)
    out = cascade(working_targets(plain), plain.polarity, plain.form, inverse=True)
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

