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
digit reads its control line through an inverter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gates, kernels
from .blocksearch import FPQF, KQF, check_polarity, digit_mask
from .errors import FormMismatch, LengthNotPowerOfTwo, SizeLimitExceeded

STANDARD = "standard"

EPS = gates.EPS


@dataclass(frozen=True, eq=False)
class Multiplexer:
    """Immutable multiplexer value.

    targets is a (2^controls, 2, 2) complex array, every entry unitary
    within EPS.  inverted_lines lists 1-based control lines that carry a
    leading inverter (produced by negative_control_realization); only a
    fixed-polarity digit's line can.
    """

    controls: int
    targets: np.ndarray
    form: str = STANDARD
    polarity: str | None = None
    inverted_lines: tuple = field(default=())

    def __post_init__(self):
        if not isinstance(self.controls, int) or self.controls < 1:
            raise ValueError("a multiplexer needs at least one control variable")
        arr = np.ascontiguousarray(np.asarray(self.targets, dtype=complex))
        expected = (1 << self.controls, 2, 2)
        if arr.shape != expected:
            raise ValueError(f"targets must have shape {expected}, got {arr.shape}")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("targets contain non-finite entries")
        residual = arr @ arr.conj().transpose(0, 2, 1) - np.eye(2)
        worst = float(np.abs(residual).max())
        if worst > EPS:
            raise ValueError(f"targets are not unitary (worst deviation {worst:.3e})")
        arr.setflags(write=False)
        object.__setattr__(self, "targets", arr)

        if self.form == STANDARD:
            if self.polarity is not None:
                raise ValueError("standard form carries no polarity")
        elif self.form in (FPQF, KQF):
            if self.polarity is None:
                raise ValueError(f"{self.form} form requires a polarity")
            check_polarity(self.polarity, self.controls, self.form)
        else:
            raise ValueError(f"unknown form {self.form!r}")

        lines = tuple(sorted(set(self.inverted_lines)))
        if lines and self.form == STANDARD:
            raise ValueError("standard form has no polarized lines to invert")
        for k in lines:
            if not 1 <= k <= self.controls:
                raise ValueError(f"inverted line {k} out of range 1..{self.controls}")
            if self.polarity[k - 1] == "2":
                raise ValueError(f"line {k} is mixed polarity and cannot carry an inverter")
        object.__setattr__(self, "inverted_lines", lines)

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


def active_gate_indices(mux: Multiplexer, input_state: int) -> np.ndarray:
    return np.nonzero(activation_mask(mux, input_state))[0]


def semantics(mux: Multiplexer, input_state: int) -> np.ndarray:
    """Operator realized on the target qubit for one input state.

    Ordered product of the active targets, highest index leftmost; the
    identity when nothing fires.
    """
    out = np.eye(2, dtype=complex)
    for i in active_gate_indices(mux, input_state):
        out = mux.targets[i] @ out
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


def butterfly_stage(gate_vector, kernel, bit: int) -> np.ndarray:
    """Apply a 2-gate kernel to every index pair differing at `bit`.

    kernel is a `kernels` code (FORWARD_POS, FORWARD_NEG, INVERSE_POS,
    INVERSE_NEG or IDENTITY), or a callable (a, b) -> (a', b') applied per
    pair.
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
    if callable(kernel):
        out = arr.copy()
        step = 1 << bit
        for base in range(n):
            if base & step:
                continue
            lo, hi = kernel(arr[base], arr[base + step])
            out[base] = lo
            out[base + step] = hi
        return out
    return kernels.gate_stage(arr, kernel, bit)


def transform_stages(
    targets: np.ndarray, polarity: str, direction: str, group=None
) -> np.ndarray:
    """Run the full butterfly cascade over a raw gate vector.

    Forward runs the column for c_1 (most significant bit) first and c_m
    (bit 0) last; inverse runs the same columns with inverse kernels in
    reverse order.  Given the `group.GateGroup` they index, `targets` are
    uint8 element IDs (see `kernels.gate_stage`).
    """
    m = len(polarity)
    if direction == "forward":
        kernel_of, order = kernels.FORWARD, range(m)
    elif direction == "inverse":
        kernel_of, order = kernels.INVERSE, reversed(range(m))
    else:
        raise ValueError(f"unknown direction {direction!r}")
    out = targets.copy()
    for k in order:
        out = kernels.gate_stage(out, kernel_of[polarity[k]], m - 1 - k, group)
    return out


def form_for_polarity(polarity: str) -> str:
    return KQF if "2" in polarity else FPQF


def forward_transform(std: Multiplexer, polarity: str) -> Multiplexer:
    """Convert a standard-form multiplexer to the polarized form.

    The all-mixed polarity returns the same target list: standard form is
    the all-mixed point of the family.
    """
    if std.form != STANDARD:
        raise FormMismatch(f"forward transform needs standard form, got {std.form}")
    form = form_for_polarity(polarity)
    check_polarity(polarity, std.controls, form)
    out = transform_stages(std.targets, polarity, "forward")
    return Multiplexer(std.controls, out, form, polarity)


def inverse_transform(polarized: Multiplexer) -> Multiplexer:
    """Recover the standard-form multiplexer a polarized one came from."""
    if polarized.form == STANDARD:
        raise FormMismatch("inverse transform needs a polarized multiplexer")
    plain = without_inverters(polarized)
    out = transform_stages(plain.targets, plain.polarity, "inverse")
    return Multiplexer(plain.controls, out, STANDARD)


def without_inverters(mux: Multiplexer) -> Multiplexer:
    """Fold explicit line inverters back into negative polarity digits."""
    if not mux.inverted_lines:
        return mux
    digits = list(mux.polarity)
    for k in mux.inverted_lines:
        digits[k - 1] = "0" if digits[k - 1] == "1" else "1"
    return Multiplexer(mux.controls, mux.targets, mux.form, "".join(digits))


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
    return Multiplexer(mux.controls, mux.targets, mux.form, "".join(digits), lines)


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
    for t in range(1 << m):
        state = t ^ flip
        active = active_gate_indices(probe, state)
        tail = np.eye(2, dtype=complex)
        for j in sorted(active):
            if j != t:
                tail = solved[j] @ tail
        solved[t] = std.targets[state] @ gates.inverse(tail)
    return Multiplexer(m, solved, form, polarity)
