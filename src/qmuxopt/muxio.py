"""Reading and writing the .qmux multiplexer text format and its JSON mirror.

Text format ('#' starts a comment anywhere):

    controls: 2
    form: standard            # or fpqf:<digits> / kqf:<digits>
    targets: I V V X          # 2^controls gate tokens, may wrap lines

JSON mirror uses the same field names:

    {"controls": 2, "form": "fpqf:11", "targets": ["I", "V", "V", "I"]}

Both loaders return the multiplexer as a palette: the distinct matrices
of its tokens, each token parsed once, and one index entry per gate (one
byte while there are at most 256 of them).  Both loaders fill the index
a batch of at least kernels.CHUNK_ROWS tokens at a time (the text loader
never splits a line), so only one batch of tokens is ever held as strs,
and neither loader builds the 2^m complex vector.

Files are streamed the same way: both formats are written through jsonout
a token at a time, from the targets' tokens rendered a chunk of
mux.target_chunks at a time, so no writer builds the complex vector or
holds the file's text.  dump_qmux and dump_qmux_json return the bytes
save_qmux writes.
"""

from __future__ import annotations

import io
import itertools
import json
import re
import sys

import numpy as np

from . import gates, jsonout, kernels
from .errors import NonUnitary, ParseError, QmuxError, UnknownGate
from .mux import FPQF, KQF, STANDARD, Multiplexer, Palette, target_chunks, without_inverters

_TOKEN_RE = re.compile(r"\S+")

# Gate tokens per targets line in dump_qmux.
TOKENS_PER_LINE = 8

# A list holds at most sys.maxsize < 2^63 items, so no token list matches
# this many controls or more.  Such a count is refused before 1 << controls
# is built: an integer of `controls` bits (1.25 GB near 10^10), whose
# decimal text Python refuses past 4,300 digits.
UNMATCHABLE_CONTROLS = sys.maxsize.bit_length()


def _parse_form(text: str, source, line):
    value = text.strip().lower()
    if value == STANDARD:
        return STANDARD, None
    kind, sep, digits = value.partition(":")
    if sep and kind in (FPQF, KQF) and digits:
        return kind, digits
    raise ParseError(
        f"bad form {text.strip()!r} (want standard, fpqf:<digits> or kqf:<digits>)",
        source,
        line,
    )


class _PaletteBuilder:
    """The palette and index of a stream of gate tokens, a batch at a time.

    Each distinct token is parsed once, and tokens whose matrices are equal
    (NOT and X) share one palette matrix.  Only the batch being indexed is
    held as strs: earlier batches are kept as their index vectors alone.
    """

    def __init__(self):
        self.positions = {}  # token -> palette position
        self.by_bytes = {}  # matrix bytes -> palette position
        self.matrices = []
        self.parts = [np.empty(0, np.uint8)]
        self.count = 0
        self.error = None  # (token number, exception) of the first bad token

    def add(self, tokens: list) -> None:
        """Index a batch of tokens."""
        try:
            part = np.fromiter(map(self.positions.__getitem__, tokens), np.intp, len(tokens))
        except KeyError:  # new tokens: parse each once, then index the batch
            for token in dict.fromkeys(tokens):  # first-occurrence order
                if token not in self.positions:
                    self.positions[token] = self._position(token, tokens)
            part = np.fromiter(map(self.positions.__getitem__, tokens), np.intp, len(tokens))
        self.parts.append(part.astype(np.min_scalar_type(max(len(self.matrices) - 1, 0))))
        self.count += len(tokens)

    def _position(self, token: str, batch: list) -> int:
        """Palette position of a new token's matrix, added if new; a token
        that does not parse is recorded if it is the first, and gets 0."""
        try:
            matrix = gates.parse_gate(token)
        except (UnknownGate, NonUnitary) as exc:
            if self.error is None:
                self.error = (self.count + batch.index(token), exc)
            return 0
        position = self.by_bytes.setdefault(matrix.tobytes(), len(self.matrices))
        if position == len(self.matrices):
            self.matrices.append(matrix)
        return position

    def palette(self) -> Palette:
        """The palette of every token added, its index handed over read-only."""
        index = np.concatenate(self.parts)
        index.setflags(write=False)
        return Palette(np.array(self.matrices, dtype=complex).reshape(-1, 2, 2), index)


def _check_control_count(controls: int, count: int, source, line) -> None:
    """Refuse a control count that no token list can match (see
    UNMATCHABLE_CONTROLS) without building 1 << controls."""
    if controls >= UNMATCHABLE_CONTROLS:
        raise ParseError(
            f"{controls} controls need 2^{controls} gate tokens, got {count}",
            source,
            line,
        )


def _token_places(text: str, targets_line: int):
    """(line, column) of each target token in order, rescanning the text
    from its `targets:` line; only an error message needs them."""
    lines = itertools.islice(text.splitlines(), targets_line - 1, None)
    for lineno, raw in enumerate(lines, start=targets_line):
        line = raw.partition("#")[0]
        offset = line.index(":") + 1 if lineno == targets_line else 0
        for match in _TOKEN_RE.finditer(line, offset):
            yield lineno, match.start() + 1


def parse_qmux(text: str, source: str = "<qmux>") -> Multiplexer:
    """Parse .qmux text (or its JSON mirror, detected by a leading '{').

    The targets are read a batch of lines at a time, at least
    kernels.CHUNK_ROWS tokens unless the lines run out, into the palette
    and index of _PaletteBuilder.  A bad token is reported only after the
    token count, which takes precedence, has been checked; the line and
    column of an error are worked out then, by a rescan of the targets.
    """
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", source, exc.lineno, exc.colno)
        return from_json_dict(data, source)

    controls = None
    form = None
    polarity = None
    targets_line = None
    builder = _PaletteBuilder()
    batch = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        comment = raw.find("#")
        line = raw[:comment] if comment >= 0 else raw
        if targets_line is not None:
            batch += line.split()
            if len(batch) >= kernels.CHUNK_ROWS:
                builder.add(batch)
                batch = []
            continue
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'key: value', got {line.strip()!r}", source, lineno)
        key = key.strip().lower()
        if key == "controls":
            try:
                controls = int(value.strip())
            except ValueError:
                controls = 0
            if controls < 1:
                raise ParseError(f"bad control count {value.strip()!r}", source, lineno)
            controls_line = lineno
        elif key == "form":
            form, polarity = _parse_form(value, source, lineno)
        elif key == "targets":
            targets_line = lineno
            batch = value.split()
        else:
            raise ParseError(f"unknown field {key!r}", source, lineno)
    builder.add(batch)

    if controls is None:
        raise ParseError("missing 'controls:' line", source)
    if form is None:
        raise ParseError("missing 'form:' line", source)
    if targets_line is None:
        raise ParseError("missing 'targets:' line", source)
    _check_control_count(controls, builder.count, source, controls_line)
    expected = 1 << controls
    if builder.count != expected:
        last_line = max((n for n, _ in _token_places(text, targets_line)), default=None)
        raise ParseError(
            f"expected {expected} gate tokens, got {builder.count}", source, last_line
        )
    if builder.error is not None:
        i, exc = builder.error
        place = next(itertools.islice(_token_places(text, targets_line), i, None))
        raise ParseError(str(exc), source, *place)
    try:
        return Multiplexer(controls, builder.palette(), form, polarity)
    except (ValueError, QmuxError) as exc:
        raise ParseError(str(exc), source)


def from_json_dict(data: dict, source: str = "<qmux-json>") -> Multiplexer:
    try:
        controls = data["controls"]
        form_text = str(data["form"])
        tokens = data["targets"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad JSON multiplexer: {exc}", source)
    # Exact types: bool is an int subclass, and a string is not a token list.
    if isinstance(controls, bool) or not isinstance(controls, int):
        raise ParseError(f"bad JSON multiplexer: controls {controls!r} is not an int", source)
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ParseError("bad JSON multiplexer: targets is not a list of strings", source)
    form, polarity = _parse_form(form_text, source, None)
    _check_control_count(controls, len(tokens), source, None)
    # The count takes precedence over the tokens, as in the text loader, so
    # a wrong count is refused before any token is parsed.
    if controls >= 1 and len(tokens) != 1 << controls:
        raise ParseError(f"expected {1 << controls} gate tokens, got {len(tokens)}", source)
    builder = _PaletteBuilder()
    for start in range(0, len(tokens), kernels.CHUNK_ROWS):
        builder.add(tokens[start : start + kernels.CHUNK_ROWS])
    if builder.error is not None:
        i, exc = builder.error
        raise ParseError(f"target {i}: {exc}", source)
    try:
        return Multiplexer(controls, builder.palette(), form, polarity)
    except (ValueError, QmuxError) as exc:
        raise ParseError(str(exc), source)


def load_qmux(path) -> Multiplexer:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc), str(path))
    return parse_qmux(text, source=str(path))


def target_tokens(m: Multiplexer):
    """The targets' gate tokens, one-shot: each chunk of mux.target_chunks
    is rendered (see gates.render_gates) only when its first token is
    consumed, so nothing is rendered by this call.  A chunk's tokens are
    dropped before the next chunk is rendered."""
    return itertools.chain.from_iterable(map(gates.render_gates, target_chunks(m)))


def _write_qmux(fh, m: Multiplexer, as_json: bool) -> None:
    """Write m to fh as .qmux text, or as its JSON mirror (jsonout.write_json
    of its fields and a newline), a token at a time.  The format has no
    inverters, so line inverters are folded back into negative digits first
    (the same realized semantics)."""
    m = without_inverters(m)
    tokens = target_tokens(m)
    if as_json:
        jsonout.write_json(fh, {"controls": m.controls, "form": m.describe(), "targets": tokens})
        jsonout.write(fh, ["\n"])
    else:
        head = f"controls: {m.controls}\nform: {m.describe()}\ntargets:"
        seps = itertools.cycle(["\n  "] + [" "] * (TOKENS_PER_LINE - 1))
        jsonout.write(fh, itertools.chain([head], map(str.__add__, seps, tokens), ["\n"]))


def dump_qmux(m: Multiplexer) -> str:
    """Render as .qmux text; deterministic, so equal inputs give equal bytes."""
    buffer = io.StringIO()
    _write_qmux(buffer, m, as_json=False)
    return buffer.getvalue()


def dump_qmux_json(m: Multiplexer) -> str:
    """Render as the JSON mirror of dump_qmux."""
    buffer = io.StringIO()
    _write_qmux(buffer, m, as_json=True)
    return buffer.getvalue()


def save_qmux(m: Multiplexer, path) -> None:
    """Write m to path, as its JSON mirror if the path ends in .json."""
    path = str(path)
    with open(path, "w", encoding="utf-8") as fh:
        _write_qmux(fh, m, path.endswith(".json"))
