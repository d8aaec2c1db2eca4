"""Reading and writing the .qmux multiplexer text format and its JSON mirror.

Text format ('#' starts a comment anywhere):

    controls: 2
    form: standard            # or fpqf:<digits> / kqf:<digits>
    targets: I V V X          # 2^controls gate tokens, may wrap lines

JSON mirror uses the same field names:

    {"controls": 2, "form": "fpqf:11", "targets": ["I", "V", "V", "I"]}

Both loaders take one path, in one order: the header (a control count of
at least 1, and a form whose polarity, if any, has one digit of its
family per control; each field named once, and no other key), the token
count, the tokens, the Multiplexer.
So in both formats a bad header or a wrong count is refused before any
token is parsed.  The tokens are numbered a batch of at least
kernels.CHUNK_ROWS at a time (the text loader never splits a line), so
only one batch is ever held as strs; once the count is right each
distinct token is parsed once, and the loader hands Multiplexer a
palette of each distinct token's matrix and the tokens' numbers as its
index, which Multiplexer makes normal (see mux.Palette): tokens of equal
matrices, such as NOT and X, share one matrix, and the index takes one
byte a gate while there are at most 256 of them.  Neither loader builds
the 2^m complex vector.

Files are streamed the same way: both formats are written through jsonout
a batch of tokens at a time, one piece per list of target_tokens, which
renders a palette's distinct matrices once and indexes their tokens a
sub-batch at a time, and a transform's staged palette a chunk of
mux.target_chunks at a time, its tokens a sub-batch of rows at a time,
so no writer builds the complex vector or holds the file's text, and
every write is bounded in characters (see jsonout.write).  dump_qmux and
dump_qmux_json return the bytes save_qmux writes.
"""

from __future__ import annotations

import io
import itertools
import json
import re
import sys

import numpy as np

from . import gates, jsonout, kernels
from .blocksearch import check_polarity
from .errors import NonUnitary, ParseError, QmuxError, UnknownGate, is_int, parse_count
from .mux import FPQF, KQF, STANDARD, Multiplexer, Palette, target_chunks, without_inverters

_TOKEN_RE = re.compile(r"\S+")

# Gate tokens per targets line in dump_qmux.
TOKENS_PER_LINE = 8

# A list holds at most sys.maxsize < 2^63 items, so no token list matches
# this many controls or more.  Such a count is refused before 1 << controls
# is built: an integer of `controls` bits (1.25 GB near 10^10), whose
# decimal text Python refuses past 4,300 digits.
UNMATCHABLE_CONTROLS = sys.maxsize.bit_length()


def _header_key(seen: set, key: str, source, line=None) -> str:
    """The key, once it is known to name a field not named before in the
    same header; both loaders refuse the others in these words."""
    if key not in ("controls", "form", "targets"):
        raise ParseError(f"unknown field {key!r}", source, line)
    if key in seen:
        raise ParseError(f"repeated field {key!r}", source, line)
    seen.add(key)
    return key


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
    """The palette of a stream of gate tokens, a batch at a time: one
    matrix per distinct token and the tokens' numbers as its index.

    add only numbers the tokens, in first-occurrence order, so a loader can
    refuse a wrong count before any token is parsed.  Only the batch being
    numbered is held as strs: earlier batches are kept as their number
    vectors alone.
    """

    def __init__(self):
        self.numbers = {}  # token -> its number, in first-occurrence order
        self.parts = [np.empty(0, np.uint8)]
        self.count = 0

    def add(self, tokens: list) -> None:
        """Number a batch of tokens."""
        try:
            part = np.fromiter(map(self.numbers.__getitem__, tokens), np.intp, len(tokens))
        except KeyError:  # new tokens: number them, then the batch
            for token in dict.fromkeys(tokens):  # first-occurrence order
                self.numbers.setdefault(token, len(self.numbers))
            part = np.fromiter(map(self.numbers.__getitem__, tokens), np.intp, len(tokens))
        self.parts.append(part.astype(np.min_scalar_type(max(len(self.numbers) - 1, 0))))
        self.count += len(tokens)

    def palette(self, refuse) -> Palette:
        """The palette of every token added.

        Each distinct token is parsed once, in number order; tokens whose
        matrices are equal (NOT and X) merge in Multiplexer.  The
        lowest-numbered token that does not parse is the first bad token in
        stream order: refuse(i, exc), i the stream position of its first
        occurrence, is raised."""
        matrices = []
        for number, token in enumerate(self.numbers):
            try:
                matrices.append(gates.parse_gate(token))
            except (UnknownGate, NonUnitary) as exc:
                raise refuse(int(np.argmax(np.concatenate(self.parts) == number)), exc)
        return Palette(np.stack(matrices), np.concatenate(self.parts))


def _check_count(controls: int, count: int, source, controls_line=None, last_line=None):
    """Refuse a token count other than 2^controls, at the last line that
    held a token; a control count that no token list matches (see
    UNMATCHABLE_CONTROLS) is refused at its own line, before 1 << controls
    is built.  JSON has no lines."""
    if controls >= UNMATCHABLE_CONTROLS:
        raise ParseError(
            f"{controls} controls need 2^{controls} gate tokens, got {count}", source, controls_line
        )
    if count != 1 << controls:
        raise ParseError(f"expected {1 << controls} gate tokens, got {count}", source, last_line)


def _check_form(controls: int, form: tuple, source, line=None):
    """Refuse a polarity whose length is not the control count or whose
    digits are not its family's, at the form's line (JSON has no lines),
    before any token is parsed."""
    kind, digits = form
    if digits is not None:
        try:
            check_polarity(digits, controls, kind)
        except QmuxError as exc:
            raise ParseError(str(exc), source, line)


def _multiplexer(builder, controls: int, form: tuple, source, refuse) -> Multiplexer:
    """The Multiplexer of a loader's checked header (controls, and form and
    polarity) and token count, and its numbered tokens, parsed now (see
    _PaletteBuilder.palette, which raises refuse(i, exc) for a bad token);
    what Multiplexer refuses becomes a ParseError naming the source."""
    palette = builder.palette(refuse)
    try:
        return Multiplexer(controls, palette, *form)
    except QmuxError as exc:
        raise ParseError(str(exc), source)


def _token_places(text: str, targets_line: int):
    """(line, column) of each target token in order, rescanning the text
    from its `targets:` line; only a bad token's message needs them."""
    lines = itertools.islice(text.splitlines(), targets_line - 1, None)
    for lineno, raw in enumerate(lines, start=targets_line):
        line = raw.partition("#")[0]
        offset = line.index(":") + 1 if lineno == targets_line else 0
        for match in _TOKEN_RE.finditer(line, offset):
            yield lineno, match.start() + 1


def parse_qmux(text: str, source: str = "<qmux>") -> Multiplexer:
    """Parse .qmux text (or its JSON mirror, detected by a leading '{').

    The header lines are checked as they come; the targets are numbered a
    batch of lines at a time, at least kernels.CHUNK_ROWS tokens unless the
    lines run out, by _PaletteBuilder, and parsed only once their count is
    right (see _multiplexer).  A bad token's line and column are worked out
    then, by a rescan of the targets.
    """
    if text.lstrip().startswith("{"):
        try:  # every object's keys are checked as json.loads reads them
            data = json.loads(text, object_pairs_hook=lambda pairs: _json_header(pairs, source))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", source, exc.lineno, exc.colno)
        except QmuxError:  # the header hook's ParseError passes unchanged
            raise
        except ValueError as exc:  # an int past Python's digit limit, such as a huge count
            raise ParseError(f"bad JSON: {exc}", source)
        return from_json_dict(data, source)

    controls = controls_line = form = form_line = targets_line = last_line = None
    seen = set()
    builder = _PaletteBuilder()
    batch = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        if targets_line is None:
            if not line.strip():
                continue
            key, sep, value = line.partition(":")
            if not sep:
                raise ParseError(f"expected 'key: value', got {line.strip()!r}", source, lineno)
            key = _header_key(seen, key.strip().lower(), source, lineno)
            if key == "controls":
                digits = value.strip()
                controls = parse_count(digits)
                if controls is None or controls < 1:
                    raise ParseError(f"bad control count {digits!r}", source, lineno)
                controls_line = lineno
            elif key == "form":
                form, form_line = _parse_form(value, source, lineno), lineno
            else:
                targets_line, line = lineno, value  # its tokens follow the key
            if targets_line is None:
                continue
        tokens = line.split()
        if tokens:
            batch += tokens
            last_line = lineno
            if len(batch) >= kernels.CHUNK_ROWS:
                builder.add(batch)
                batch = []
    builder.add(batch)

    if controls is None:
        raise ParseError("missing 'controls:' line", source)
    if form is None:
        raise ParseError("missing 'form:' line", source)
    if targets_line is None:
        raise ParseError("missing 'targets:' line", source)
    _check_form(controls, form, source, form_line)
    _check_count(controls, builder.count, source, controls_line, last_line)

    def refuse(i, exc):
        place = next(itertools.islice(_token_places(text, targets_line), i, None))
        return ParseError(str(exc), source, *place)

    return _multiplexer(builder, controls, form, source, refuse)


def _json_header(pairs: list, source) -> dict:
    """A JSON object of the mirror as a dict, its keys checked as the text
    loader checks its header's."""
    seen = set()
    return {_header_key(seen, key, source): value for key, value in pairs}


def from_json_dict(data: dict, source: str = "<qmux-json>") -> Multiplexer:
    try:
        controls = data["controls"]
        form_text = str(data["form"])
        tokens = data["targets"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad JSON multiplexer: {exc}", source)
    # Exact types: a string is not a token list either.
    if not is_int(controls):
        raise ParseError(f"bad JSON multiplexer: controls {controls!r} is not an int", source)
    if controls < 1:
        raise ParseError(f"bad control count {str(controls)!r}", source)
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ParseError("bad JSON multiplexer: targets is not a list of strings", source)
    form = _parse_form(form_text, source, None)
    _check_form(controls, form, source)
    _check_count(controls, len(tokens), source)
    builder = _PaletteBuilder()
    for start in range(0, len(tokens), kernels.CHUNK_ROWS):
        builder.add(tokens[start : start + kernels.CHUNK_ROWS])

    def refuse(i, exc):
        return ParseError(f"target {i}: {exc}", source)

    return _multiplexer(builder, controls, form, source, refuse)


def load_qmux(path) -> Multiplexer:
    return parse_qmux(jsonout.read_file(path), source=str(path))


def target_tokens(m: Multiplexer, chunks=None):
    """The targets' gate tokens, one-shot, as lists of at most
    gates.sub_batch_rows() tokens, the unit the writers take, each list
    made only when the previous one is used up, so nothing is rendered by
    this call.  A palette's matrices are rendered once (see
    gates.render_gates), with the first list, and each list indexes their
    tokens; a staged palette (a transform's output) is rendered a chunk
    of mux.target_chunks at a time, or of
    `chunks`, that stream as a caller already reads it (see
    cost.streamed_cost), and each chunk's lists are sub-batches of
    gates.render_gates, made after its distinct floats are repr'd once.
    A token's text depends only on its matrix, so both give the same
    tokens."""
    if chunks is None and not m.palette.tail:
        return _palette_tokens(m.palette)
    chunks = target_chunks(m) if chunks is None else chunks
    return (batch for chunk in chunks for batch in gates.render_gates(chunk))


def _palette_tokens(palette: Palette):
    """Lists of the palette's gate tokens, gates.sub_batch_rows() gates each."""
    tokens = np.array([t for batch in gates.render_gates(palette.matrices) for t in batch], object)
    rows = gates.sub_batch_rows()
    for start in range(0, len(palette.index), rows):
        yield palette.per_gate(tokens, slice(start, start + rows)).tolist()


def _write_qmux(fh, m: Multiplexer, as_json: bool) -> None:
    """Write m to fh as .qmux text, or as its JSON mirror (jsonout.write_json
    of its fields and a newline), one piece per list of target_tokens.  The
    text form's separators cycle across the lists, each list pulling only
    as many as it has tokens.  The format has no inverters, so line
    inverters are folded back into negative digits first (the same realized
    semantics)."""
    m = without_inverters(m)
    tokens = target_tokens(m)
    if as_json:
        jsonout.write_json(fh, {"controls": m.controls, "form": m.describe(), "targets": tokens})
        jsonout.write(fh, ["\n"])
    else:
        head = f"controls: {m.controls}\nform: {m.describe()}\ntargets:"
        seps = itertools.cycle(["\n  "] + [" "] * (TOKENS_PER_LINE - 1))
        pieces = ("".join([sep + token for token, sep in zip(batch, seps)]) for batch in tokens)
        jsonout.write(fh, itertools.chain([head], pieces, ["\n"]))


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
    with jsonout.open_file(path, "w") as fh:
        _write_qmux(fh, m, str(path).endswith(".json"))
