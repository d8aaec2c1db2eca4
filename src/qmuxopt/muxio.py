"""Reading and writing the .qmux multiplexer text format and its JSON mirror.

Text format ('#' starts a comment anywhere):

    controls: 2
    form: standard            # or fpqf:<digits> / kqf:<digits>
    targets: I V V X          # 2^controls gate tokens, may wrap lines

JSON mirror uses the same field names:

    {"controls": 2, "form": "fpqf:11", "targets": ["I", "V", "V", "I"]}
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import sys

import numpy as np

from . import gates, jsonout
from .errors import NonUnitary, ParseError, QmuxError, UnknownGate
from .mux import FPQF, KQF, STANDARD, Multiplexer, without_inverters

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


def _gate_matrices(tokens: list, fail) -> np.ndarray:
    """(n, 2, 2) matrices of the gate tokens, parsing each distinct token once.

    For the first token that does not parse, calls fail(index, exc), which
    raises; a token's first occurrence is where it fails.
    """
    rows = dict.fromkeys(tokens)  # distinct tokens in first-occurrence order
    parsed = []
    for token in rows:
        try:
            parsed.append(gates.parse_gate(token))
        except (UnknownGate, NonUnitary) as exc:
            fail(tokens.index(token), exc)
        rows[token] = len(parsed) - 1
    index = np.fromiter(map(rows.__getitem__, tokens), dtype=np.intp, count=len(tokens))
    return np.array(parsed, dtype=complex).reshape(-1, 2, 2)[index]


def _check_control_count(controls: int, tokens: list, source, line) -> None:
    """Refuse a control count that no token list can match (see
    UNMATCHABLE_CONTROLS) without building 1 << controls."""
    if controls >= UNMATCHABLE_CONTROLS:
        raise ParseError(
            f"{controls} controls need 2^{controls} gate tokens, got {len(tokens)}",
            source,
            line,
        )


def _token_place(spans: list, i: int) -> tuple:
    """(line, column) of token i, from the spans parse_qmux records: the
    token is on the last line whose first token index is at most i."""
    lineno, line, offset, first = next(s for s in reversed(spans) if s[3] <= i)
    match = next(itertools.islice(_TOKEN_RE.finditer(line, offset), i - first, None))
    return lineno, match.start() + 1


def parse_qmux(text: str, source: str = "<qmux>") -> Multiplexer:
    """Parse .qmux text (or its JSON mirror, detected by a leading '{')."""
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", source, exc.lineno, exc.colno)
        return from_json_dict(data, source)

    controls = None
    form = None
    polarity = None
    tokens = []
    # One (line number, line, offset, index of its first token) per line of
    # targets; a token's line and column are worked out only for an error.
    spans = []
    in_targets = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        comment = raw.find("#")
        line = raw[:comment] if comment >= 0 else raw
        if not line.strip():
            continue
        if in_targets:
            spans.append((lineno, line, 0, len(tokens)))
            tokens += line.split()
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
            in_targets = True
            offset = line.index(":") + 1
            spans.append((lineno, line, offset, len(tokens)))
            tokens += value.split()
        else:
            raise ParseError(f"unknown field {key!r}", source, lineno)

    if controls is None:
        raise ParseError("missing 'controls:' line", source)
    if form is None:
        raise ParseError("missing 'form:' line", source)
    if not in_targets:
        raise ParseError("missing 'targets:' line", source)
    _check_control_count(controls, tokens, source, controls_line)
    expected = 1 << controls
    if len(tokens) != expected:
        where = _token_place(spans, len(tokens) - 1)[0] if tokens else None
        raise ParseError(
            f"expected {expected} gate tokens, got {len(tokens)}", source, where
        )

    def fail(i, exc):
        raise ParseError(str(exc), source, *_token_place(spans, i))

    matrices = _gate_matrices(tokens, fail)
    try:
        return Multiplexer(controls, matrices, form, polarity)
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
    _check_control_count(controls, tokens, source, None)

    def fail(i, exc):
        raise ParseError(f"target {i}: {exc}", source)

    matrices = _gate_matrices(tokens, fail)
    try:
        return Multiplexer(controls, matrices, form, polarity)
    except (ValueError, QmuxError) as exc:
        raise ParseError(str(exc), source)


def load_qmux(path) -> Multiplexer:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc), str(path))
    return parse_qmux(text, source=str(path))


def target_tokens(m: Multiplexer) -> jsonout.Chunked:
    """The targets' gate tokens, rendered a chunk at a time as they are
    consumed (see gates.render_gates); nothing is rendered by this call."""
    return jsonout.Chunked(functools.partial(gates.render_gates, m.targets))


def dump_qmux(m: Multiplexer) -> str:
    """Render as .qmux text; deterministic, so equal inputs give equal bytes.

    The format has no inverters, so line inverters are folded back into
    negative digits first (the same realized semantics)."""
    m = without_inverters(m)
    lines = [f"controls: {m.controls}", f"form: {m.describe()}", "targets:"]
    tokens = iter(target_tokens(m))
    while line := list(itertools.islice(tokens, TOKENS_PER_LINE)):
        lines.append("  " + " ".join(line))
    return "\n".join(lines) + "\n"


def to_json_dict(m: Multiplexer) -> dict:
    """JSON mirror of dump_qmux, inverters folded back in the same way."""
    m = without_inverters(m)
    return {
        "controls": m.controls,
        "form": m.describe(),
        "targets": list(target_tokens(m)),
    }


def dump_qmux_json(m: Multiplexer) -> str:
    return json.dumps(to_json_dict(m), indent=2) + "\n"


def save_qmux(m: Multiplexer, path) -> None:
    path = str(path)
    text = dump_qmux_json(m) if path.endswith(".json") else dump_qmux(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
