"""Reading and writing the .qmux multiplexer text format and its JSON mirror.

Text format ('#' starts a comment anywhere):

    controls: 2
    form: standard            # or fpqf:<digits> / kqf:<digits>
    targets: I V V X          # 2^controls gate tokens, may wrap lines

JSON mirror uses the same field names:

    {"controls": 2, "form": "fpqf:11", "targets": ["I", "V", "V", "I"]}
"""

from __future__ import annotations

import json
import re

import numpy as np

from . import gates
from .errors import NonUnitary, ParseError, QmuxError, UnknownGate
from .mux import FPQF, KQF, STANDARD, Multiplexer

_TOKEN_RE = re.compile(r"\S+")


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
    tokens = []  # (token, line, column)
    in_targets = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        comment = raw.find("#")
        line = raw[:comment] if comment >= 0 else raw
        if not line.strip():
            continue
        if in_targets:
            for match in _TOKEN_RE.finditer(line):
                tokens.append((match.group(), lineno, match.start() + 1))
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
        elif key == "form":
            form, polarity = _parse_form(value, source, lineno)
        elif key == "targets":
            in_targets = True
            offset = line.index(":") + 1
            for match in _TOKEN_RE.finditer(line[offset:]):
                tokens.append((match.group(), lineno, offset + match.start() + 1))
        else:
            raise ParseError(f"unknown field {key!r}", source, lineno)

    if controls is None:
        raise ParseError("missing 'controls:' line", source)
    if form is None:
        raise ParseError("missing 'form:' line", source)
    if not in_targets:
        raise ParseError("missing 'targets:' line", source)
    expected = 1 << controls
    if len(tokens) != expected:
        where = tokens[-1][1] if tokens else None
        raise ParseError(
            f"expected {expected} gate tokens, got {len(tokens)}", source, where
        )

    def fail(i, exc):
        raise ParseError(str(exc), source, *tokens[i][1:])

    matrices = _gate_matrices([token for token, _, _ in tokens], fail)
    try:
        return Multiplexer(controls, matrices, form, polarity)
    except (ValueError, QmuxError) as exc:
        raise ParseError(str(exc), source)


def from_json_dict(data: dict, source: str = "<qmux-json>") -> Multiplexer:
    try:
        controls = int(data["controls"])
        form_text = str(data["form"])
        raw_targets = list(data["targets"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad JSON multiplexer: {exc}", source)
    form, polarity = _parse_form(form_text, source, None)

    def fail(i, exc):
        raise ParseError(f"target {i}: {exc}", source)

    matrices = _gate_matrices([str(token) for token in raw_targets], fail)
    try:
        return Multiplexer(controls, matrices, form, polarity)
    except (ValueError, QmuxError) as exc:
        raise ParseError(str(exc), source)


def load_qmux(path) -> Multiplexer:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_qmux(fh.read(), source=str(path))


def target_tokens(m: Multiplexer) -> list:
    return gates.render_gates(m.targets)


def dump_qmux(m: Multiplexer, tokens_per_line: int = 8) -> str:
    """Render as .qmux text; deterministic, so equal inputs give equal bytes."""
    lines = [f"controls: {m.controls}", f"form: {m.describe()}", "targets:"]
    tokens = target_tokens(m)
    for start in range(0, len(tokens), tokens_per_line):
        lines.append("  " + " ".join(tokens[start : start + tokens_per_line]))
    return "\n".join(lines) + "\n"


def to_json_dict(m: Multiplexer) -> dict:
    return {
        "controls": m.controls,
        "form": m.describe(),
        "targets": target_tokens(m),
    }


def dump_qmux_json(m: Multiplexer) -> str:
    return json.dumps(to_json_dict(m), indent=2) + "\n"


def save_qmux(m: Multiplexer, path) -> None:
    path = str(path)
    text = dump_qmux_json(m) if path.endswith(".json") else dump_qmux(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
