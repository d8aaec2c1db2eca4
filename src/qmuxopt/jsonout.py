"""Streaming writer of indent-2 JSON reports.

write_json(fh, value) writes exactly the text of json.dumps(value, indent=2)
into fh, a batch of at most JSON_CHUNKS_PER_WRITE items at a time, so a
report of tens of MB is never held as one string.  It writes dict keys
itself at every level (keys are strs), a list of strs item by item, and a
Table row by row from one %-template; any other value is small and goes
through json.dumps, re-indented to its depth (JSON text never holds a raw
newline inside a string, so replacing every newline is safe).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

# Items (dict keys, list items, table rows) joined into one write.  With
# PYTHONUNBUFFERED or `python -u` every stdout write is a system call.
JSON_CHUNKS_PER_WRITE = 4096


@dataclass(frozen=True)
class Table:
    """A JSON list of dicts that share `keys`, held by column: row i is
    {keys[k]: columns[k][i]}.  Each column is a list of Python ints or of
    strs."""

    keys: tuple
    columns: tuple


def write_json(fh, value) -> None:
    """Write json.dumps(value, indent=2) to fh, each Table as its rows."""
    pieces = _pieces(value, "")
    while batch := "".join(itertools.islice(pieces, JSON_CHUNKS_PER_WRITE)):
        fh.write(batch)


def _pieces(value, pad: str):
    """The text of value at indent `pad`, one piece per key, item or row."""
    inner = pad + "  "
    if isinstance(value, Table):
        yield from _table(value, pad)
    elif isinstance(value, dict) and value:
        sep = "{\n" + inner
        for key, item in value.items():
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _pieces(item, inner)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    elif isinstance(value, list) and value and all(isinstance(s, str) for s in value):
        yield "[\n" + inner + encode_basestring_ascii(value[0])
        rest = map(encode_basestring_ascii, itertools.islice(value, 1, None))
        yield from map((",\n" + inner).__add__, rest)
        yield "\n" + pad + "]"
    else:
        yield json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _table(table: Table, pad: str):
    inner, field = pad + "  ", pad + "    "
    columns, fields = [], []
    for key, column in zip(table.keys, table.columns):
        text = column and isinstance(column[0], str)
        columns.append(list(map(encode_basestring_ascii, column)) if text else column)
        name = encode_basestring_ascii(key).replace("%", "%%")
        fields.append(f"{field}{name}: {'%s' if text else '%d'}")
    row = "{\n" + ",\n".join(fields) + "\n" + inner + "}"
    rows = zip(*columns)
    first = next(rows, None)
    if first is None:
        yield "[]"
        return
    yield "[\n" + inner + row % first
    yield from map((",\n" + inner + row).__mod__, rows)
    yield "\n" + pad + "]"
