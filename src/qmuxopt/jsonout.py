"""Streaming writer of indent-2 JSON reports.

write_json(fh, value) writes exactly the text of json.dumps(value, indent=2)
into fh, a batch of at most JSON_CHUNKS_PER_WRITE items at a time, so a
report of tens of MB is never held as one string.  It writes dict keys
itself at every level (keys are strs), a list of strs item by item, a
Chunked list of strs a chunk at a time as its chunks are made, and a Table
row by row from one %-template; any other value is small and goes through
json.dumps, re-indented to its depth (JSON text never holds a raw newline
inside a string, so replacing every newline is safe).  The text of each
item is that of json.dumps, so neither the batching nor the chunking
changes a byte.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

# Items (dict keys, list items, table rows) joined into one write.  With
# PYTHONUNBUFFERED or `python -u` every stdout write is a system call.
JSON_CHUNKS_PER_WRITE = 4096


@dataclass(frozen=True)
class Chunked:
    """A list of strs made a chunk at a time: chunks() returns an iterator
    of lists of strs, and write_json takes the next chunk only when it
    reaches it, so the whole list never exists.  Iterating a Chunked
    yields its strs."""

    chunks: Callable[[], Iterator[list]]

    def __iter__(self):
        return itertools.chain.from_iterable(self.chunks())


@dataclass(frozen=True)
class Table:
    """A JSON list of dicts that share `keys`, held by column: row i is
    {keys[k]: columns[k][i]}.  Each column is a list of strs, or of ints:
    a list of Python ints or a numpy integer array, which write_json turns
    into Python ints a batch of rows at a time."""

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
    elif isinstance(value, Chunked) or (
        isinstance(value, list) and all(isinstance(s, str) for s in value)
    ):
        encoded = map(encode_basestring_ascii, value)
        first = next(encoded, None)
        if first is None:
            yield "[]"
            return
        yield "[\n" + inner + first
        yield from map((",\n" + inner).__add__, encoded)
        yield "\n" + pad + "]"
    else:
        yield json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _table(table: Table, pad: str):
    inner, field = pad + "  ", pad + "    "
    texts, fields = [], []
    for key, column in zip(table.keys, table.columns):
        text = len(column) > 0 and isinstance(column[0], str)
        texts.append(text)
        name = encode_basestring_ascii(key).replace("%", "%%")
        fields.append(f"{field}{name}: {'%s' if text else '%d'}")
    row = "{\n" + ",\n".join(fields) + "\n" + inner + "}"
    rows = itertools.chain.from_iterable(
        zip(*_columns(table, texts, start))
        for start in range(0, len(table.columns[0]), JSON_CHUNKS_PER_WRITE)
    )
    first = next(rows, None)
    if first is None:
        yield "[]"
        return
    yield "[\n" + inner + row % first
    yield from map((",\n" + inner + row).__mod__, rows)
    yield "\n" + pad + "]"


def _columns(table: Table, texts: list, start: int) -> list:
    """JSON_CHUNKS_PER_WRITE rows of the table's columns from `start`, as
    lists of Python ints and of encoded strs: only one batch of row values
    exists as Python objects at a time."""
    part = []
    for column, text in zip(table.columns, texts):
        values = column[start : start + JSON_CHUNKS_PER_WRITE]
        if text:
            part.append(list(map(encode_basestring_ascii, values)))
        else:
            part.append(values.tolist() if hasattr(values, "tolist") else values)
    return part
