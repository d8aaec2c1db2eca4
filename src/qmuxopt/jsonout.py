"""The one streaming writer of every report and file.

write(fh, pieces) is the one loop that calls a stream's write: it joins
any iterable of strs into writes of kernels.CHUNK_ROWS pieces each, so a
report or .qmux file of tens of MB is never held as one string.  The
text and CSV reports hand it newline-ended lines, a long line (the
optimize report's targets) a token at a time, and a .qmux file is handed
over a token at a time.

write_json(fh, value) writes exactly the text of json.dumps(value, indent=2)
through write, one piece per dict key, iterator item or table row.  It writes
dict keys itself at every level (keys are strs), an iterator (of strs) as
the JSON list of its strs, taking each only when it reaches it, and a
Table row by row from one %-template, reading its columns
kernels.CHUNK_ROWS rows at a time; any other value, lists included, is
small and goes through json.dumps, re-indented to its depth (JSON text
never holds a raw newline inside a string, so replacing every newline is
safe).  The text of each item is that of json.dumps, so the batching
changes no byte.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from . import kernels


@dataclass(frozen=True)
class Table:
    """A JSON list of dicts that share `keys`, held by column: row i is
    {keys[k]: columns[k][i]}.  Each column is a list of strs, or of ints:
    a list of Python ints or a numpy integer array, which write_json turns
    into Python ints a batch of rows at a time."""

    keys: tuple
    columns: tuple


def write(fh, pieces) -> None:
    """Write the strs of `pieces` to fh, kernels.CHUNK_ROWS of them joined
    into each write.  With PYTHONUNBUFFERED or `python -u` every stdout
    write is a system call.  Empty pieces are dropped, so an empty batch
    means the pieces have run out, and no batch's list of pieces outlives
    its join."""
    pieces = filter(None, pieces)
    while text := "".join(itertools.islice(pieces, kernels.CHUNK_ROWS)):
        fh.write(text)


def write_json(fh, value) -> None:
    """Write json.dumps(value, indent=2) to fh, each Table as its rows."""
    write(fh, _pieces(value, ""))


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
    elif isinstance(value, Iterator):
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
        for start in range(0, len(table.columns[0]), kernels.CHUNK_ROWS)
    )
    first = next(rows, None)
    if first is None:
        yield "[]"
        return
    yield "[\n" + inner + row % first
    yield from map((",\n" + inner + row).__mod__, rows)
    yield "\n" + pad + "]"


def _columns(table: Table, texts: list, start: int) -> list:
    """kernels.CHUNK_ROWS rows of the table's columns from `start`, as
    lists of Python ints and of encoded strs: only one batch of row values
    exists as Python objects at a time."""
    part = []
    for column, text in zip(table.columns, texts):
        values = column[start : start + kernels.CHUNK_ROWS]
        if text:
            part.append(list(map(encode_basestring_ascii, values)))
        else:
            part.append(values.tolist() if hasattr(values, "tolist") else values)
    return part
