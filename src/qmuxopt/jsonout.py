"""The one streaming writer of every report and file, and the one place
that opens a file.

write(fh, pieces) is the one loop that calls a stream's write: it joins
any iterable of strs into writes of at most a character bound derived
from kernels.CHUNK_ROWS (see WRITE_CHARS_PER_ROW), a longer piece going
alone, so no write is longer than that bound or its one piece, and a
report or .qmux file of tens of MB is never held as one string.  The text
and CSV reports hand it newline-ended lines or batches of rows (a
classical ranking's, as many as fill one write: see rows_per_write), and
gate tokens travel as batches, lists of at most gates.sub_batch_rows()
tokens (see muxio.target_tokens), each joined into one piece: the
optimize report's target line and a .qmux file a batch per piece.

write_json(fh, value) writes exactly the text of json.dumps(value, indent=2)
through write, one piece per dict key, batch of tokens or batch of table
rows.  It writes dict keys itself at every level (keys are strs), an
iterator (of lists of strs) as the JSON list of their strs, taking each
list only when it reaches it, and a Table, whose batches of columns are
made only when the writer reaches them, in pieces of as many rows as fill
one write (at most kernels.CHUNK_ROWS), each piece one %-template
repeated once per row.  A zero-argument callable is written as the value
it returns, called when the writer reaches it: a value that depends on a
stream written before it (optimize's cost report, priced from the
decisions its target chunks recorded as they were rendered) is made
after that stream.  Any other value, lists included, is small and
goes through json.dumps, re-indented to its depth (JSON text never holds
a raw newline inside a string, so replacing every newline is safe).  The
text of each item is that of json.dumps, so the batching changes no byte.

open_file(path, mode) opens every file the program reads or writes, in
UTF-8, and read_file(path) reads one whole; a path or a file's bytes that
they cannot take is refused as a ParseError naming the path.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from . import kernels
from .errors import ParseError


@dataclass(frozen=True)
class Table:
    """A JSON list of dicts that share `keys`, made a batch of rows at a
    time: each batch is a tuple of columns, and row i of a batch is
    {keys[k]: columns[k][i]}.  Each column is a list of strs, or of ints:
    a list of Python ints or a numpy integer array, which write_json turns
    into Python ints a batch of rows at a time.  A table made a chunk at a
    time (cost.CostReport's, or a classical ranking's, whose polarities are
    named a batch at a time) is written a chunk at a time, and `batches`
    may be a one-shot iterator."""

    keys: tuple
    batches: object


# The character bound of one write is this many characters for each of
# kernels.CHUNK_ROWS rows: 64K characters at the default, and a table
# goes out in pieces of as many rows as fill it (about 760 to 1,260 JSON
# rows).  Peak RSS from os.wait4 on a 2-core Xeon (3 runs each), against
# 64 characters a row: classical FPRM at n = 14, JSON, 34.2 -> 33.3 MB
# (33.9 MB with a piece per row); random_m17 49.3 MB and fpqf_m12 34.5 MB
# at both.
WRITE_CHARS_PER_ROW = 16


def _write_bound() -> int:
    """The most characters one write joins: WRITE_CHARS_PER_ROW for each of
    kernels.CHUNK_ROWS rows."""
    return kernels.CHUNK_ROWS * WRITE_CHARS_PER_ROW


def rows_per_write(width: int) -> int:
    """How many rows of `width` characters fill one write: at least one,
    at most kernels.CHUNK_ROWS."""
    return max(1, min(kernels.CHUNK_ROWS, _write_bound() // width))


def write(fh, pieces) -> None:
    """Write the strs of `pieces` to fh, joined into writes of at most
    kernels.CHUNK_ROWS * WRITE_CHARS_PER_ROW characters each.  A piece
    longer than that bound (a batch of table rows can be) is written
    alone, with no join and so no copy: no write is longer than the bound
    or than its one piece.  With PYTHONUNBUFFERED or `python -u` every
    stdout write is a system call.  Empty pieces are dropped, and no
    write's list of pieces outlives its join."""
    bound = _write_bound()
    batch, size = [], 0
    append = batch.append
    for piece in filter(None, pieces):
        size += len(piece)
        if size > bound:  # flush before the piece
            if batch:
                fh.write("".join(batch))
                batch.clear()
            size = len(piece)
        append(piece)
    if batch:
        fh.write("".join(batch))


def open_file(path, mode: str = "r"):
    """The file at path, opened in mode in UTF-8.  A path holding a NUL
    byte, which open refuses with a bare ValueError, is refused as a
    ParseError naming it."""
    try:
        return open(path, mode, encoding="utf-8")
    except ValueError as exc:  # embedded null byte
        raise ParseError(str(exc), str(path))


def read_file(path) -> str:
    """The text of the file at path (see open_file); bytes that are not
    UTF-8 are refused as a ParseError naming it."""
    with open_file(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(str(exc), str(path))


def write_json(fh, value) -> None:
    """Write json.dumps(value, indent=2) to fh, each Table as its rows and
    each callable as its value."""
    write(fh, _pieces(value, ""))


def _pieces(value, pad: str):
    """The text of value at indent `pad`, one piece per key, batch of
    tokens or batch of table rows."""
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
    elif callable(value):
        yield from _pieces(value(), pad)
    elif isinstance(value, Iterator):
        sep, comma = "[\n" + inner, ",\n" + inner
        for batch in filter(None, value):
            yield sep + comma.join(map(encode_basestring_ascii, batch))
            sep = comma
        yield "\n" + pad + "]" if sep is comma else "[]"
    else:
        yield json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _table(table: Table, pad: str):
    """The table's rows, each batch in pieces of as many rows as fill the
    write bound at the length of the row's template (at least one, at most
    kernels.CHUNK_ROWS): each piece is one %-template, the text of a row
    after its separator, repeated once per row and filled from the rows'
    values in one step."""
    inner, field = pad + "  ", pad + "    "
    names = [encode_basestring_ascii(key).replace("%", "%%") for key in table.keys]
    opened = False
    for columns in table.batches:
        if not len(columns[0]):
            continue
        texts = [isinstance(column[0], str) for column in columns]
        fields = [f"{field}{name}: {'%s' if t else '%d'}" for name, t in zip(names, texts)]
        row = ",\n" + inner + "{\n" + ",\n".join(fields) + "\n" + inner + "}"
        step = rows_per_write(len(row))
        for start in range(0, len(columns[0]), step):
            piece = format_rows(row, _columns(columns, texts, slice(start, start + step)))
            yield piece if opened else "[" + piece[1:]  # "[\n" opens, ",\n" follows
            opened = True
    yield "\n" + pad + "]" if opened else "[]"


def format_rows(template: str, columns) -> str:
    """template % row for every row of the columns (sequences of one
    length), as one str: the template repeated once per row, filled from
    all the rows' values in one step."""
    values = tuple(itertools.chain.from_iterable(zip(*columns)))
    return template * len(columns[0]) % values


def _columns(columns: tuple, texts: list, rows: slice) -> list:
    """The rows of the columns as lists of Python ints and, where `texts`
    says so, of encoded strs: only one piece's row values exist as Python
    objects at a time."""
    part = []
    for column, text in zip(columns, texts):
        values = column[rows]
        if text:
            part.append(list(map(encode_basestring_ascii, values)))
        else:
            part.append(values.tolist() if hasattr(values, "tolist") else values)
    return part
