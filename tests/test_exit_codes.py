"""The CLI's exit-code contract as a property, on mutated input files.

Every run of cost, optimize or verify on any input file ends with exit
code 0 (ok), 1 (verification failure), 2 (parse or usage error) or 3 (size
limit).  A failure writes exactly one `error:` line to stderr, or
argparse's usage error, and never a traceback or a warning.  A file
refused for its header, its control count or its token count is refused
before any of its gate tokens is parsed.

The inputs are valid .qmux files and JSON mirrors, mutated by inserting,
deleting or replacing whitespace-separated tokens with tokens known to
have broken loaders before: huge, negative and bool control counts,
non-finite angles, broken matrix literals, duplicate keys, stray braces
and bytes that are not UTF-8.  The examples are derandomized and capped,
so the test runs the same inputs every time.
"""

import contextlib
import io
import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmuxopt import gates
from qmuxopt.cli import main
from qmuxopt.mux import Multiplexer, forward_transform
from qmuxopt.muxio import dump_qmux, dump_qmux_json

_BASES = [
    Multiplexer(2, np.stack([gates.I, gates.V, gates.V, gates.X])),
    Multiplexer(3, np.stack([gates.H, gates.rx(0.3), gates.Y, gates.I,
                             gates.ry(-1.1), gates.X, gates.VD, gates.rx(0.3)])),
]
_BASES.append(forward_transform(_BASES[0], "12"))
BASE_FILES = [
    dump(m).encode() for m in _BASES for dump in (dump_qmux, dump_qmux_json)
]

MUTATION_TOKENS = [
    # control counts: huge, negative, zero, bool, float, past any limit
    b"99999999999999999999999", b"-3", b"0", b"true", b"false", b"1e3", b"63", b"15",
    # non-finite and overflowing angles
    b"RX(inf)", b"RY(nan)", b"RZ(1e400)", b'"RX(-inf)",',
    # broken matrix literals
    b"M(1,0,0,0,0,0,1)", b"M(1,0,0,0,0,0,1,0", b"M(a,0,0,0,0,0,1,0)",
    b"M(1,0,0,0,0,0,2,0)", b"M(1e400,0,0,0,0,0,1,0)", b"M(nan,0,0,0,0,0,1,0)",
    # duplicate and unknown keys, forms
    b"controls:", b"form:", b"targets:", b'"controls": 3,', b'"form": "kqf:2",',
    b'"targets": [],', b"kqf:0", b"fpqf:012", b"standard", b"extra:",
    # stray JSON structure
    b"{", b"}", b"[", b"]", b",", b":", b"null", b'"X"', b'"X",',
    # comments, valid gate tokens, and bytes that are not UTF-8
    b"#", b"X", b"H", b"RX(0.2)", b"M(0,0,1,0,1,0,0,-0.0)", b'"I",',
    b"\xff", b"\xc3\x28", b"\x80abc",
]

_PIECE = re.compile(rb"\s+|\S+")

# The loaders' header, control-count and token-count messages.
_BEFORE_TOKENS = re.compile(
    r"bad JSON|expected 'key: value'|bad control count|bad form|unknown field|missing '"
    r"|controls need 2\^|expected \d+ gate tokens"
)

mutation = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.floats(0, 1, exclude_max=True),
    st.sampled_from(MUTATION_TOKENS),
)


def _mutate(text: bytes, mutations) -> bytes:
    """Apply each (kind, place, token) to the file's pieces, a piece being
    a run of whitespace or of anything else."""
    pieces = _PIECE.findall(text)
    for kind, place, token in mutations:
        at = int(place * (len(pieces) + (kind == "insert")))
        if kind == "insert":
            pieces[at:at] = [b" ", token, b" "]
        elif pieces and kind == "delete":
            del pieces[at]
        elif pieces:
            pieces[at] = token
    return b"".join(pieces)


def _run(argv):
    """(exit code, stderr, warnings, gates.parse_gate calls) of one cli.main run."""
    err = io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        mock.patch.object(gates, "parse_gate", wraps=gates.parse_gate) as parse_gate,
    ):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
    return code, err.getvalue(), caught, parse_gate.call_count


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(BASE_FILES),
    mutations=st.lists(mutation, max_size=3),
    polarity=st.sampled_from(["11", "12", "102", "0"]),
)
def test_every_mutated_input_keeps_the_exit_code_contract(base, mutations, polarity):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input.qmux")
        with open(path, "wb") as fh:
            fh.write(_mutate(base, mutations))
        for argv in (
            ["cost", path],
            ["optimize", path, "--family", "kqf"],
            ["verify", path, polarity],
        ):
            code, err, caught, parsed = _run(argv)
            assert code in (0, 1, 2, 3), argv
            assert not caught, [str(w.message) for w in caught]
            assert "Traceback" not in err
            if code in (0, 1):
                assert err == ""
            elif err.startswith("usage:"):
                assert code == 2
            else:
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
                if _BEFORE_TOKENS.search(err):
                    assert parsed == 0, err


def test_a_json_count_past_the_int_digit_limit_exits_2_naming_the_file():
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "big.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"controls": 1' + "0" * 5000 + ', "form": "standard", "targets": ["I", "X"]}')
        for argv in (["cost", path], ["optimize", path], ["verify", path, "1"]):
            code, err, caught, parsed = _run(argv)
            assert code == 2, argv
            assert not caught and "Traceback" not in err
            assert err.startswith(f"error: {path}: bad JSON: ") and err.count("\n") == 1, err
            assert parsed == 0
