"""The CLI's exit-code contract as a property, on mutated inputs.

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
and bytes that are not UTF-8.  `classical` takes the same contract, with
0 or 2 as its only codes at these sizes, on binary and hex minterm
strings mutated a character at a time and on odd values of --top and
--output-index.  The examples are derandomized and capped, so the test
runs the same inputs every time.
"""

import contextlib
import io
import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
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


MINTERM_STRINGS = ["01101111", "0110", "10", "1" * 32, "0x6F0A", "0X6f", "0x" + "c3" * 8]
# Characters and runs a minterm string is mutated with: digits of either
# form, hex prefixes, separators, signs, a newline and a NUL, digits
# outside ASCII, and a suffix or separator that makes it look like a path.
MINTERM_PIECES = ["0", "1", "2", "x", "X", "0x", "a", "F", "g", " ", "\n", "\t", "-", "_", "+",
                  ".", "\u00e9", "\u0661", "\uff10", "\x00", ".pla", "/"]
# --top and --output-index values: in and out of range, negative, huge,
# empty, padded, underscored, hex, float, and digits outside ASCII.
FLAG_VALUES = ["0", "1", "3", "27", "-1", "-0", "", " 2", "2 ", "1_0", "0x1", "1e3", "3.0",
               "\u0663", "\uff12", "\u00b3", "9" * 23, "-" + "9" * 20]
PLA_TWO_OUTPUTS = ".i 3\n.o 2\n1-0 10\n-11 01\n000 11\n.e\n"

char_mutation = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.floats(0, 1, exclude_max=True),
    st.sampled_from(MINTERM_PIECES),
)


def _mutate_chars(text: str, mutations) -> str:
    """Apply each (kind, place, piece) to the string's characters."""
    chars = list(text)
    for kind, place, piece in mutations:
        at = int(place * (len(chars) + (kind == "insert")))
        if kind == "insert":
            chars[at:at] = [piece]
        elif chars and kind == "delete":
            del chars[at]
        elif chars:
            chars[at] = piece
    return "".join(chars)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(MINTERM_STRINGS),
    mutations=st.lists(char_mutation, max_size=3),
    top=st.none() | st.sampled_from(FLAG_VALUES),
    output_index=st.none() | st.sampled_from(FLAG_VALUES),
    family=st.sampled_from(["fprm", "krm"]),
    fmt=st.sampled_from(["text", "csv", "json"]),
)
# A newline inside the string split its error line in two.
@example("0110", [("insert", 0.5, "\n")], None, None, "fprm", "text")
@example("0110", [("insert", 0.5, "\n")], None, "1", "krm", "csv")
@example("0x6F0A", [("insert", 0.9, "\x00"), ("insert", 0.99, ".pla")], "1", None, "fprm", "json")
def test_every_classical_input_keeps_the_exit_code_contract(base, mutations, top, output_index,
                                                             family, fmt):
    flags = ["--family", family, "--format", fmt]
    for name, value in (("--top", top), ("--output-index", output_index)):
        if value is not None:
            flags += [name, value]
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "two.pla")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(PLA_TWO_OUTPUTS)
        for argv in (["classical", _mutate_chars(base, mutations), *flags],
                     ["classical", path, *flags]):
            code, err, caught, _ = _run(argv)
            assert code in (0, 2), argv
            assert not caught, [str(w.message) for w in caught]
            assert "Traceback" not in err
            if code == 0:
                assert err == ""
            elif not err.startswith("usage:"):
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert err.endswith("\n"), err


def test_a_source_name_with_a_newline_stays_on_the_one_error_line():
    """A file or minterm string whose name holds a newline is named by its
    repr, so the error is still one line."""
    with tempfile.TemporaryDirectory() as work:
        bad_pla = os.path.join(work, "a\nb.pla")
        with open(bad_pla, "w", encoding="utf-8") as fh:
            fh.write(".i 2\n.o 1\n0x 1\n.e\n")
        bad_qmux = os.path.join(work, "c\nd.qmux")
        with open(bad_qmux, "w", encoding="utf-8") as fh:
            fh.write("controls: 2\nform: standard\ntargets: I X\n")
        for argv, source in ((["classical", bad_pla], bad_pla), (["cost", bad_qmux], bad_qmux),
                             (["classical", "01\n10"], "01\n10")):
            code, err, caught, _ = _run(argv)
            assert code == 2 and not caught
            assert err.startswith(f"error: {source!r}") and err.count("\n") == 1, err
