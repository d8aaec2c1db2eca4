"""The CLI's exit-code contract as a property, on mutated inputs.

Every run of cost, optimize or verify on any input file ends with exit
code 0 (ok), 1 (verification failure), 2 (parse or usage error) or 3 (size
limit).  A failure writes exactly one `error:` line to stderr, or
argparse's usage error, and never a traceback or a warning.  Exit 4, an
internal fault with its traceback on stderr, is the program's own failure
and never the answer to any input, so no property here accepts it.  A file
refused for its header, its control count or its token count is refused
before any of its gate tokens is parsed.

The inputs are valid .qmux files and JSON mirrors, mutated by inserting,
deleting or replacing whitespace-separated tokens with tokens known to
have broken loaders before: huge, negative and bool control counts,
non-finite angles, broken matrix literals, duplicate keys, stray braces
and bytes that are not UTF-8; and JSON mirrors whose fields each take a
value of every JSON type (null, bool, number, string, list, object),
objects nested inside the targets included.  The flags of optimize,
verify and generate take the same contract: sample counts, seeds, control
counts, pools and polarities in and out of range, and --out and
--transformed paths that are a directory, lack a parent or hold a NUL
byte.  `classical` takes the same contract, with
0 or 2 as its only codes at these sizes, on binary and hex minterm
strings mutated a character at a time and on odd values of --top and
--output-index; and with 0, 2 or 3 on the PLA files of tests/data mutated
token by token in their headers, directives, cubes and output columns,
where parse_pla's two warnings (a .p count other than the terms read, an
ignored directive) are documented outcomes, not failures.  The examples
are derandomized and capped, so the test runs the same inputs every time.
A .qmux or .pla header count that int() reads but that is not ASCII
digits exits 2 as well.
"""

import contextlib
import io
import json
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmuxopt import blocksearch, boolrm, cost, errors, gates, kernels, mux, pla, randmux, search
from qmuxopt.cli import main
from qmuxopt.errors import QmuxError
from qmuxopt.mux import Multiplexer, forward_transform
from qmuxopt.muxio import dump_qmux, dump_qmux_json, save_qmux

from oracle import ivvx_case

_BASES = [
    ivvx_case(),
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

# The loaders' header, control-count and token-count messages, and their
# refusal of a form's polarity (prefixed by the file, unlike verify's
# refusal of its polarity argument, which comes after the file is loaded).
_BEFORE_TOKENS = re.compile(
    r"bad JSON|expected 'key: value'|bad control count|bad form|unknown field|repeated field"
    r"|missing '|controls need 2\^|expected \d+ gate tokens"
    r"|\.qmux(?::\d+)?: (?:fpqf |kqf )?polarity '"
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


def _check_contract(argv, code, err, caught, parsed):
    """The assertions of the .qmux property, for one run: a documented
    code, no warning and no traceback, and a failure's one `error:` line
    or argparse's usage; a file refused before its tokens parsed none."""
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


# A value of each JSON type for a field of the mirror, objects and lists
# holding the others, and objects keyed by the mirror's own field names.
JSON_KEYS = st.sampled_from(["controls", "form", "targets", "x", ""])
JSON_SCALARS = st.none() | st.booleans() | st.floats() | st.integers(-3, 3) | st.text(max_size=6)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_KEYS, inner, max_size=3),
    max_leaves=6,
)
TOKENS = st.sampled_from(["I", "X", "V", "VD", "RX(0.3)", "QQ"])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    controls=st.sampled_from([1, 2]) | JSON_VALUES,
    form=st.sampled_from(["standard", "kqf:12", "fpqf:1"]) | JSON_VALUES,
    targets=st.lists(TOKENS | st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=2), max_size=5)
    | JSON_VALUES,
)
def test_every_wrong_typed_json_field_keeps_the_exit_code_contract(controls, form, targets):
    """Each field of the JSON mirror takes its own strategy of wrong types,
    with a valid value among them so the others are tried alone."""
    text = json.dumps({"controls": controls, "form": form, "targets": targets})
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["cost", path], ["optimize", path], ["verify", path, "12"]):
            _check_contract(argv, *_run(argv))


# Where --out or --transformed points, under the run's directory (a
# leading "@" stands for it): a file to make, the directory itself, a file
# under a missing directory, a path holding a NUL byte; the base case's
# transformed file at "12", and the base case itself (standard form).
PLACES = ["@out.txt", "@.", "@missing/out.txt", "@a\x00b", "@t12.qmux", "@case.qmux"]
FLAG_RUNS = st.one_of(
    st.tuples(
        st.just(["optimize", "@case.qmux"]),
        st.tuples(st.just("--samples"), st.sampled_from(["-1", "0", "1", "3"])),
        st.tuples(st.just("--seed"), st.sampled_from(["0", "7", "-1", "1" + "0" * 30])),
        st.tuples(st.just("--family"), st.sampled_from(["fpqf", "kqf", "fprm"])),
        st.tuples(st.just("--mode"), st.sampled_from(["exhaustive", "random"])),
        st.tuples(st.just("--format"), st.sampled_from(["text", "json", "csv"])),
        st.none() | st.tuples(st.just("--out"), st.sampled_from(PLACES[:4])),
    ),
    st.tuples(
        st.just(["verify", "@case.qmux"]),
        st.tuples(st.sampled_from(["", "1", "12", "112", "13", "x2", "1\x00", "\u0661\u0662"])),
        st.none() | st.tuples(st.just("--transformed"), st.sampled_from(PLACES[1:])),
        st.tuples(st.just("--format"), st.sampled_from(["text", "json", "csv"])),
        st.none() | st.tuples(st.just("--out"), st.sampled_from(PLACES[:4])),
    ),
    st.tuples(
        st.just(["generate"]),
        st.tuples(st.just("--controls"),
                  st.sampled_from(["-1", "0", "21", "1" + "0" * 30, "1", "2", "5", "8"])),
        st.none() | st.tuples(st.just("--pool"), st.sampled_from(
            ["full", "nvv", "custom:X,H", "custom:", "custom:,", "custom:RX(inf)", "bogus"])),
        st.tuples(st.just("--seed"), st.sampled_from(["0", "7", "-1", "1" + "0" * 30])),
        st.tuples(st.just("--out"), st.sampled_from(PLACES[:4])),
    ),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run=FLAG_RUNS)
# A NUL byte in --out: open's bare ValueError once leaked from the writers.
@example((["generate"], ("--controls", "2"), None, ("--seed", "0"), ("--out", "@a\x00b")))
@example((["optimize", "@case.qmux"], ("--samples", "1"), ("--seed", "0"), ("--family", "kqf"),
          ("--mode", "random"), ("--format", "csv"), ("--out", "@a\x00b")))
def test_every_flag_value_keeps_the_exit_code_contract(run):
    """optimize, verify and generate on the base case, each flag drawn
    from values in and out of range, and each path from PLACES."""
    with tempfile.TemporaryDirectory() as work:
        with open(os.path.join(work, "case.qmux"), "w", encoding="utf-8") as fh:
            fh.write(dump_qmux(_BASES[0]))
        save_qmux(_BASES[2], os.path.join(work, "t12.qmux"))
        argv = [os.path.join(work, a[1:]) if a.startswith("@") else a
                for part in filter(None, run) for a in part]
        _check_contract(argv, *_run(argv))


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


PLA_FILES = [p.read_bytes() for p in sorted((Path(__file__).parent / "data").glob("*.pla"))]
PLA_TOKENS = [
    # directives, known, ignored and ending, and whole header lines
    b".i", b".o", b".p", b".e", b".end", b".type", b".ilb", b".phase", b".mv",
    b"\n.i 3\n", b"\n.o 2\n", b"\n.p 0\n", b"\n.kiss\n", b"\n.e\n",
    # counts: zero, negative, past the size limit or int()'s digit limit,
    # underscored, and digits outside ASCII
    b"0", b"1", b"2", b"3", b"-1", b"17", b"99", b"9" * 5000, b"1_0", "\u0662".encode(),
    # cube and output columns: too short, too wide, bad characters
    b"-", b"~", b"01", b"1-0", b"0-1-1", b"000011", b"x", b"01x", b"1~", b"2",
    b"\n0-1 1\n", b"\n11 0~\n",
    # comments, and bytes that are not UTF-8
    b"#", b"\xff", b"\xc3\x28",
]
# What parse_pla warns of and reads on: a .p count other than the terms
# read, and a directive it ignores.
PLA_WARNINGS = re.compile(r"\.p says \d+ terms but \d+ were read|ignoring directive ")

pla_mutation = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.floats(0, 1, exclude_max=True),
    st.sampled_from(PLA_TOKENS),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(base=st.sampled_from(PLA_FILES), mutations=st.lists(pla_mutation, max_size=3))
@example(b".i 17\n.o 1\n.e\n", [])  # past the size limit: exit 3
def test_every_mutated_pla_keeps_the_exit_code_contract(base, mutations):
    """classical on a mutated PLA file exits 0, 2 or 3, a failure with one
    error line; its only warnings are the two parse_pla documents."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input.pla")
        with open(path, "wb") as fh:
            fh.write(_mutate(base, mutations))
        code, err, caught, _ = _run(["classical", path])
    assert code in (0, 2, 3)
    messages = [str(w.message) for w in caught]
    assert all(map(PLA_WARNINGS.search, messages)), messages
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


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


# Counts int() reads as 1 or 2: an underscore, a sign, digits outside ASCII.
@pytest.mark.parametrize("one, two", [("0_1", "0_2"), ("+1", "+2"), ("\u0661", "\u0662"),
                                      ("\uff11", "\uff12")])
def test_a_header_count_of_anything_but_ascii_digits_exits_2(one, two):
    """A .qmux control count and a .pla .i count are ASCII decimal digits:
    a count that int() reads but that is not such digits exits 2 with the
    header's message, where it loaded as 1 control or 2 inputs."""
    with tempfile.TemporaryDirectory() as work:
        qmux, pla = os.path.join(work, "one.qmux"), os.path.join(work, "two.pla")
        with open(qmux, "w", encoding="utf-8") as fh:
            fh.write(f"controls: {one}\nform: standard\ntargets: I X\n")
        with open(pla, "w", encoding="utf-8") as fh:
            fh.write(f".i {two}\n.o 1\n01 1\n.e\n")
        for argv, message in ((["cost", qmux], f"bad control count {one!r}"),
                              (["classical", pla], f".i needs an integer count of at least 1, "
                                                   f"got {two!r}")):
            code, err, caught, parsed = _run(argv)
            assert code == 2 and not caught and parsed == 0, err
            assert err.startswith("error: ") and message in err and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "text,signed,want",
    [
        ("0", False, 0), ("007", False, 7), ("-3", True, -3), ("-0", True, 0),
        ("-3", False, None), ("--3", True, None), ("-", True, None), ("", False, None),
        ("1_0", False, None), ("+1", True, None), (" 1", False, None), ("1\n", False, None),
        ("\uff11", False, None), ("-\u0663", True, None), ("\u00b2", False, None),
        ("9" * 5000, False, None),  # past int()'s digit limit
    ],
)
def test_parse_count_reads_ascii_digits_only(text, signed, want):
    """The one rule of the counts in input text: the headers, the PLA
    directives and the count flags all read a count through it."""
    assert errors.parse_count(text, signed) == want


_PAIR = np.stack([gates.I, gates.X])
_FROZEN = np.zeros(4, np.uint8)
_FROZEN.setflags(write=False)

# A refusal of each validator that CLI input or a library argument reaches.
REFUSALS = [
    pytest.param(lambda: blocksearch.check_polarity("13", 2, "kqf"), id="check_polarity digits"),
    pytest.param(lambda: blocksearch.check_size("nope", 3), id="check_size family"),
    pytest.param(lambda: Multiplexer(True, _PAIR), id="Multiplexer bool controls"),
    pytest.param(lambda: Multiplexer(0, _PAIR), id="Multiplexer zero controls"),
    pytest.param(lambda: Multiplexer(2, _PAIR), id="Multiplexer shape"),
    pytest.param(lambda: Multiplexer(1, np.stack([gates.I, 2 * gates.X])),
                 id="Multiplexer unitarity"),
    pytest.param(lambda: Multiplexer(1, _PAIR, "standard", "1"),
                 id="Multiplexer standard polarity"),
    pytest.param(lambda: Multiplexer(1, _PAIR, "diagonal", "1"), id="Multiplexer form"),
    pytest.param(lambda: Multiplexer(1, _PAIR, "fpqf", "1", (2,)), id="Multiplexer inverted line"),
    pytest.param(lambda: boolrm.BoolFunc(0, np.zeros(1, np.uint8)), id="BoolFunc variables"),
    pytest.param(lambda: boolrm.BoolFunc(1, np.array([0, 2], np.uint8)), id="BoolFunc values"),
    pytest.param(lambda: boolrm.BoolFunc.from_string("0x6G"), id="BoolFunc.from_string"),
    pytest.param(lambda: randmux.GatePool("custom", ()), id="GatePool empty"),
    pytest.param(lambda: randmux.generate(0, randmux.POOL_FULL, 0), id="generate controls"),
    pytest.param(lambda: randmux.generate(2.0, randmux.POOL_FULL, 0), id="generate float controls"),
    pytest.param(lambda: randmux.generate(True, randmux.POOL_FULL, 0), id="generate bool controls"),
    pytest.param(lambda: randmux.generate(2, randmux.POOL_FULL, True), id="generate bool seed"),
    pytest.param(lambda: randmux.generate(2, randmux.POOL_FULL, -1), id="generate negative seed"),
    pytest.param(lambda: randmux.generate(2, randmux.POOL_FULL, 1.5), id="generate float seed"),
    pytest.param(lambda: search.SearchConfig(samples=0), id="SearchConfig samples"),
    pytest.param(lambda: search.SearchConfig(samples=2.5), id="SearchConfig float samples"),
    pytest.param(lambda: search.SearchConfig(samples=True), id="SearchConfig bool samples"),
    pytest.param(lambda: search.SearchConfig(family="fprm"), id="SearchConfig family"),
    pytest.param(lambda: search.SearchConfig(mode="greedy"), id="SearchConfig mode"),
    pytest.param(lambda: search.SearchConfig(seed=-1), id="SearchConfig negative seed"),
    pytest.param(lambda: search.SearchConfig(seed=None), id="SearchConfig seed None"),
    pytest.param(lambda: search.SearchConfig(seed=True), id="SearchConfig bool seed"),
    pytest.param(lambda: pla.to_bool_func(pla.parse_pla(".i 1\n.o 1\n.e\n"), 1),
                 id="to_bool_func output"),
    pytest.param(lambda: mux.semantics(_BASES[0], 4), id="semantics state"),
    pytest.param(lambda: cost.gate_cost(-1), id="gate_cost count"),
]
# A failure of each check of the program's own state, which no input reaches.
FAULTS = [
    pytest.param(lambda: kernels.gate_stage(_FROZEN, kernels.FORWARD_POS, 0),
                 id="gate_stage layout"),
    pytest.param(lambda: kernels.gate_stage(np.zeros((2, 2, 2), complex), 99, 0),
                 id="gate_stage code"),
    pytest.param(lambda: blocksearch.cascade(np.zeros(8, np.uint8), "11", "krm"),
                 id="cascade length"),
    pytest.param(lambda: mux.transform_stages(np.zeros((4, 2, 2), complex), "11", "sideways"),
                 id="transform_stages direction"),
]


@pytest.mark.parametrize("call", REFUSALS)
def test_every_validator_cli_input_reaches_refuses_with_a_qmux_error(call):
    """A refusal is a QmuxError, which cli.main answers with exit 2 or 3,
    and still a ValueError for library callers."""
    with pytest.raises(QmuxError) as info:
        call()
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("call", FAULTS)
def test_a_check_of_the_programs_own_state_stays_a_bare_value_error(call):
    """When one of these checks fires it is a fault, which cli.main
    answers with exit 4 and the traceback."""
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
