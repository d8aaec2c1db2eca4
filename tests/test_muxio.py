import json
import tracemalloc

import numpy as np
import pytest

from qmuxopt import gates, kernels
from qmuxopt.cli import main
from qmuxopt.errors import ParseError
from qmuxopt.mux import (
    FPQF,
    KQF,
    Multiplexer,
    Palette,
    forward_transform,
    max_semantic_deviation,
    negative_control_realization,
)
from qmuxopt.muxio import (
    UNMATCHABLE_CONTROLS,
    dump_qmux,
    dump_qmux_json,
    load_qmux,
    parse_qmux,
    save_qmux,
    target_tokens,
)
from qmuxopt.randmux import POOL_FULL, generate, resolve_pool

import oracle
from oracle import flat, ivvx_case


@pytest.fixture
def parsed(monkeypatch):
    """The tokens gates.parse_gate is called on, in order."""
    calls = []
    parse_gate = gates.parse_gate
    monkeypatch.setattr(gates, "parse_gate", lambda token: calls.append(token) or parse_gate(token))
    return calls


def test_parse_minimal_file():
    m = parse_qmux("controls: 2\nform: standard\ntargets: I V V X\n")
    assert m.controls == 2
    assert m.form == "standard"
    assert np.array_equal(m.targets, ivvx_case().targets)


def test_parse_accepts_comments_and_wrapped_targets():
    text = (
        "# a comment line\n"
        "controls: 2   # trailing comment\n"
        "form: fpqf:11\n"
        "targets:\n"
        "  I V\n"
        "  V I\n"
    )
    m = parse_qmux(text)
    assert m.form == FPQF
    assert m.polarity == "11"
    assert flat(target_tokens(m)) == ["I", "V", "V", "I"]


def test_parse_kqf_form():
    m = parse_qmux("controls: 1\nform: kqf:2\ntargets: H H\n")
    assert m.form == KQF
    assert m.polarity == "2"


def test_dump_parse_round_trip():
    m = ivvx_case()
    again = parse_qmux(dump_qmux(m))
    assert again.controls == m.controls
    assert np.array_equal(again.targets, m.targets)


def test_dump_is_deterministic():
    m = ivvx_case()
    assert dump_qmux(m) == dump_qmux(ivvx_case())


def test_polarized_round_trip_with_matrix_literals():
    rng = np.random.default_rng(150)
    std = Multiplexer(2, oracle.random_unitaries(rng, 4))
    g = forward_transform(std, "10")
    again = parse_qmux(dump_qmux(g))
    assert again.form == FPQF
    assert again.polarity == "10"
    assert np.abs(again.targets - g.targets).max() <= 1e-12


def test_json_mirror_round_trip():
    m = ivvx_case()
    again = parse_qmux(dump_qmux_json(m))
    assert np.array_equal(again.targets, m.targets)


def test_save_and_load(tmp_path):
    m = ivvx_case()
    path = tmp_path / "case.qmux"
    save_qmux(m, path)
    assert np.array_equal(load_qmux(path).targets, m.targets)
    jpath = tmp_path / "case.json"
    save_qmux(m, jpath)
    assert jpath.read_text().lstrip().startswith("{")
    assert np.array_equal(load_qmux(jpath).targets, m.targets)


def test_parse_error_carries_line_and_column():
    text = "controls: 2\nform: standard\ntargets: I V BAD X\n"
    with pytest.raises(ParseError) as info:
        parse_qmux(text, source="case.qmux")
    assert info.value.line == 3
    assert info.value.column == 14
    assert "case.qmux:3:14" in str(info.value)


def test_repeated_bad_token_fails_at_its_first_occurrence():
    text = "controls: 2\nform: standard\ntargets: I   # ok so far\n  X BAD\nBAD\n"
    with pytest.raises(ParseError) as info:
        parse_qmux(text, source="case.qmux")
    assert (info.value.line, info.value.column) == (4, 5)
    # Two bad tokens, the second one repeated earlier: the first in file order wins.
    text = "controls: 2\nform: standard\ntargets: I OOPS\n\tBAD OOPS\n"
    with pytest.raises(ParseError) as info:
        parse_qmux(text)
    assert (info.value.line, info.value.column) == (3, 12)
    assert "'OOPS'" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_qmux('{"controls": 2, "form": "standard", "targets": ["I", "BAD", "X", "BAD"]}')
    assert "target 1:" in str(info.value)


@pytest.mark.parametrize(
    "text,message,line,column",
    [
        # a wrapped line, indented with a tab and spaces
        ("controls: 2\nform: standard\ntargets: I V\n\t  X RQ(1)\n",
         "unrecognized gate token 'RQ(1)'", 4, 6),
        # the targets line itself, with the key padded: columns count from the line start
        ("controls: 2\nform: standard\n  targets :  I  M(1,2)  V X # c\n",
         "matrix literal needs 8 numbers, got 2: 'M(1,2)'", 3, 17),
        # a non-unitary literal after a blank and a comment-only line
        ("controls: 1\nform: standard\ntargets:\n\n# c\n  I M(1,0,0,0,0,0,2,0)\n",
         "matrix literal is not unitary (deviation 3.000e+00)", 6, 5),
    ],
)
def test_bad_token_message_line_and_column(text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse_qmux(text, source="case.qmux")
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"case.qmux:{line}:{column}: {message}"


@pytest.mark.parametrize(
    "text,got,line",
    [
        ("controls: 2\nform: standard\ntargets: I V\n  X\n# a comment\n\n", 3, 4),
        ("controls: 1\nform: standard\ntargets: I I I\n", 3, 3),
        ("controls: 1\nform: standard\ntargets: I\n  I  I\n  # none here\n", 3, 4),
        ("controls: 1\nform: standard\ntargets:\n", 0, None),
    ],
)
def test_token_count_error_message_and_line(text, got, line):
    with pytest.raises(ParseError) as info:
        parse_qmux(text, source="case.qmux")
    assert info.value.line == line and info.value.column is None
    where = f":{line}" if line else ""
    expected = 4 if "controls: 2" in text else 2
    assert str(info.value) == f"case.qmux{where}: expected {expected} gate tokens, got {got}"


def test_each_distinct_token_is_parsed_once(parsed):
    m = generate(6, POOL_FULL, seed=3)
    for text in (dump_qmux(m), dump_qmux_json(m)):
        parsed.clear()
        assert np.array_equal(parse_qmux(text).targets, m.targets)
        assert sorted(parsed) == sorted(set(flat(target_tokens(m))))


def test_token_count_error_names_the_last_token_line():
    text = "controls: 1\nform: standard\ntargets: I\n  I\n  I  # one too many\n\n"
    with pytest.raises(ParseError) as info:
        parse_qmux(text)
    assert info.value.line == 5


@pytest.mark.parametrize(
    "text,needle",
    [
        ("form: standard\ntargets: I\n", "missing 'controls:'"),
        ("controls: 1\ntargets: I I\n", "missing 'form:'"),
        ("controls: 1\nform: standard\n", "missing 'targets:'"),
        ("controls: x\nform: standard\ntargets: I I\n", "bad control count"),
        ("controls: 0\nform: standard\ntargets: I\n", "<qmux>:1: bad control count '0'"),
        ("controls: -2\nform: standard\ntargets: I\n", "<qmux>:1: bad control count '-2'"),
        ("controls: 1\nform: diagonal\ntargets: I I\n", "bad form"),
        ("controls: 1\nform: standard\ntargets: I I I\n", "expected 2 gate tokens"),
        ("controls: 1\nshape: round\ntargets: I I\n", "unknown field"),
        ("controls: 2\nform: standard\ncontrols: 1\ntargets: I X\n",
         "<qmux>:3: repeated field 'controls'"),
        ("controls: 1\nform: standard\nform: kqf:1\ntargets: I X\n",
         "<qmux>:3: repeated field 'form'"),
        (
            '{"controls": 1, "form": "standard", "targets": ["I", "X"], "contorls": 5}',
            "<qmux>: unknown field 'contorls'",
        ),
        (
            '{"controls": 2, "form": "standard", "controls": 1, "targets": ["I", "X"]}',
            "<qmux>: repeated field 'controls'",
        ),
        ("controls 1\nform: standard\ntargets: I I\n", "expected 'key: value'"),
        ('{"controls": 1, "form": "standard"}', "bad JSON multiplexer"),
        (
            '{"controls": 2, "form": "standard", "targets": "IVVX"}',
            "bad JSON multiplexer: targets is not a list of strings",
        ),
        (
            '{"controls": 2.9, "form": "standard", "targets": ["I", "V", "V", "X"]}',
            "bad JSON multiplexer: controls 2.9 is not an int",
        ),
        (
            '{"controls": true, "form": "standard", "targets": ["I", "X"]}',
            "bad JSON multiplexer: controls True is not an int",
        ),
        ("{not json", "bad JSON"),
    ],
)
def test_parse_rejects_malformed_input(text, needle):
    with pytest.raises(ParseError) as info:
        parse_qmux(text)
    assert needle in str(info.value)


def test_a_json_count_past_the_int_digit_limit_names_the_file():
    # json.loads refuses an int of more than 4,300 digits with a bare ValueError.
    text = '{"controls": 1' + "0" * 5000 + ', "form": "standard", "targets": ["I", "X"]}'
    with pytest.raises(ParseError) as info:
        parse_qmux(text, "big.json")
    assert str(info.value).startswith("big.json: bad JSON: ")
    assert "4300" in str(info.value)


@pytest.mark.parametrize("text, message", [
    ('{"controls": 1, "form": "standard", "targets": ["I", "X"], "x": 5}',
     "m.json: unknown field 'x'"),
    ('{"controls": 1, "form": "standard", "targets": [{"form": 1}, "X"], "form": 2}',
     "m.json: repeated field 'form'"),
])
def test_a_header_refusal_from_inside_json_loads_is_not_rewrapped(text, message):
    """The header hook refuses a key while json.loads reads it; its
    ParseError is a ValueError too, and passes json.loads's handlers as it
    is, not wrapped in a second `bad JSON:` prefix."""
    with pytest.raises(ParseError) as info:
        parse_qmux(text, "m.json")
    assert str(info.value) == message


def test_parse_rejects_non_unitary_literal():
    text = "controls: 1\nform: standard\ntargets: I M(1,0,0,0,0,0,2,0)\n"
    with pytest.raises(ParseError) as info:
        parse_qmux(text)
    assert "not unitary" in str(info.value)


def test_target_tokens_match_per_gate_render():
    rng = np.random.default_rng(17)
    targets = [
        *gates.CATALOG.values(),
        np.exp(5e-10j) * gates.X,  # within EPS of X: renders as X
        np.exp(-5e-10j) * gates.VD,
        np.exp(2e-9j) * gates.H,  # just past EPS: a literal
        -gates.rz(0.3),  # -0.0 off-diagonal entries
        np.array([[-0.0, 1], [1, -0.0]], dtype=complex),  # X with -0.0
        gates.rx(1.1),
        gates.ry(-0.7),
        *(oracle.random_unitary(rng) for _ in range(18)),
    ]
    m = Multiplexer(5, np.stack(targets))
    tokens = flat(target_tokens(m))
    assert tokens == [oracle.render_gate(u) for u in m.targets]
    assert tokens[:9] == list(gates.CATALOG) + ["X", "VD"]
    assert tokens[9].startswith("M(") and "-0.0" in tokens[10]


@pytest.mark.parametrize("chunk", [1, 3, kernels.CHUNK_ROWS])
def test_target_tokens_in_any_chunking_equal_the_per_gate_render(monkeypatch, chunk):
    """With chunks of 1, 3 and the default: runs of one literal longer than
    a chunk (a boundary inside a run of duplicate floats), catalog rows
    between them, signed zeros next to their negation, and entries just
    inside and outside the catalog tolerance, from a plain target array
    and from a palette."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
    literal = gates.rx(0.3)
    signed = np.array([[-0.0, np.exp(0.2j)], [np.exp(0.2j), 0.0]])
    near = [np.exp(9e-10j) * gates.X, np.exp(1.6e-9j) * gates.V]  # |V| entries are 2^-0.5
    stack = np.stack(
        [literal] * 5 + [gates.H, gates.X] + [signed, -signed] * 3 + near + [gates.I]
        + [literal] * 16
    )
    plain = [oracle.render_gate(u) for u in stack]
    for targets in (stack, Palette(stack, np.arange(32, dtype=np.uint8))):
        tokens = flat(target_tokens(Multiplexer(5, targets)))
        assert tokens == plain
        assert tokens[5:7] == ["H", "X"] and tokens[15] == "I"
        assert tokens[13] == "X" and tokens[14].startswith("M(")
        assert "-0.0" in tokens[7] and tokens[7] != tokens[8]


def test_realized_multiplexer_round_trips_with_its_inverters():
    # The file format has no inverters: writing must fold them back into
    # negative digits, or the reloaded form realizes another operator.
    std = generate(3, POOL_FULL, seed=1)
    realized = negative_control_realization(forward_transform(std, "010"))
    assert realized.polarity == "111" and realized.inverted_lines == (1, 3)
    for text in (dump_qmux(realized), dump_qmux_json(realized)):
        again = parse_qmux(text)
        assert again.polarity == "010"
        assert max_semantic_deviation(std, again) <= 1e-9


@pytest.mark.parametrize(
    "text",
    [
        "controls: 3\nform: fpqf:012\ntargets: I I I I I I I I\n",
        '{"controls": 3, "form": "fpqf:012", "targets": ["I", "I", "I", "I", "I", "I", "I", "I"]}',
    ],
)
def test_fpqf_form_with_a_mixed_digit_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_qmux(text)


@pytest.mark.parametrize("controls", [100000, 10**6])
def test_an_unmatchable_control_count_is_refused_with_its_line(controls):
    """No token list matches 2^63 or more tokens, so the count is refused
    before 1 << controls is built (at 10^6 a 125 KB integer whose decimal
    text Python refuses to make)."""
    text = f"# header\ncontrols: {controls}\nform: standard\ntargets: I X\n"
    with pytest.raises(ParseError) as info:
        parse_qmux(text, source="big.qmux")
    assert str(info.value) == (
        f"big.qmux:2: {controls} controls need 2^{controls} gate tokens, got 2"
    )


@pytest.mark.parametrize("controls", [100000, 10**6])
def test_an_unmatchable_control_count_is_refused_in_json(controls):
    text = f'{{"controls": {controls}, "form": "standard", "targets": ["I", "X", "V"]}}'
    with pytest.raises(ParseError) as info:
        parse_qmux(text, source="big.json")
    assert str(info.value) == (
        f"big.json: {controls} controls need 2^{controls} gate tokens, got 3"
    )


@pytest.mark.parametrize("targets", [["I", "X", "V"], ["I", "X", "V", "X", "I"]])
def test_a_wrong_count_json_mirror_says_what_the_text_loader_says(targets):
    text = json.dumps({"controls": 2, "form": "standard", "targets": targets})
    with pytest.raises(ParseError) as info:
        parse_qmux(text, source="short.json")
    assert str(info.value) == f"short.json: expected 4 gate tokens, got {len(targets)}"


# Distinct rotations, so a loader that parsed first would parse each.
ROTATIONS = [f"RX({k})" for k in range(1, 101)]


def test_a_wrong_count_json_mirror_is_refused_before_its_tokens_parse(parsed):
    text = json.dumps({"controls": 2, "form": "standard", "targets": ROTATIONS})
    with pytest.raises(ParseError, match="expected 4 gate tokens, got 100"):
        parse_qmux(text)
    assert parsed == []
    parse_qmux(json.dumps({"controls": 2, "form": "standard", "targets": ROTATIONS[:4]}))
    assert parsed == ROTATIONS[:4]


@pytest.mark.parametrize("chunk", [1, kernels.CHUNK_ROWS])
def test_a_wrong_count_text_file_is_refused_before_its_tokens_parse(monkeypatch, parsed, chunk):
    """The text loader numbers its tokens a batch at a time and parses
    none of them until the count, known only at the end, is right."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
    lines = "".join("\n  " + " ".join(ROTATIONS[i : i + 8]) for i in range(0, 100, 8))
    with pytest.raises(ParseError) as info:
        parse_qmux(f"controls: 2\nform: standard\ntargets:{lines}\n", source="long.qmux")
    assert str(info.value) == "long.qmux:16: expected 4 gate tokens, got 100"
    assert parsed == []


@pytest.mark.parametrize(
    "form,message",
    [
        ("kqf:12", "polarity '12' has 2 digits, expected 1"),
        ("fpqf:2", "fpqf polarity '2' uses digits outside '01'"),
        ("kqf:3", "kqf polarity '3' uses digits outside '012'"),
    ],
)
def test_a_form_that_disagrees_with_the_controls_is_refused_before_its_tokens_parse(
    parsed, form, message
):
    """Both loaders check the form's polarity against the control count
    with the header, the text loader at the form's line."""
    text = f"controls: 1\nform: {form}\ntargets: {ROTATIONS[0]} {ROTATIONS[1]}\n"
    with pytest.raises(ParseError) as info:
        parse_qmux(text, source="form.qmux")
    assert str(info.value) == f"form.qmux:2: {message}"
    mirror = json.dumps({"controls": 1, "form": form, "targets": ROTATIONS[:2]})
    with pytest.raises(ParseError) as info:
        parse_qmux(mirror, source="form.json")
    assert str(info.value) == f"form.json: {message}"
    assert parsed == []


@pytest.mark.parametrize("controls", [0, -3])
def test_a_json_mirror_under_one_control_is_refused_before_its_tokens_parse(parsed, controls):
    """As in the text loader, a control count under 1 is refused with the
    header, before the tokens (here a bad one first) are parsed."""
    text = json.dumps({"controls": controls, "form": "standard", "targets": ["BAD", *ROTATIONS]})
    with pytest.raises(ParseError) as info:
        parse_qmux(text, source="few.json")
    assert str(info.value) == f"few.json: bad control count '{controls}'"
    assert parsed == []


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_batches_keep_the_first_bad_token_and_share_equal_matrices(monkeypatch, chunk, as_json):
    """Tokens are numbered a batch at a time (in text, two tokens a line)
    and parsed after the last batch, in the order they first occur."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)

    def load(tokens):
        if as_json:
            data = {"controls": 3, "form": "standard", "targets": tokens}
            return parse_qmux(json.dumps(data), "f")
        lines = "".join(f"\n  {a} {b}" for a, b in zip(tokens[::2], tokens[1::2]))
        return parse_qmux(f"controls: 3\nform: standard\ntargets:{lines}\n", "f")

    # NOT opens the first batch and X comes in a later one: one matrix.
    # The palette is in byte order: X, V, I.
    m = load(["NOT", "I", "V", "I", "V", "I", "X", "NOT"])
    assert np.array_equal(m.palette.matrices, np.stack([gates.X, gates.V, gates.I]))
    assert m.palette.index.tolist() == [0, 2, 1, 2, 1, 2, 0, 0]
    # BAD, target 5 on line 6, is the first bad token; it neither opens a
    # batch nor sorts first (AAA does), and it comes again after AAA.
    with pytest.raises(ParseError) as info:
        load(["I", "X", "V", "I", "NOT", "BAD", "AAA", "BAD"])
    where = "f: target 5" if as_json else "f:6:7"
    assert str(info.value) == f"{where}: unrecognized gate token 'BAD'"


def test_the_largest_matchable_control_count_keeps_the_count_message():
    below = UNMATCHABLE_CONTROLS - 1
    with pytest.raises(ParseError, match=f"expected {1 << below} gate tokens, got 2"):
        parse_qmux(f"controls: {below}\nform: standard\ntargets: I X\n")
    with pytest.raises(ParseError, match=f"{UNMATCHABLE_CONTROLS} controls need"):
        parse_qmux(f"controls: {UNMATCHABLE_CONTROLS}\nform: standard\ntargets: I X\n")


POOLS = ["full", "custom:X,I,RX(0.3)"]


@pytest.mark.parametrize("pool", POOLS)
@pytest.mark.parametrize("suffix", [".qmux", ".json"])
def test_save_qmux_streams_the_file(tmp_path, pool, suffix):
    """save_qmux at m = 16 peaks (tracemalloc) under 2 MiB: the tokens are
    rendered from a chunk of gathered targets at a time and written a
    batch at a time, so neither the 4 MiB complex vector nor the file's
    text (0.2 to 2.7 MB) is ever held whole."""
    m = generate(16, resolve_pool(pool), seed=3)
    tracemalloc.start()
    try:
        save_qmux(m, tmp_path / f"m16{suffix}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


@pytest.mark.parametrize("pool", POOLS)
def test_generated_files_do_not_depend_on_the_chunk_size(monkeypatch, capsys, tmp_path, pool):
    """generate writes the same .qmux and .json bytes at every
    kernels.CHUNK_ROWS: eight tokens to a targets line, and the JSON
    mirror as json.dumps(..., indent=2) and a newline."""
    m = generate(6, resolve_pool(pool), seed=3)
    tokens = [oracle.render_gate(u) for u in m.targets]
    lines = ["  " + " ".join(tokens[i : i + 8]) + "\n" for i in range(0, 64, 8)]
    want = {
        ".qmux": "controls: 6\nform: standard\ntargets:\n" + "".join(lines),
        ".json": json.dumps({"controls": 6, "form": "standard", "targets": tokens}, indent=2)
        + "\n",
    }
    for chunks in (1, 3, kernels.CHUNK_ROWS):
        monkeypatch.setattr(kernels, "CHUNK_ROWS", chunks)
        for suffix, text in want.items():
            path = tmp_path / f"m6{suffix}"
            argv = ["generate", "--controls", "6", "--pool", pool, "--seed", "3", "--out", path]
            assert main([str(a) for a in argv]) == 0
            assert path.read_text(encoding="utf-8") == text, (chunks, suffix)
    capsys.readouterr()
