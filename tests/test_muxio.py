import numpy as np
import pytest

from qmuxopt import gates
from qmuxopt.errors import ParseError
from qmuxopt.mux import FPQF, KQF, Multiplexer, forward_transform
from qmuxopt.muxio import (
    dump_qmux,
    dump_qmux_json,
    load_qmux,
    parse_qmux,
    save_qmux,
    target_tokens,
)
from qmuxopt.randmux import POOL_FULL, generate


def ivvx_case():
    return Multiplexer(2, np.stack([gates.I, gates.V, gates.V, gates.X]))


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
    assert target_tokens(m) == ["I", "V", "V", "I"]


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
    std = Multiplexer(2, np.stack([gates.random_unitary(rng) for _ in range(4)]))
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


def test_each_distinct_token_is_parsed_once(monkeypatch):
    m = generate(6, POOL_FULL, seed=3)
    calls = []
    real = gates.parse_gate
    monkeypatch.setattr(gates, "parse_gate", lambda token: calls.append(token) or real(token))
    for text in (dump_qmux(m), dump_qmux_json(m)):
        calls.clear()
        parsed = parse_qmux(text)
        assert np.array_equal(parsed.targets, m.targets)
        assert sorted(calls) == sorted(set(target_tokens(m)))


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
        ("controls 1\nform: standard\ntargets: I I\n", "expected 'key: value'"),
        ('{"controls": 1, "form": "standard"}', "bad JSON multiplexer"),
        ("{not json", "bad JSON"),
    ],
)
def test_parse_rejects_malformed_input(text, needle):
    with pytest.raises(ParseError) as info:
        parse_qmux(text)
    assert needle in str(info.value)


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
        *(gates.random_unitary(rng) for _ in range(18)),
    ]
    m = Multiplexer(5, np.stack(targets))
    tokens = target_tokens(m)
    assert tokens == [gates.render_gate(u) for u in m.targets]
    assert tokens[:9] == list(gates.CATALOG) + ["X", "VD"]
    assert tokens[9].startswith("M(") and "-0.0" in tokens[10]
