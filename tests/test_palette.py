"""Palette-indexed multiplexers: every loader gives the distinct matrices
and a one-byte index per gate, and every report, search and check reads
the same as for the same targets passed as a plain (2^m, 2, 2) array."""

import time
import tracemalloc

import numpy as np
import pytest

from qmuxopt import gates, group, kernels, muxio
from qmuxopt.boolrm import BoolFunc
from qmuxopt.cli import main
from qmuxopt.errors import ParseError
from qmuxopt.mux import Multiplexer, Palette, used_palette
from qmuxopt.muxio import parse_qmux, save_qmux
from qmuxopt.pla import to_multiplexer
from qmuxopt.randmux import POOL_FULL, generate, resolve_pool

from oracle import flat


H13 = "M(0.7071067811865,0,0.7071067811865,0,0.7071067811865,0,-0.7071067811865,0)"
NEG_ZERO_X = "M(-0.0,0,1,0,1,0,-0.0,0)"
NEG_ZERO_PHASE = "M(0.6,0.8,-0.0,0,0,0,0.6,-0.8)"


def _write_inputs(tmp_path) -> dict:
    """name -> path of each input the byte-identity test covers."""
    paths = {}
    for name, pool, m in (("full", "full", 5), ("nvv", "nvv", 5), ("rx", "custom:X,I,RX(0.3)", 4)):
        paths[name] = tmp_path / f"{name}.qmux"
        save_qmux(generate(m, resolve_pool(pool), seed=7), paths[name])
    paths["json"] = tmp_path / "full.json"
    save_qmux(generate(4, POOL_FULL, seed=8), paths["json"])
    paths["literal"] = tmp_path / "literal.qmux"
    paths["literal"].write_text(
        f"controls: 3\nform: standard\ntargets: {NEG_ZERO_PHASE} X I\n"
        f"  M(0.6,0.8,0,0,0,0,0.6,-0.8) {NEG_ZERO_PHASE} H V {NEG_ZERO_X}\n"
    )
    paths["not-x"] = tmp_path / "not-x.qmux"
    paths["not-x"].write_text("controls: 3\nform: standard\ntargets: NOT X I NOT V X x I\n")
    return paths


def _plain(m: Multiplexer) -> Multiplexer:
    return Multiplexer(m.controls, m.targets, m.form, m.polarity, m.inverted_lines)


def _reports(capsys, argvs) -> list:
    out = []
    for argv in argvs:
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_reports_are_byte_identical_for_a_palette_and_a_plain_array(
    monkeypatch, capsys, tmp_path
):
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)  # timings differ run to run
    argvs = []
    for path in _write_inputs(tmp_path).values():
        m = muxio.load_qmux(path)
        polarity = "10" + "2" * (m.controls - 2)
        for fmt in ("text", "json", "csv"):
            tail = ["--format", fmt]
            argvs += [
                ["optimize", path, *tail],
                ["optimize", path, "--family", "kqf", *tail],
                ["optimize", path, "--mode", "random", "--samples", "3", *tail],
                ["cost", path, *tail],
                ["verify", path, polarity, *tail],
            ]
    palette_runs = _reports(capsys, argvs)
    real = muxio.load_qmux
    loaded = []

    def load_plain(path):
        m = real(path)
        loaded.append(m.palette.index is not None)
        return _plain(m)

    monkeypatch.setattr(muxio, "load_qmux", load_plain)
    plain_runs = _reports(capsys, argvs)
    assert all(loaded)
    for argv, got, expected in zip(argvs, plain_runs, palette_runs):
        assert expected[0] == 0, argv
        assert got == expected, argv


def test_tokens_of_one_matrix_share_a_palette_entry(tmp_path):
    paths = _write_inputs(tmp_path)
    m = muxio.load_qmux(paths["not-x"])
    assert len(m.palette.matrices) == 3  # NOT, X and x are one matrix
    assert m.palette.index.dtype == np.uint8
    assert m.palette.index.tolist() == [0, 0, 1, 0, 2, 0, 0, 1]
    # -0.0 and 0.0 are different bytes: two palette matrices, and two
    # tokens unless the catalog match within EPS renders both as X.
    literal = muxio.load_qmux(paths["literal"])
    assert len(literal.palette.matrices) == 7
    tokens = flat(muxio.target_tokens(literal))
    assert tokens[0] == tokens[4] == "M(0.6,0.8,-0.0,0.0,0.0,0.0,0.6,-0.8)"
    assert tokens[3] == "M(0.6,0.8,0.0,0.0,0.0,0.0,0.6,-0.8)"
    assert tokens[1] == tokens[7] == "X"


def test_palettes_of_the_generators_hold_only_the_gates_drawn():
    m = generate(1, POOL_FULL, seed=0)
    assert len(m.palette.matrices) == len(set(flat(muxio.target_tokens(m))))
    zero = to_multiplexer(BoolFunc(2, np.zeros(4, np.uint8)))
    assert len(zero.palette.matrices) == 1 and not zero.palette.index.any()
    palette = used_palette(np.stack([gates.X, gates.I, gates.H]), np.array([2, 2, 0, 2]))
    assert np.array_equal(palette.matrices, np.stack([gates.X, gates.H]))
    assert palette.index.tolist() == [1, 1, 0, 1]


def test_a_palette_is_checked_like_the_targets_it_stands_for():
    index = np.array([0, 1, 1, 0], np.uint8)
    with pytest.raises(ValueError, match=r"shape \(2, 2, 2\), got \(4, 2, 2\)"):
        Multiplexer(1, Palette(np.stack([gates.I, gates.X]), index))
    with pytest.raises(ValueError, match="not unitary"):
        Multiplexer(2, Palette(np.stack([gates.I, 2 * gates.X]), index))
    with pytest.raises(ValueError, match="out of range"):
        Multiplexer(2, Palette(np.stack([gates.I]), index))
    with pytest.raises(ValueError, match="unsigned"):
        Multiplexer(2, Palette(np.stack([gates.I, gates.X]), index.astype(float)))


@pytest.mark.parametrize("m,accepted", [(11, True), (12, False)])
def test_intern_on_the_palette_declines_exactly_where_the_gate_vector_does(m, accepted):
    h = gates.parse_gate(H13)
    std = Multiplexer(m, used_palette(np.stack([h, gates.I]), np.arange(1 << m) % 2))
    on_palette = group.intern(std.palette.matrices, std.num_targets)
    on_targets = group.intern(std.targets, std.num_targets)
    assert (on_palette is not None) == (on_targets is not None) == accepted
    if accepted:
        assert np.array_equal(std.palette.per_gate(on_palette[1]), on_targets[1])
    # The count, not the palette's length, sets the depth: as a two-gate
    # cascade the same palette is accepted.
    assert group.intern(std.palette.matrices, 2) is not None


@pytest.mark.parametrize("pool", ["custom:RZ(0.024448),I", "custom:X,RX(0.3)"])
def test_intern_on_the_palette_declines_a_pool_past_256_elements(pool):
    std = generate(6, resolve_pool(pool), seed=1)
    assert group.intern(std.palette.matrices, std.num_targets) is None
    assert group.intern(std.targets, std.num_targets) is None


def _targets_text(tokens: list, per_line: int = 8) -> str:
    lines = [" ".join(tokens[i : i + per_line]) for i in range(0, len(tokens), per_line)]
    return "\n".join(lines) + "\n"


def test_a_bad_token_past_the_first_batch_keeps_its_line_and_column():
    tokens = ["I"] * (1 << 13)
    tokens[kernels.CHUNK_ROWS + 13] = "BAD"  # line 3 + 4096 / 8 + 1, the sixth token
    tokens[kernels.CHUNK_ROWS + 20] = "WORSE"
    text = "controls: 13\nform: standard\ntargets:\n" + _targets_text(tokens)
    with pytest.raises(ParseError) as info:
        parse_qmux(text, source="big.qmux")
    line = 3 + (kernels.CHUNK_ROWS + 13) // 8 + 1
    assert str(info.value) == f"big.qmux:{line}:11: unrecognized gate token 'BAD'"


def test_a_token_count_mismatch_is_reported_before_a_bad_token():
    tokens = ["BAD"] + ["X"] * (kernels.CHUNK_ROWS + 2)
    text = "controls: 12\nform: standard\ntargets:\n" + _targets_text(tokens)
    with pytest.raises(ParseError) as info:
        parse_qmux(text, source="big.qmux")
    last = 3 + (len(tokens) + 7) // 8
    assert str(info.value) == f"big.qmux:{last}: expected 4096 gate tokens, got 4099"


def test_a_bad_token_in_the_json_mirror_past_the_first_batch_is_named_by_number():
    tokens = ["X"] * (1 << 13)
    tokens[kernels.CHUNK_ROWS + 5] = "RQ(1)"
    text = '{"controls": 13, "form": "standard", "targets": [%s]}' % ", ".join(
        f'"{t}"' for t in tokens
    )
    with pytest.raises(ParseError) as info:
        parse_qmux(text, source="big.json")
    assert str(info.value) == (
        f"big.json: target {kernels.CHUNK_ROWS + 5}: unrecognized gate token 'RQ(1)'"
    )


def test_a_random_csv_run_on_an_interned_input_never_builds_the_complex_vector(tmp_path):
    """The palette is interned and the search runs on IDs, and a CSV report
    holds no targets: the peak (tracemalloc) stays below one 2^m x 64 B
    vector, which the whole run never builds."""
    m = 16
    path = tmp_path / "m16.qmux"
    save_qmux(generate(m, POOL_FULL, seed=3), path)
    argv = ["optimize", str(path), "--mode", "random", "--samples", "2", "--seed", "3",
            "--format", "csv", "--out", str(tmp_path / "report.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << m) * 64


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "{path}", "--format", "csv"],
        ["cost", "{path}", "--format", "text"],
        ["classical", "0x6996966996696996", "--format", "csv"],
        ["classical", "0x6996966996696996", "--format", "text"],
        ["optimize", "{path}", "--format", "text"],
        ["optimize", "{path}", "--mode", "random", "--samples", "3", "--format", "text"],
        ["verify", "{path}", "012012", "--format", "text"],
        ["verify", "{path}", "012012", "--format", "csv"],
    ],
)
def test_line_reports_are_the_same_bytes_in_any_batch_size(monkeypatch, capsys, tmp_path, argv):
    """Every piece of a text or CSV report, the optimize report's target
    line a list of tokens at a time, goes through jsonout.write in writes
    bounded by kernels.CHUNK_ROWS; the bytes do not depend on the batch
    size."""
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    path = tmp_path / "m6.qmux"
    save_qmux(generate(6, POOL_FULL, seed=2), path)
    argv = [a.format(path=path) for a in argv]
    expected = _reports(capsys, [argv])
    for chunk in (1, 3):
        monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
        assert _reports(capsys, [argv]) == expected, chunk
    out = expected[0][1]
    assert out.count("\n") > (6 if argv[0] == "verify" else 10)
    if argv[0] == "optimize":
        lines = out.splitlines()
        targets = lines[lines.index("transformed targets (best polarity):") + 1]
        assert targets.startswith("  ") and targets[2] != " "
        assert len(targets.split()) == 64


def test_a_text_optimize_report_peaks_with_the_json_one(tmp_path):
    """The text report streams its target line a list of tokens at a
    time, as the JSON report streams its target list: their traced peaks
    (tracemalloc) lie within 1 MiB, where joining the 2^m tokens into one
    line took 3 times the JSON peak."""

    def argv(path, fmt):
        return ["optimize", str(path), "--mode", "random", "--samples", "1", "--seed", "3",
                "--format", fmt, "--out", str(tmp_path / f"report.{fmt}")]

    small, path = tmp_path / "m3.qmux", tmp_path / "m16.qmux"
    save_qmux(generate(3, POOL_FULL, seed=3), small)
    save_qmux(generate(16, POOL_FULL, seed=3), path)
    for fmt in ("text", "json"):  # a first run's one-time allocations are about 0.9 MiB
        assert main(argv(small, fmt)) == 0
    peaks = {}
    for fmt in ("text", "json"):
        tracemalloc.start()
        try:
            assert main(argv(path, fmt)) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks["text"] - peaks["json"]) <= 1 << 20, peaks
