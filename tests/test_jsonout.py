"""The streaming report writer against json.dumps(body, indent=2), byte for byte."""

import io
import itertools
import json
import time

import numpy as np
import pytest

from qmuxopt import gates, jsonout, kernels, randmux
from qmuxopt.cli import main
from qmuxopt.jsonout import Table, write_json
from qmuxopt.mux import Multiplexer
from qmuxopt.muxio import save_qmux, target_tokens

import oracle


def _plain(value):
    """value with every Table replaced by its list of row dicts."""
    if isinstance(value, Table):
        rows = []
        for batch in value.batches:
            columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in batch]
            rows += [dict(zip(value.keys, row)) for row in zip(*columns)]
        return rows
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _written(value) -> str:
    buffer = io.StringIO()
    write_json(buffer, value)
    return buffer.getvalue()


BODIES = {
    "scalars": {"a": 1, "b": -2.5e-300, "c": None, "d": True, "e": "téxt\n\"q\"", "f": 0.1},
    "empty containers": {"dict": {}, "list": [], "table": Table(("k",), [([],)]), "nested": [[]]},
    "one-row table": {"t": Table(("polarity", "cost"), [(["0%d1"], [7])])},
    "table": Table(("gate_index", "controls", "cost"), [([0, 5, 9], [1, 2, 10], [1, 5, 224])]),
    "array table": {
        "empty": Table(("k",), [(np.array([], dtype=np.int64),)]),
        "rows": Table(
            ("gate_index", "p", "cost"),
            [(np.arange(7, dtype=np.int64) * 5000, list("abcdefg"), np.full(7, 448))],
        ),
    },
    "string lists": {"one": ["M(0.0,-0.0)"], "many": ["I", "X\\", "π", ""]},
    "mixed list": {"mixed": ["a", 1, {"b": [2.0, "c"]}], "numbers": [1, 2]},
    "deep": {"a": {"b": {"c": {"d": ["x", "y"], "t": Table(("%s", "v"), [(["p"], [3])])}}}},
    "batched tables": {
        "none": Table(("k",), batches=[]),
        "empty": Table(("k", "v"), batches=[([], []), (np.array([], dtype=np.int64), [])]),
        "rows": Table(
            ("gate_index", "controls", "cost"),
            batches=[
                (np.array([], dtype=np.int64),) * 3,
                (np.arange(5, dtype=np.int64), np.full(5, 3), np.full(5, 13)),
                (np.array([], dtype=np.int64),) * 3,
                (np.array([9, 11]), np.array([1, 20]), np.array([1, 544])),
            ],
        ),
        "text": Table(("polarity", "cost"), batches=[(["0%d1", "π\\"], [7, 8]), (["2"], [0])]),
    },
    "bare list": ["only", "strings"],
    "bare scalar": 3.25,
}


@pytest.mark.parametrize("chunks", [1, 2, 4096])
@pytest.mark.parametrize("name", sorted(BODIES))
def test_write_json_equals_json_dumps(monkeypatch, name, chunks):
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunks)
    body = BODIES[name]
    assert _written(body) == json.dumps(_plain(body), indent=2)


@pytest.mark.parametrize("chunks", [1, 2, 4096])
def test_a_table_of_one_shot_batches_is_read_as_it_is_written(monkeypatch, chunks):
    """A Table's batches may be a one-shot generator: the writer reads it
    once, in order, and the text is that of its rows' list."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunks)
    made = []

    def batches():
        for start in range(0, 11, 4):
            made.append(start)
            yield np.arange(start, min(start + 4, 11)), ["x"] * min(4, 11 - start)

    stream = _Writes()
    write_json(stream, {"t": Table(("i", "s"), batches=batches()), "after": 1})
    rows = [{"i": i, "s": "x"} for i in range(11)]
    assert "".join(stream.writes) == json.dumps({"t": rows, "after": 1}, indent=2)
    assert made == [0, 4, 8]


def _rand_file(tmp_path, m):
    rng = np.random.default_rng(m)
    targets = oracle.random_unitaries(rng, 1 << m)
    targets[1] = gates.I
    path = tmp_path / f"rand{m}.qmux"
    save_qmux(Multiplexer(m, targets), path)
    return path


def _identity_file(tmp_path):
    path = tmp_path / "ident.qmux"
    save_qmux(Multiplexer(3, np.tile(gates.I, (8, 1, 1))), path)
    return path


def _one_gate_file(tmp_path):
    targets = np.tile(gates.I, (4, 1, 1))
    targets[2] = gates.H
    path = tmp_path / "one.qmux"
    save_qmux(Multiplexer(2, targets), path)
    return path


@pytest.mark.parametrize("chunks", [1, 2, 4096])
def test_cli_json_reports_equal_json_dumps(monkeypatch, capsys, tmp_path, chunks):
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunks)
    rand = _rand_file(tmp_path, 4)
    # (arguments, the key path of a list in the report, its length)
    commands = [
        (["classical", "0x6F", "--top", "0"], ("ranked",), 0),
        (["classical", "0x6F", "--top", "1"], ("ranked",), 1),
        (["classical", "0x6F", "--family", "krm"], ("ranked",), 27),
        (["cost", _identity_file(tmp_path)], ("cost_report", "per_gate"), 0),
        (["cost", _one_gate_file(tmp_path)], ("cost_report", "per_gate"), 1),
        (["cost", rand], ("cost_report", "per_gate"), 15),
        (["optimize", rand, "--family", "kqf"], ("best_targets",), 16),
        (["optimize", _identity_file(tmp_path)], ("best_cost_report", "per_gate"), 0),
        (["verify", rand, "0120"], ("manifest", "inputs"), 1),
    ]
    for argv, path, length in commands:
        assert main([str(a) for a in argv] + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        body = json.loads(out)
        assert out == json.dumps(body, indent=2) + "\n"
        for key in path:
            body = body[key]
        assert len(body) == length, argv


class _RecordingStream:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))


def test_largest_write_is_bounded(monkeypatch, capsys, tmp_path):
    """A report goes out in writes bounded by characters, never as one
    string: the guard on the peak memory of large reports."""
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)  # timings differ run to run
    path = _rand_file(tmp_path, 8)  # 255 literals of about 150 bytes
    argv = ["optimize", str(path), "--format", "json"]
    assert main(argv) == 0
    total = len(capsys.readouterr().out)
    monkeypatch.setattr(kernels, "CHUNK_ROWS", 8)
    stream = _RecordingStream()
    monkeypatch.setattr("sys.stdout", stream)
    assert main(argv) == 0
    assert sum(stream.writes) == total
    assert max(stream.writes) <= 8 * 200 < total // 20


def _pieces_and_writes(monkeypatch, argv) -> tuple:
    """Lengths of the pieces one CLI run hands jsonout.write, and of the
    writes it makes of them."""
    pieces, stream = [], _RecordingStream()
    real = jsonout.write

    def recorded(fh, parts):
        def tee():
            for part in parts:
                pieces.append(len(part))
                yield part

        real(stream, tee())

    monkeypatch.setattr(jsonout, "write", recorded)
    assert main([str(a) for a in argv]) == 0
    monkeypatch.setattr(jsonout, "write", real)
    return pieces, stream.writes


def test_every_write_is_bounded_by_characters(monkeypatch, tmp_path):
    """No write is longer than the character bound, or than its one piece
    when that piece alone is longer, even where each piece is a batch of
    kernels.CHUNK_ROWS table rows, which CHUNK_ROWS pieces to a write
    would join into CHUNK_ROWS^2 rows."""
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    monkeypatch.setattr(kernels, "CHUNK_ROWS", 16)
    bound = 16 * jsonout.WRITE_CHARS_PER_ROW
    rand = _rand_file(tmp_path, 8)
    full = tmp_path / "full10.qmux"
    save_qmux(randmux.generate(10, randmux.POOL_FULL, 3), full)
    for argv in (
        ["optimize", rand, "--format", "json"],
        ["optimize", rand, "--format", "text"],
        ["cost", full, "--format", "csv"],
        ["classical", "0x" + "6f" * 8, "--family", "krm", "--format", "json"],
    ):
        pieces, writes = _pieces_and_writes(monkeypatch, argv)
        assert sum(writes) == sum(pieces) > 8 * bound, argv
        assert max(writes) <= max(bound, max(pieces)), argv


def test_gate_tokens_reach_write_a_list_a_piece(monkeypatch, tmp_path):
    """The tokens of an m = 12 full-pool optimize report, JSON and text,
    and of the .qmux file and JSON mirror that save_qmux writes (through
    generate) reach jsonout.write one list of gates.sub_batch_rows()
    tokens a piece: the 4,096 tokens take 4,096 / sub_batch_rows() pieces,
    and the rest of each output at most 80 more (68 in the JSON report),
    where a piece per token made more than 4,096."""
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    path = tmp_path / "full12.qmux"
    save_qmux(randmux.generate(12, randmux.POOL_FULL, 3), path)
    most = (1 << 12) // gates.sub_batch_rows() + 80
    for argv in (
        ["generate", "--controls", "12", "--seed", "3", "--out", tmp_path / "again.qmux"],
        ["generate", "--controls", "12", "--seed", "3", "--out", tmp_path / "again.json"],
        ["optimize", path, "--format", "json"],
        ["optimize", path, "--format", "text"],
    ):
        pieces, _ = _pieces_and_writes(monkeypatch, argv)
        assert len(pieces) <= most, (argv, len(pieces))


class _Writes:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def _token_stack(count):
    rng = np.random.default_rng(70 + count)
    pool = [gates.X, gates.H, gates.rx(0.3), -gates.rz(0.2), oracle.random_unitary(rng)]
    return np.array([pool[i % len(pool)] for i in range(count)]).reshape(count, 2, 2)


@pytest.mark.parametrize("chunks", [1, 2, 4096])
@pytest.mark.parametrize("count", [0, 1, 37])
def test_streamed_tokens_equal_json_dumps(monkeypatch, chunks, count):
    """An iterator of token lists, rendered kernels.CHUNK_ROWS at a time,
    writes the bytes of json.dumps of its tokens' list, alone and inside a
    report, with no write longer than the character bound or than its one
    piece."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunks)
    stack = _token_stack(count)

    def tokens():
        pieces = (stack[start : start + chunks] for start in range(0, count, chunks))
        return itertools.chain.from_iterable(map(gates.render_gates, pieces))

    plain = [oracle.render_gate(u) for u in stack]
    assert [token for batch in tokens() for token in batch] == plain
    pieces, real = [], jsonout.write
    monkeypatch.setattr(
        jsonout, "write", lambda fh, parts: real(fh, (pieces.append(p) or p for p in parts))
    )
    report = {"search": {"best": "1"}, "best_targets": tokens(), "n": count}
    for body, want in ((tokens(), plain), (report, {**report, "best_targets": plain})):
        stream = _Writes()
        pieces.clear()
        write_json(stream, body)
        assert "".join(stream.writes) == json.dumps(want, indent=2)
        bound = chunks * jsonout.WRITE_CHARS_PER_ROW
        assert max(map(len, stream.writes)) <= max(bound, *map(len, pieces))


@pytest.mark.parametrize("chunks", [1, 3, 4096])
def test_write_joins_pieces_up_to_the_character_bound(monkeypatch, chunks):
    """jsonout.write joins pieces while their characters fit the bound,
    kernels.CHUNK_ROWS * WRITE_CHARS_PER_ROW, writes a longer piece alone,
    and a run of empty pieces does not end a write early."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunks)
    pieces = ["a" * 5, "", "", "b" * 6, "c" * 20, "", "d" * 17, "e"] * 3
    stream = _Writes()
    jsonout.write(stream, iter(pieces))
    assert "".join(stream.writes) == "".join(pieces)
    expected = {1: [11, 20, 17, 12, 20, 17, 12, 20, 17, 1], 3: [48, 32, 29, 38], 4096: [147]}
    assert list(map(len, stream.writes)) == expected[chunks]


def test_target_tokens_render_only_when_written(monkeypatch):
    """target_tokens renders nothing when called, and each chunk of
    kernels.CHUNK_ROWS gates only when its first list of tokens is
    consumed."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", 3)
    m = Multiplexer(3, np.stack([gates.rx(0.1 * k) for k in range(8)]))
    made = []
    real = gates.render_gates
    monkeypatch.setattr(gates, "render_gates", lambda us: made.append(len(us)) or real(us))
    tokens = target_tokens(m)
    assert made == []
    plain = [oracle.render_gate(u) for u in m.targets]
    assert next(tokens) == plain[:1] and made == [3]
    assert _written({"t": tokens}) == json.dumps({"t": plain[1:]}, indent=2)
    assert made == [3, 3, 2]


@pytest.mark.parametrize("chunks", [1, 3, 4096])
def test_a_palette_is_rendered_once(monkeypatch, chunks):
    """target_tokens renders a palette's matrices in one call, made with the
    first chunk, and indexes their tokens: the same tokens as rendering
    every gate."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunks)
    m = randmux.generate(6, randmux.resolve_pool("custom:X,RX(0.3),H,I"), seed=5)
    plain = [oracle.render_gate(u) for u in m.targets]
    made = []
    real = gates.render_gates
    monkeypatch.setattr(gates, "render_gates", lambda us: made.append(len(us)) or real(us))
    tokens = target_tokens(m)
    assert made == []
    assert [token for batch in tokens for token in batch] == plain
    assert made == [len(m.palette.matrices)] == [4]
