"""The streaming report writer against json.dumps(body, indent=2), byte for byte."""

import io
import json
import time

import numpy as np
import pytest

from qmuxopt import gates, jsonout, kernels, reference
from qmuxopt.cli import main
from qmuxopt.jsonout import Table, write_json
from qmuxopt.mux import Multiplexer
from qmuxopt.muxio import save_qmux, target_tokens


def _plain(value):
    """value with every Table replaced by its list of row dicts."""
    if isinstance(value, Table):
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in value.columns]
        return [dict(zip(value.keys, row)) for row in zip(*columns)]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _written(value) -> str:
    buffer = io.StringIO()
    write_json(buffer, value)
    return buffer.getvalue()


BODIES = {
    "scalars": {"a": 1, "b": -2.5e-300, "c": None, "d": True, "e": "téxt\n\"q\"", "f": 0.1},
    "empty containers": {"dict": {}, "list": [], "table": Table(("k",), ([],)), "nested": [[]]},
    "one-row table": {"t": Table(("polarity", "cost"), (["0%d1"], [7]))},
    "table": Table(("gate_index", "controls", "cost"), ([0, 5, 9], [1, 2, 10], [1, 5, 224])),
    "array table": {
        "empty": Table(("k",), (np.array([], dtype=np.int64),)),
        "rows": Table(
            ("gate_index", "p", "cost"),
            (np.arange(7, dtype=np.int64) * 5000, list("abcdefg"), np.full(7, 448)),
        ),
    },
    "string lists": {"one": ["M(0.0,-0.0)"], "many": ["I", "X\\", "π", ""]},
    "mixed list": {"mixed": ["a", 1, {"b": [2.0, "c"]}], "numbers": [1, 2]},
    "deep": {"a": {"b": {"c": {"d": ["x", "y"], "t": Table(("%s", "v"), (["p"], [3]))}}}},
    "bare list": ["only", "strings"],
    "bare scalar": 3.25,
}


@pytest.mark.parametrize("chunks", [1, 2, 4096])
@pytest.mark.parametrize("name", sorted(BODIES))
def test_write_json_equals_json_dumps(monkeypatch, name, chunks):
    monkeypatch.setattr(jsonout, "JSON_CHUNKS_PER_WRITE", chunks)
    body = BODIES[name]
    assert _written(body) == json.dumps(_plain(body), indent=2)


def _rand_file(tmp_path, m):
    rng = np.random.default_rng(m)
    targets = np.stack([reference.random_unitary(rng) for _ in range(1 << m)])
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
    monkeypatch.setattr(jsonout, "JSON_CHUNKS_PER_WRITE", chunks)
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
    """A report goes out in writes of at most JSON_CHUNKS_PER_WRITE items,
    never as one string: the guard on the peak memory of large reports."""
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)  # timings differ run to run
    path = _rand_file(tmp_path, 8)  # 255 literals of about 150 bytes
    argv = ["optimize", str(path), "--format", "json"]
    assert main(argv) == 0
    total = len(capsys.readouterr().out)
    monkeypatch.setattr(jsonout, "JSON_CHUNKS_PER_WRITE", 8)
    stream = _RecordingStream()
    monkeypatch.setattr("sys.stdout", stream)
    assert main(argv) == 0
    assert sum(stream.writes) == total
    assert max(stream.writes) <= 8 * 200 < total // 20


class _Writes:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def _token_stack(count):
    rng = np.random.default_rng(70 + count)
    pool = [gates.X, gates.H, gates.rx(0.3), -gates.rz(0.2), reference.random_unitary(rng)]
    return np.array([pool[i % len(pool)] for i in range(count)]).reshape(count, 2, 2)


@pytest.mark.parametrize("chunks", [1, 2, 4096])
@pytest.mark.parametrize("count", [0, 1, 37])
def test_streamed_tokens_equal_json_dumps(monkeypatch, chunks, count):
    """A Chunked token sequence, made three tokens at a time, writes the
    bytes of json.dumps of its list, alone and inside a report, with no
    write holding more than JSON_CHUNKS_PER_WRITE items."""
    monkeypatch.setattr(jsonout, "JSON_CHUNKS_PER_WRITE", chunks)
    monkeypatch.setattr(kernels, "CHUNK_ROWS", 3)
    stack = _token_stack(count)
    tokens = jsonout.Chunked(lambda: gates.render_gates(stack))
    plain = [reference.render_gate(u) for u in stack]
    assert list(tokens) == plain
    report = {"search": {"best": "1"}, "best_targets": tokens, "n": count}
    for body, want in ((tokens, plain), (report, {**report, "best_targets": plain})):
        stream = _Writes()
        write_json(stream, body)
        assert "".join(stream.writes) == json.dumps(want, indent=2)
        # Each item of a container after the first starts its own line.
        assert max(text.count("\n") for text in stream.writes) <= chunks


def test_target_tokens_render_only_when_written(monkeypatch):
    m = Multiplexer(3, np.stack([gates.rx(0.1 * k) for k in range(8)]))
    made = []
    real = gates.render_gates
    monkeypatch.setattr(gates, "render_gates", lambda us: made.append(len(us)) or real(us))
    tokens = target_tokens(m)
    assert made == []
    assert _written({"t": tokens}) == json.dumps({"t": list(tokens)}, indent=2)
    assert made == [8, 8]
