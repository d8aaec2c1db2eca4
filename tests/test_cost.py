import io
import json

import numpy as np
import pytest

from qmuxopt import gates, kernels
from qmuxopt.cost import (
    GATE_COST_TABLE,
    control_count_vector,
    gate_cost,
    multiplexer_cost,
)
from qmuxopt.jsonout import write_json
from qmuxopt.mux import (
    FPQF,
    Multiplexer,
    Palette,
    forward_transform,
    negative_control_realization,
)

import oracle
from oracle import control_count, ivvx_case


def test_gate_cost_table_values():
    assert [gate_cost(c) for c in range(10)] == [1, 1, 5, 13, 29, 52, 84, 116, 154, 192]


def test_gate_cost_formula_beyond_table():
    for m in range(10, 16):
        assert gate_cost(m) == 32 * m - 96
    assert gate_cost(12) == 288


def test_table_meets_formula_at_nine_controls():
    assert GATE_COST_TABLE[9] == 32 * 9 - 96 == 192


def test_gate_cost_nondecreasing():
    values = [gate_cost(c) for c in range(30)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_gate_cost_rejects_negative():
    with pytest.raises(ValueError):
        gate_cost(-1)


def test_control_count_fixed_digits():
    assert control_count(2, "11") == 1     # only the high bit is set
    assert control_count(0, "11") == 0     # unconditioned gate
    assert control_count(3, "11") == 2
    assert control_count(2, "10") == 1     # negative digits still count by bit
    assert control_count(1, "10") == 1


def test_control_count_mixed_digits_always_count():
    assert control_count(0, "22") == 2
    assert control_count(3, "22") == 2
    assert control_count(0, "21") == 1


def test_control_count_vector_matches_scalar():
    for polarity in ("11", "10", "22", "021", "212"):
        vec = control_count_vector(polarity)
        for i in range(1 << len(polarity)):
            assert vec[i] == control_count(i, polarity)


def test_standard_multiplexer_cost():
    std = ivvx_case()
    report = multiplexer_cost(std)
    assert report.total == 15  # three 2-control gates at 5 each
    assert report.skipped_identities == 1
    assert [gate for gate, _, _ in report.rows()] == [1, 2, 3]


def test_polarized_multiplexer_cost():
    g = Multiplexer(2, np.stack([gates.I, gates.V, gates.V, gates.I]), FPQF, "11")
    report = multiplexer_cost(g)
    assert report.total == 2
    assert report.skipped_identities == 2
    assert list(report.rows()) == [
        (1, 1, 1),
        (2, 1, 1),
    ]


def test_all_identity_multiplexer_is_free():
    std = Multiplexer(2, np.stack([gates.I] * 4))
    report = multiplexer_cost(std)
    assert report.total == 0
    assert report.skipped_identities == 4


def test_standard_cost_is_count_times_gate_cost():
    rng = np.random.default_rng(110)
    for m in (1, 2, 3, 4):
        targets = np.stack(
            [gates.I if rng.random() < 0.3 else oracle.random_unitary(rng)
             for _ in range(1 << m)]
        )
        std = Multiplexer(m, targets)
        non_identity = sum(
            1 for t in targets if np.abs(t - np.eye(2)).max() > 1e-9
        )
        assert multiplexer_cost(std).total == non_identity * gate_cost(m)


def test_phase_times_identity_is_not_free():
    phased = np.exp(0.3j) * gates.I
    std = Multiplexer(1, np.stack([phased, gates.X]))
    report = multiplexer_cost(std)
    assert report.skipped_identities == 0
    assert report.total == 2 * gate_cost(1)


def test_numerically_exact_identity_is_skipped():
    # X V† V† multiplies out to the identity in floating point
    product = gates.X @ gates.VD @ gates.VD
    std = Multiplexer(1, np.stack([product, gates.X]))
    assert multiplexer_cost(std).skipped_identities == 1


def test_cost_invariant_under_inverter_realization():
    rng = np.random.default_rng(111)
    std = Multiplexer(3, oracle.random_unitaries(rng, 8))
    for polarity in ("010", "001", "020"):
        g = forward_transform(std, polarity)
        realized = negative_control_realization(g)
        assert multiplexer_cost(realized).total == multiplexer_cost(g).total


def test_report_serializes_to_json_and_table():
    std = ivvx_case()
    report = multiplexer_cost(std)
    buffer = io.StringIO()
    write_json(buffer, report.to_json_dict())
    data = json.loads(buffer.getvalue())
    assert data["total"] == 15
    assert data["skipped_identities"] == 1
    table = report.format_table()
    assert "total: 15" in table
    assert table.splitlines()[0].split() == ["gate", "controls", "cost"]


def test_long_report_table_elides_middle():
    targets = np.stack([gates.X] * 256)
    report = multiplexer_cost(Multiplexer(8, targets))
    table = report.format_table()
    assert "rows elided" in table
    assert f"total: {256 * gate_cost(8)}" in table


def test_elided_table_keeps_the_first_and_last_rows():
    report = multiplexer_cost(Multiplexer(8, np.stack([gates.X] * 256)))
    lines = report.format_table().splitlines()
    assert lines[57] == "   ...  (192 rows elided)"
    shown = [int(line.split()[0]) for line in lines[1:57] + lines[58:66]]
    assert shown == list(range(56)) + list(range(248, 256))
    assert lines[66].startswith("total:") and len(lines) == 67


def _oracle_rows(m: Multiplexer) -> list:
    """(gate, controls, cost) of every gate that is not the identity within
    EPS, one gate at a time by oracle.control_count."""
    rows = []
    for i, target in enumerate(m.targets):
        if np.abs(target - np.eye(2)).max() > gates.EPS:
            controls = control_count(i, m.digits)
            rows.append((i, controls, gate_cost(controls)))
    return rows


def _oracle_table(rows: list, skipped: int) -> str:
    """The text table of the rows: all of them up to 64, else the first 56,
    an elision line and the last 8."""
    row = "{:>6}  {:>8}  {:>6}".format
    shown = rows if len(rows) <= 64 else rows[:56] + [None] + rows[-8:]
    lines = [row("gate", "controls", "cost")]
    lines += [row(*r) if r else f"   ...  ({len(rows) - 64} rows elided)" for r in shown]
    total = sum(cost for _, _, cost in rows)
    return "\n".join(lines + [f"total: {total}    skipped identities: {skipped}"])


# Near-identity: X V† V† is the identity within EPS, not exactly.
_POOL = np.stack([gates.I, gates.X @ gates.VD @ gates.VD, gates.X, gates.H, gates.rx(0.4)])


def _streamed_cases(m: int, form: str):
    """Multiplexers of every palette layout and identity pattern: identity
    runs at the start and at the end, long enough to cross chunk boundaries
    before the table's first or last rows, and a random mix, both as a
    palette and as a plain array."""
    rng = np.random.default_rng(300 + m)
    n = 1 << m
    polarity = {"standard": None, "fpqf": "".join(rng.choice(list("01"), m)),
                "kqf": "".join(rng.choice(list("012"), m))}[form]
    layouts = {
        "leading": np.where(np.arange(n) < n // 3, 0, rng.integers(1, 5, n)),
        "trailing": np.where(np.arange(n) >= n - n // 3, 0, rng.integers(1, 5, n)),
        "mixed": rng.integers(0, 5, n),
    }
    for name, choices in layouts.items():
        palette = Palette(_POOL, choices.astype(np.uint8))
        args = (form, polarity) if polarity else ()
        yield name, Multiplexer(m, palette, *args)
        yield name + "-plain", Multiplexer(m, _POOL[choices], *args)


@pytest.mark.parametrize("chunks", [1, 3, 4096])
@pytest.mark.parametrize("form", ["standard", "fpqf", "kqf"])
def test_streamed_report_matches_a_per_gate_oracle(monkeypatch, chunks, form):
    """The streamed CostReport's rows, total, skipped identities, text
    table and JSON body equal those built gate by gate, whatever the chunk
    size: its rows are made a chunk at a time, forward and backward."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunks)
    for m in range(1, 9):
        for name, mux in _streamed_cases(m, form):
            rows = _oracle_rows(mux)
            report = multiplexer_cost(mux)
            skipped = (1 << m) - len(rows)
            assert report.total == sum(cost for _, _, cost in rows), (m, name)
            assert report.skipped_identities == skipped, (m, name)
            assert list(report.rows()) == rows, (m, name)
            assert list(report.rows(reverse=True)) == rows[::-1], (m, name)
            assert all(len(batch[0]) <= chunks for batch in report.batches())
            assert report.format_table() == _oracle_table(rows, skipped), (m, name)
            buffer = io.StringIO()
            write_json(buffer, report.to_json_dict())
            keys = ("gate_index", "controls", "cost")
            plain = {
                "per_gate": [dict(zip(keys, r)) for r in rows],
                "total": report.total,
                "skipped_identities": skipped,
            }
            assert buffer.getvalue() == json.dumps(plain, indent=2), (m, name)


def test_the_report_holds_no_per_gate_array():
    """A palette's report keeps one identity decision per palette matrix,
    and only the multiplexer besides.  _POOL's X VD VD has I's exact bytes,
    so the palette holds 4 matrices, in byte order X, I, RX(0.4), H."""
    std = Palette(_POOL, (np.arange(1 << 12) % 5).astype(np.uint8))
    report = multiplexer_cost(Multiplexer(12, std))
    assert report.live.tolist() == [True, False, True, True]
    arrays = [v for v in vars(report).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == 4
