import numpy as np
import pytest

from qmuxopt import blocksearch, gates, group, mux
from qmuxopt.boolrm import BoolFunc
from qmuxopt.pla import to_multiplexer
from qmuxopt.randmux import POOL_FULL, POOL_NVV, generate, resolve_pool

import oracle

def _interned(targets):
    result = group.intern(targets, len(targets))
    assert result is not None
    return result


@pytest.mark.parametrize(
    "targets,size",
    [
        (generate(8, POOL_FULL, seed=1).targets, 192),
        (generate(8, POOL_NVV, seed=1).targets, 4),
        (to_multiplexer(BoolFunc(3, [0, 1, 1, 0, 1, 0, 0, 1])).targets, 2),
        (np.stack([gates.I] * 4), 1),
    ],
    ids=["full", "nvv", "x-i", "identity-only"],
)
def test_closure_sizes(targets, size):
    gate_group, ids = _interned(targets)
    assert len(gate_group.elements) == size
    assert gate_group.mul.shape == (size, size) and gate_group.mul.dtype == np.uint8
    assert gate_group.inv.shape == (size,) and gate_group.inv.dtype == np.uint8
    assert ids.dtype == np.uint8 and ids.shape == (len(targets),)
    assert np.abs(targets - gate_group.elements[ids]).max() <= group.TOL


def test_full_pool_tables():
    gate_group, _ = _interned(generate(6, POOL_FULL, seed=2).targets)
    elements, mul, inv = gate_group.elements, gate_group.mul, gate_group.inv
    g = len(elements)
    assert np.array_equal(elements[0], np.eye(2))
    assert np.all(mul[0] == np.arange(g)) and np.all(mul[:, 0] == np.arange(g))
    assert np.all(mul[np.arange(g), inv] == 0)
    assert np.all(mul[inv, np.arange(g)] == 0)
    for i in range(g):
        assert np.abs(elements[i] @ elements - elements[mul[i]]).max() <= group.TOL
    rng = np.random.default_rng(3)
    a, b, c = rng.integers(0, g, size=(3, 2000))
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])


@pytest.mark.parametrize("pool", [POOL_FULL, POOL_NVV])
def test_flat_mulinv_table(pool):
    gate_group, _ = _interned(generate(6, pool, seed=2).targets)
    mul, inv, g = gate_group.mul, gate_group.inv, len(gate_group.elements)
    table = gate_group.mulinv.reshape(group.MAX_ELEMENTS, group.MAX_ELEMENTS)
    assert gate_group.mulinv.dtype == np.uint8
    assert np.array_equal(table[:g, :g], mul[:, inv])
    assert not table[g:].any() and not table[:, g:].any()


def test_phase_times_identity_is_not_id_zero():
    # A controlled global phase is physical: e^{i pi/4} I is its own element.
    phased = np.exp(1j * np.pi / 4) * gates.I
    gate_group, ids = _interned(np.stack([gates.I, phased]))
    assert ids.tolist() == [0, 1]
    assert len(gate_group.elements) == 8


@pytest.mark.parametrize(
    "targets",
    [
        generate(6, resolve_pool("custom:X,RX(0.3)"), seed=4).targets,
        np.stack([oracle.random_unitary(np.random.default_rng(5)) for _ in range(16)]),
        np.stack([gates.rz(2 * np.pi * k / 300) for k in range(300)]),
        np.stack([gates.rz(2 * np.pi / 257)] * 4),
    ],
    ids=["rx-pool", "random-unitaries", "over-256-distinct", "order-514-generator"],
)
def test_intern_declines_targets_that_do_not_close_small(targets):
    assert group.intern(targets, len(targets)) is None


def test_key_collisions_are_caught(monkeypatch):
    # Every matrix hashing alike must not merge distinct gates.
    monkeypatch.setattr(group, "_keys", lambda mats: np.zeros(len(mats), dtype=np.uint64))
    assert group.intern(generate(4, POOL_FULL, seed=6).targets, 16) is None


def test_matrix_literal_of_a_clifford_lands_on_its_element():
    literal = gates.parse_gate("M(1,0,0,0,0,0,0,1)")  # S = diag(1, i)
    s = gates.rz(np.pi / 2) * np.exp(1j * np.pi / 4)
    gate_group, ids = _interned(np.stack([literal, gates.H, s, gates.I]))
    assert ids[0] == ids[2] != 0 and ids[3] == 0
    assert len(gate_group.elements) == 192


def test_complex_cascade_stays_within_margin_of_the_exact_elements():
    # The EPS margin behind the exactness argument in group.py: after a
    # full m = 12 cascade the complex gates sit within 1e-11 of their exact
    # elements, while a non-identity element is at least 0.7 from I.
    m = 12
    std = generate(m, POOL_FULL, seed=7)
    gate_group, ids = _interned(std.targets)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(6):
        polarity = "".join(rng.choice(list("012"), size=m))
        complex_out = blocksearch.cascade(std.targets.copy(), polarity, mux.KQF)
        out = blocksearch.cascade(ids.copy(), polarity, mux.KQF, gate_group)
        worst = max(worst, float(np.abs(complex_out - gate_group.elements[out]).max()))
    assert worst <= 1e-11
    away = np.abs(gate_group.elements[1:] - np.eye(2)).reshape(-1, 4).max(axis=1)
    assert away.min() > 0.7


# H written with 13 and 14 digits: H'^2 = c I with 1 - c = 1.3e-13 and
# 7.1e-15.  Each FPQF column squares c, so a residual far below the
# per-product tolerance still reaches EPS in a deep cascade.
H13 = "M(0.7071067811865,0,0.7071067811865,0,0.7071067811865,0,-0.7071067811865,0)"
H14 = "M(0.70710678118655,0,0.70710678118655,0,0.70710678118655,0,-0.70710678118655,0)"


@pytest.mark.parametrize("literal,deepest", [(H13, 11), (H14, 15)], ids=["h13", "h14"])
def test_intern_declines_where_the_cascade_could_grow_past_eps(literal, deepest):
    # Residual sqrt(2) (1 - c) in the Frobenius norm, times 2^m, against EPS / 2.
    h = gates.parse_gate(literal)
    for m in (3, deepest, deepest + 1, 14):
        targets = np.stack([h, gates.I] * (1 << (m - 1)))
        assert (group.intern(targets, len(targets)) is not None) == (m <= deepest), m


def test_complex_cascade_stays_inside_the_bound_at_the_deepest_accepted_m():
    m = 11
    std = mux.Multiplexer(m, np.stack([gates.parse_gate(H13)] * (1 << m)))
    gate_group, ids = _interned(std.targets)
    rng = np.random.default_rng(9)
    polarities = ["1" * m, "0" * m] + ["".join(rng.choice(list("01"), size=m)) for _ in range(4)]
    for polarity in polarities:
        complex_out = blocksearch.cascade(std.targets.copy(), polarity, mux.KQF)
        out = blocksearch.cascade(ids.copy(), polarity, mux.KQF, gate_group)
        assert np.abs(complex_out - gate_group.elements[out]).max() <= gates.EPS / 2
    # The all-positive cascade does carry the drift well past the residual.
    drift = np.abs(blocksearch.cascade(std.targets.copy(), "1" * m, mux.KQF) - np.eye(2)).max()
    assert drift > 100 * (1 - (std.targets[0] @ std.targets[0])[0, 0].real)


def test_full_pool_is_interned_at_the_random_benchmark_size():
    gate_group, ids = _interned(generate(17, POOL_FULL, seed=10).targets)
    assert len(gate_group.elements) == 192


def _literal_h(digits):
    h = "0." + "7071067811865475244"[:digits]
    return gates.parse_gate(f"M({h},0,{h},0,{h},0,-{h},0)")


def _palette(*tokens):
    return np.stack([gates.parse_gate(t) for t in tokens])


# (palette, controls): the full and nvv pools at every size, small
# generating sets (Cliffords, an infinite group, the identity alone) and
# the near-H literals of 12 to 15 digits with X across their boundaries.
INTERN_CORPUS = (
    [(POOL_FULL.matrices(), m) for m in range(2, 21)]
    + [(POOL_NVV.matrices(), m) for m in range(2, 21)]
    + [
        (_palette(*tokens), 8)
        for tokens in (("X", "H"), ("V", "Z"), ("Y", "V"), ("H", "Z", "V"), ("X", "RX(0.3)"), ("I",))
    ]
    + [(np.stack([_literal_h(d), gates.X]), m) for d in (12, 13, 14, 15) for m in range(6, 20)]
)


def test_intern_matches_the_row_by_row_reference(monkeypatch):
    """The table built by row blocks gives the decision and the tables of
    oracle.product_table, which builds it one row at a time by nearest
    elements instead of keys."""
    tables = {}

    def by_rows(elements):
        key = elements.tobytes()
        if key not in tables:
            tables[key] = oracle.product_table(elements)
        return tables[key]

    accepted = 0
    for palette, m in INTERN_CORPUS:
        got = group.intern(palette, 1 << m)
        with monkeypatch.context() as patch:
            patch.setattr(group, "_table", by_rows)
            want = group.intern(palette, 1 << m)
        assert (got is None) == (want is None), m
        if got is None:
            continue
        accepted += 1
        (got_group, got_ids), (want_group, want_ids) = got, want
        assert got_group.elements.tobytes() == want_group.elements.tobytes()
        for name in ("mul", "inv", "mulinv"):
            assert np.array_equal(getattr(got_group, name), getattr(want_group, name)), name
        assert np.array_equal(got_ids, want_ids)
    # Both kinds of decision are covered: the full pool stops at m = 18.
    assert 0 < accepted < len(INTERN_CORPUS)


def test_table_declines_an_element_with_a_near_neighbour():
    # Two elements 1e-9 apart share a key; both table builders refuse them.
    elements = np.stack([gates.I, gates.X, gates.X * (1 + 1e-9)])
    assert group._table(elements) is None
    assert oracle.product_table(elements) is None
    assert group._table(elements[:2]) is not None
