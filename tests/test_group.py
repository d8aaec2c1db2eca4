import numpy as np
import pytest

from qmuxopt import gates, group, mux
from qmuxopt.boolrm import BoolFunc
from qmuxopt.pla import to_multiplexer
from qmuxopt.randmux import POOL_FULL, POOL_NVV, generate, resolve_pool

def _interned(targets):
    result = group.intern(targets)
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
        np.stack([gates.random_unitary(np.random.default_rng(5)) for _ in range(16)]),
        np.stack([gates.rz(2 * np.pi * k / 300) for k in range(300)]),
        np.stack([gates.rz(2 * np.pi / 257)] * 4),
    ],
    ids=["rx-pool", "random-unitaries", "over-256-distinct", "order-514-generator"],
)
def test_intern_declines_targets_that_do_not_close_small(targets):
    assert group.intern(targets) is None


def test_key_collisions_are_caught(monkeypatch):
    # Every matrix hashing alike must not merge distinct gates.
    monkeypatch.setattr(group, "_keys", lambda mats: np.zeros(len(mats), dtype=np.uint64))
    assert group.intern(generate(4, POOL_FULL, seed=6).targets) is None


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
        complex_out = mux.transform_stages(std.targets, polarity, "forward")
        out = mux.transform_stages(ids, polarity, "forward", gate_group)
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
        assert (group.intern(targets) is not None) == (m <= deepest), m


def test_complex_cascade_stays_inside_the_bound_at_the_deepest_accepted_m():
    m = 11
    std = mux.Multiplexer(m, np.stack([gates.parse_gate(H13)] * (1 << m)))
    gate_group, ids = _interned(std.targets)
    rng = np.random.default_rng(9)
    polarities = ["1" * m, "0" * m] + ["".join(rng.choice(list("01"), size=m)) for _ in range(4)]
    for polarity in polarities:
        complex_out = mux.transform_stages(std.targets, polarity, "forward")
        out = mux.transform_stages(ids, polarity, "forward", gate_group)
        assert np.abs(complex_out - gate_group.elements[out]).max() <= gates.EPS / 2
    # The all-positive cascade does carry the drift well past the residual.
    drift = np.abs(mux.transform_stages(std.targets, "1" * m, "forward") - np.eye(2)).max()
    assert drift > 100 * (1 - (std.targets[0] @ std.targets[0])[0, 0].real)


def test_full_pool_is_interned_at_the_random_benchmark_size():
    gate_group, ids = _interned(generate(17, POOL_FULL, seed=10).targets)
    assert len(gate_group.elements) == 192
