import collections
import tracemalloc

import numpy as np
import pytest

from qmuxopt import gates, kernels, mux, randmux, search
from qmuxopt.errors import NonUnitary, UnknownGate

import oracle
from oracle import flat


def test_catalog_gates_are_unitary():
    for name, g in gates.CATALOG.items():
        assert gates.unitarity_residual(g[None]) <= gates.EPS, name
        assert np.abs(g @ g.conj().T - gates.I).max() <= 1e-9


def test_non_finite_entries_are_not_unitary():
    assert np.isnan(gates.unitarity_residual(np.array([[[np.nan, 0], [0, 1]]], dtype=complex)))


def test_unitarity_residual_takes_a_stack_whose_last_axis_is_strided():
    """The finiteness test reads the complex entries themselves, so a
    transposed stack is checked like its copy."""
    stack = np.stack([gates.H, gates.X]).transpose(0, 2, 1)
    assert not stack[0].flags.c_contiguous
    assert gates.unitarity_residual(stack) == gates.unitarity_residual(stack.copy())
    bad = np.stack([gates.H, np.full((2, 2), np.nan)]).transpose(0, 2, 1)
    assert np.isnan(gates.unitarity_residual(bad))


def test_unitarity_residual_is_the_worst_entry_of_u_u_dagger_minus_i():
    us = np.stack([gates.X, 1.5 * gates.X, gates.H])
    assert gates.unitarity_residual(us) == 1.25
    assert gates.unitarity_residual(us[:0]) == 0.0


@pytest.mark.parametrize("chunk", [1, 2, kernels.CHUNK_ROWS])
def test_unitarity_residual_puts_a_non_finite_entry_first(monkeypatch, chunk):
    """nan for a non-finite entry anywhere, even after a non-unitary one;
    inf, and no overflow warning, when finite entries overflow."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
    us = np.stack([gates.I, 2 * gates.X, gates.Z, gates.Y])
    us[3, 1, 1] = np.inf
    assert np.isnan(gates.unitarity_residual(us))
    us[3] = 1e200 * np.array([[1, 1j], [1, -1]])
    assert gates.unitarity_residual(us) == np.inf


def test_x_squared_is_identity():
    assert oracle.approx_eq(gates.X @ gates.X, gates.I)


def test_v_squared_is_x():
    assert oracle.approx_eq(gates.V @ gates.V, gates.X)


def test_h_times_x_hand_product():
    # row-by-column product of H and X, worked by hand
    expected = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)
    assert oracle.approx_eq(gates.H @ gates.X, expected)


def test_multiply_result_stays_unitary():
    rng = np.random.default_rng(10)
    for _ in range(50):
        u = oracle.random_unitary(rng)
        v = oracle.random_unitary(rng)
        assert gates.unitarity_residual((u @ v)[None]) <= 1e-8


def test_multiply_is_associative():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b, c = (oracle.random_unitary(rng) for _ in range(3))
        left = (a @ b) @ c
        right = a @ (b @ c)
        assert np.abs(left - right).max() <= 1e-8


def test_inverse_of_identity():
    assert oracle.approx_eq(oracle.inverse(gates.I), gates.I)


def test_inverse_of_v_is_vd():
    assert oracle.approx_eq(oracle.inverse(gates.V), gates.VD)


def test_inverse_of_rotation_negates_angle():
    assert oracle.approx_eq(oracle.inverse(gates.rz(0.7)), gates.rz(-0.7))


def test_inverse_is_involution():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        u = oracle.random_unitary(rng)
        assert np.abs(oracle.inverse(oracle.inverse(u)) - u).max() <= 1e-9


def test_inverse_multiplies_to_identity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        u = oracle.random_unitary(rng)
        assert oracle.approx_eq(u @ oracle.inverse(u), gates.I, tol=1e-8)


def test_approx_eq_is_phase_sensitive():
    assert oracle.approx_eq(gates.X, gates.X, 1e-9)
    assert not oracle.approx_eq(gates.X, -gates.X, 1e-9)
    assert oracle.approx_eq(gates.V @ gates.V, gates.X, 1e-9)


@pytest.mark.parametrize("token,name", [("H", "H"), ("h", "H"), ("NOT", "X"),
                                        ("PX", "X"), ("not", "X"), ("vd", "VD")])
def test_parse_gate_names_and_aliases(token, name):
    assert oracle.approx_eq(gates.parse_gate(token), gates.CATALOG[name])


def test_parse_gate_hadamard_value():
    expected = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert oracle.approx_eq(gates.parse_gate("H"), expected)


def test_parse_gate_matrix_literal_identity():
    assert oracle.approx_eq(gates.parse_gate("M(1,0,0,0,0,0,1,0)"), gates.I)


def test_parse_gate_matrix_literal_non_unitary():
    with pytest.raises(NonUnitary, match=r"\(deviation 3\.000e\+00\)"):
        gates.parse_gate("M(1,0,0,0,0,0,2,0)")


@pytest.mark.parametrize("token", ["M(inf,0,0,0,0,0,1,0)", "M(1,0,0,0,0,0,1,nan)"])
def test_parse_gate_non_finite_literal_deviates_by_nan(token):
    with pytest.raises(NonUnitary, match=r"\(deviation nan\)"):
        gates.parse_gate(token)


@pytest.mark.parametrize("token", ["RX(inf)", "RZ(nan)", "RX(1e400)", "ry(-inf)"])
def test_parse_gate_refuses_a_non_finite_rotation_angle(token):
    with pytest.raises(UnknownGate) as exc:
        gates.parse_gate(token)
    assert str(exc.value) == f"bad rotation angle in {token!r}"


@pytest.mark.parametrize("token", ["QQ", "M(1,2)", "M(1,0,0,0,0,0,1,x)", "RX()", "RX(abc)", ""])
def test_parse_gate_unknown(token):
    with pytest.raises(UnknownGate):
        gates.parse_gate(token)


def test_parse_gate_rotations():
    assert oracle.approx_eq(gates.parse_gate("RX(0.5)"), gates.rx(0.5))
    assert oracle.approx_eq(gates.parse_gate("RZ(-1.25)"), gates.rz(-1.25))
    assert oracle.approx_eq(gates.parse_gate("RY(3.0)"), gates.ry(3.0))


def test_render_parse_round_trip():
    rng = np.random.default_rng(14)
    for _ in range(100):
        u = oracle.random_unitary(rng)
        token = oracle.render_gate(u)
        assert np.abs(gates.parse_gate(token) - u).max() <= 1e-12


def test_render_gate_prefers_catalog_names():
    assert oracle.render_gate(gates.V @ gates.V) == "X"
    assert oracle.render_gate(gates.I) == "I"


def _render_reference(us):
    return [oracle.render_gate(u) for u in us]


def test_render_gates_keeps_signed_zeros_apart():
    phase = np.exp(0.3j)
    plus = np.array([[complex(0.0, 0.0), phase], [phase, complex(0.0, 0.0)]])
    minus = np.array([[complex(-0.0, -0.0), phase], [phase, complex(-0.0, 0.0)]])
    tokens = flat(gates.render_gates(np.stack([plus, minus, plus])))
    assert tokens == _render_reference([plus, minus, plus])
    assert tokens[0].startswith("M(0.0,0.0,") and tokens[1].startswith("M(-0.0,-0.0,")


def test_render_gates_repeated_bit_patterns():
    rng = np.random.default_rng(15)
    pool = oracle.random_unitaries(rng, 5)
    stack = pool[rng.integers(0, 5, size=64)]
    stack[::7] = gates.rx(0.3)  # entries shared across matrices and within one
    assert flat(gates.render_gates(stack)) == _render_reference(stack)


def test_render_gates_at_the_catalog_tolerance():
    inside = gates.X + 0.9 * gates.EPS
    outside = gates.X.copy()
    outside[0, 1] += 1.1 * gates.EPS
    stack = np.stack([inside, outside, gates.V - 0.9j * gates.EPS, gates.V + 1.1j * gates.EPS])
    tokens = flat(gates.render_gates(stack))
    assert tokens == _render_reference(stack)
    assert [t.startswith("M(") for t in tokens] == [False, True, False, True]


def test_render_gates_takes_the_modulus_past_the_per_part_pre_test():
    """Real and imaginary differences each within EPS pass the pre-test,
    but a modulus past EPS still makes a literal; a strided stack is
    classified as its copy is."""
    corner = gates.H.copy()
    corner[1, 1] += 0.8 * gates.EPS * (1 + 1j)  # parts 0.8 EPS, modulus 1.13 EPS
    edge = gates.H.copy()
    edge[1, 1] += 0.7 * gates.EPS * (1 + 1j)  # modulus 0.99 EPS
    stack = np.stack([corner, edge, gates.Z, gates.X.T])[::-1]
    tokens = flat(gates.render_gates(stack))
    assert tokens == _render_reference(stack)
    assert tokens[0] == "X" and tokens[1] == "Z" and tokens[2] == "H"
    assert tokens[3].startswith("M(")


def test_no_matrix_is_within_eps_of_two_catalog_gates():
    """render_gates names a row by whichever catalog gate it is within EPS
    of, in no particular order: that needs every two catalog gates more
    than 2 EPS apart in some entry."""
    mats = list(gates.CATALOG.values())
    for i, a in enumerate(mats):
        for b in mats[i + 1 :]:
            assert np.abs(a - b).max() > 2 * gates.EPS


def test_render_gates_all_catalog_and_empty():
    catalog = np.stack(list(gates.CATALOG.values()) * 3)
    assert flat(gates.render_gates(catalog)) == list(gates.CATALOG) * 3
    assert flat(gates.render_gates(np.empty((0, 2, 2), dtype=complex))) == []


@pytest.mark.parametrize("chunk", [1, 3, 40, 4096])
def test_render_gates_in_any_sub_batching_equal_the_per_gate_render(monkeypatch, chunk):
    """Sub-batches of 1, 1, 2 and 256 rows: a literal's entry texts come
    from the whole stack's distinct patterns whatever sub-batch it is in,
    and catalog names keep their places among the literals."""
    rng = np.random.default_rng(16)
    pool = np.stack([oracle.random_unitary(rng) for _ in range(6)] + [gates.H, gates.I])
    stack = pool[rng.integers(0, len(pool), size=300)]
    stack[5] = -0.0 * gates.X + gates.Y  # signed zeros beside a catalog gate
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
    made, real = [], gates._sub_batches
    monkeypatch.setattr(gates, "_sub_batches",
                        lambda *args: (made.append(batch) or batch for batch in real(*args)))
    tokens = flat(gates.render_gates(stack))
    assert tokens == _render_reference(stack)
    rows = max(1, chunk // gates.SUB_BATCH_SHARE)
    assert [len(batch) for batch in made] == [min(rows, 300 - s) for s in range(0, 300, rows)]


def test_rendering_a_chunk_of_literals_holds_one_sub_batch_of_tokens():
    """Rendering one kernels.CHUNK_ROWS chunk of a transformed m = 12 form
    (the exhaustive FPQF best of a full-pool input, seed 3: 3,880 matrix
    literals over 5,501 distinct floats) peaks at no more than 1.3 MB
    under tracemalloc while the tokens are consumed.  Measured on a 2-core
    Xeon: 0.83 MB; holding the chunk's token list, nested 8-entry lists and
    np.unique's inverse it peaked at 2.49 MB."""
    std = randmux.generate(12, randmux.POOL_FULL, seed=3)
    report = search.exhaustive_search(std, search.SearchConfig(family="fpqf"))
    best = mux.forward_transform(std, report.best_polarity)
    chunk = next(mux.target_chunks(best))
    tracemalloc.start()
    try:
        collections.deque(gates.render_gates(chunk), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3e6, peak
