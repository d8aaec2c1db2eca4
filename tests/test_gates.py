import numpy as np
import pytest

from qmuxopt import gates
from qmuxopt.errors import NonUnitary, UnknownGate


def test_catalog_gates_are_unitary():
    for name, g in gates.CATALOG.items():
        assert gates.is_unitary(g), name
        assert np.abs(g @ g.conj().T - gates.I).max() <= 1e-9


def test_non_finite_entries_are_not_unitary():
    assert not gates.is_unitary(np.array([[np.nan, 0], [0, 1]], dtype=complex))


def test_x_squared_is_identity():
    assert gates.approx_eq(gates.multiply(gates.X, gates.X), gates.I)


def test_v_squared_is_x():
    assert gates.approx_eq(gates.multiply(gates.V, gates.V), gates.X)


def test_h_times_x_hand_product():
    # row-by-column product of H and X, worked by hand
    expected = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)
    assert gates.approx_eq(gates.multiply(gates.H, gates.X), expected)


def test_multiply_result_stays_unitary():
    rng = np.random.default_rng(10)
    for _ in range(50):
        u = gates.random_unitary(rng)
        v = gates.random_unitary(rng)
        assert gates.is_unitary(gates.multiply(u, v), tol=1e-8)


def test_multiply_is_associative():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b, c = (gates.random_unitary(rng) for _ in range(3))
        left = gates.multiply(gates.multiply(a, b), c)
        right = gates.multiply(a, gates.multiply(b, c))
        assert np.abs(left - right).max() <= 1e-8


def test_inverse_of_identity():
    assert gates.approx_eq(gates.inverse(gates.I), gates.I)


def test_inverse_of_v_is_vd():
    assert gates.approx_eq(gates.inverse(gates.V), gates.VD)


def test_inverse_of_rotation_negates_angle():
    assert gates.approx_eq(gates.inverse(gates.rz(0.7)), gates.rz(-0.7))


def test_inverse_is_involution():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        u = gates.random_unitary(rng)
        assert np.abs(gates.inverse(gates.inverse(u)) - u).max() <= 1e-9


def test_inverse_multiplies_to_identity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        u = gates.random_unitary(rng)
        assert gates.approx_eq(gates.multiply(u, gates.inverse(u)), gates.I, tol=1e-8)


def test_approx_eq_is_phase_sensitive():
    assert gates.approx_eq(gates.X, gates.X, 1e-9)
    assert not gates.approx_eq(gates.X, -gates.X, 1e-9)
    assert gates.approx_eq(gates.V @ gates.V, gates.X, 1e-9)


@pytest.mark.parametrize("token,name", [("H", "H"), ("h", "H"), ("NOT", "X"),
                                        ("PX", "X"), ("not", "X"), ("vd", "VD")])
def test_parse_gate_names_and_aliases(token, name):
    assert gates.approx_eq(gates.parse_gate(token), gates.CATALOG[name])


def test_parse_gate_hadamard_value():
    expected = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert gates.approx_eq(gates.parse_gate("H"), expected)


def test_parse_gate_matrix_literal_identity():
    assert gates.approx_eq(gates.parse_gate("M(1,0,0,0,0,0,1,0)"), gates.I)


def test_parse_gate_matrix_literal_non_unitary():
    with pytest.raises(NonUnitary):
        gates.parse_gate("M(1,0,0,0,0,0,2,0)")


@pytest.mark.parametrize("token", ["QQ", "M(1,2)", "M(1,0,0,0,0,0,1,x)", "RX()", "RX(abc)", ""])
def test_parse_gate_unknown(token):
    with pytest.raises(UnknownGate):
        gates.parse_gate(token)


def test_parse_gate_rotations():
    assert gates.approx_eq(gates.parse_gate("RX(0.5)"), gates.rx(0.5))
    assert gates.approx_eq(gates.parse_gate("RZ(-1.25)"), gates.rz(-1.25))
    assert gates.approx_eq(gates.parse_gate("RY(3.0)"), gates.ry(3.0))


def test_render_parse_round_trip():
    rng = np.random.default_rng(14)
    for _ in range(100):
        u = gates.random_unitary(rng)
        token = gates.render_gate(u)
        assert np.abs(gates.parse_gate(token) - u).max() <= 1e-12


def test_render_gate_prefers_catalog_names():
    assert gates.render_gate(gates.V @ gates.V) == "X"
    assert gates.render_gate(gates.I) == "I"
