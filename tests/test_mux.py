import numpy as np
import pytest

from qmuxopt import gates, kernels
from qmuxopt.blocksearch import cascade
from qmuxopt.errors import FormMismatch, PolarityLengthMismatch, SizeLimitExceeded
from qmuxopt.mux import (
    FPQF,
    KQF,
    STANDARD,
    Multiplexer,
    activation_mask,
    forward_transform,
    inverse_transform,
    max_semantic_deviation,
    negative_control_realization,
    semantics,
    transform_stages,
)

import oracle
from oracle import (
    LengthNotPowerOfTwo,
    all_polarities,
    butterfly_stage,
    ivvx_case,
    triangular_solve,
)

INV = oracle.inverse


def random_mux(rng, m, form=STANDARD, polarity=None):
    targets = oracle.random_unitaries(rng, 1 << m)
    return Multiplexer(m, targets, form, polarity)


# --- construction ---


def test_rejects_zero_controls():
    with pytest.raises(ValueError):
        Multiplexer(0, np.stack([gates.I]))


def test_rejects_wrong_target_count():
    with pytest.raises(ValueError):
        Multiplexer(2, np.stack([gates.I, gates.X]))


def test_rejects_non_unitary_target():
    bad = np.stack([gates.I, 2 * gates.X])
    with pytest.raises(ValueError):
        Multiplexer(1, bad)


def test_rejects_fpqf_with_mixed_digit():
    with pytest.raises(ValueError):
        Multiplexer(2, ivvx_case().targets, FPQF, "12")


def test_rejects_standard_with_polarity():
    with pytest.raises(ValueError):
        Multiplexer(2, ivvx_case().targets, STANDARD, "11")


@pytest.mark.parametrize(
    "fields,needle",
    [
        ({"targets": np.full((4, 2, 2), np.nan)}, "non-finite"),
        ({"form": FPQF}, "requires a polarity"),
        ({"form": "fprm", "polarity": "11"}, "unknown form"),
        ({"inverted_lines": (1,)}, "no polarized lines"),
        ({"form": FPQF, "polarity": "11", "inverted_lines": (3,)}, "out of range"),
    ],
)
def test_rejects_invalid_fields(fields, needle):
    with pytest.raises(ValueError, match=needle):
        Multiplexer(**{"controls": 2, "targets": ivvx_case().targets, **fields})


def test_rejects_an_inverter_on_a_mixed_line():
    # A '2' digit has no fixed polarity to fold an inverter into, so the
    # value is refused where it is built.
    with pytest.raises(ValueError, match="mixed polarity"):
        Multiplexer(2, ivvx_case().targets, KQF, "21", (1,))


@pytest.mark.parametrize("controls", [True, 1.0, "1"])
def test_rejects_a_control_count_that_is_not_an_int(controls):
    # bool is an int subclass; dump_qmux would write `controls: True`,
    # which parse_qmux refuses.
    with pytest.raises(ValueError, match=f"controls {controls!r} is not an int"):
        Multiplexer(controls, np.stack([gates.I, gates.X]))


def test_targets_are_read_only():
    m = ivvx_case()
    with pytest.raises(ValueError):
        m.targets[0, 0, 0] = 5.0


def test_the_callers_targets_stay_writable():
    t = np.stack([gates.I, gates.X])
    m = Multiplexer(1, t)
    assert t.flags.writeable
    t[0] = gates.X  # the multiplexer keeps its own copy
    assert np.array_equal(m.targets, np.stack([gates.I, gates.X]))


def test_a_transform_hands_its_targets_over_without_a_copy():
    g = forward_transform(ivvx_case(), "11")
    assert g.palette.index is None and not g.palette.matrices.flags.writeable
    assert Multiplexer(2, g.palette.matrices, FPQF, "11").palette.matrices is g.palette.matrices


# --- semantics ---


def test_standard_semantics_selects_one_gate():
    rng = np.random.default_rng(50)
    m = random_mux(rng, 2)
    assert np.abs(semantics(m, 2) - m.targets[2]).max() == 0


def test_fpqf_all_positive_activation():
    rng = np.random.default_rng(51)
    g = random_mux(rng, 2, FPQF, "11")
    # input 3 fires everything, highest index leftmost
    want = g.targets[3] @ g.targets[2] @ g.targets[1] @ g.targets[0]
    assert np.abs(semantics(g, 3) - want).max() <= 1e-12
    # input 0 fires only the unconditioned gate
    assert np.abs(semantics(g, 0) - g.targets[0]).max() == 0
    assert list(np.flatnonzero(activation_mask(g, 2))) == [0, 2]


def test_mixed_digits_pin_their_bit():
    rng = np.random.default_rng(52)
    g = random_mux(rng, 2, KQF, "21")
    assert list(np.flatnonzero(activation_mask(g, 0))) == [0]
    assert list(np.flatnonzero(activation_mask(g, 1))) == [0, 1]
    assert list(np.flatnonzero(activation_mask(g, 2))) == [2]
    assert list(np.flatnonzero(activation_mask(g, 3))) == [2, 3]


def test_activation_mask_rejects_a_state_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        activation_mask(ivvx_case(), 4)


def test_max_semantic_deviation_needs_equal_control_counts():
    with pytest.raises(FormMismatch):
        max_semantic_deviation(ivvx_case(), Multiplexer(1, np.stack([gates.I, gates.X])))


# --- butterfly_stage ---


def test_butterfly_stage_with_callable_kernel():
    rng = np.random.default_rng(53)
    vec = oracle.random_unitaries(rng, 4)
    out = butterfly_stage(vec, lambda a, b: (b, a @ b), 0)
    assert np.abs(out[0] - vec[1]).max() <= 1e-12
    assert np.abs(out[1] - vec[0] @ vec[1]).max() <= 1e-12
    assert np.abs(out[2] - vec[3]).max() <= 1e-12
    assert np.abs(out[3] - vec[2] @ vec[3]).max() <= 1e-12


def test_butterfly_stage_identity_kernel():
    rng = np.random.default_rng(54)
    vec = oracle.random_unitaries(rng, 8)
    assert np.array_equal(kernels.gate_stage(vec.copy(), kernels.IDENTITY, 1), vec)


def test_butterfly_stage_inverse_pos_at_bit_one():
    rng = np.random.default_rng(55)
    a, b, c, d = (oracle.random_unitary(rng) for _ in range(4))
    out = kernels.gate_stage(np.stack([a, b, c, d]), kernels.INVERSE_POS, 1)
    assert np.abs(out[0] - a).max() <= 1e-12
    assert np.abs(out[1] - b).max() <= 1e-12
    assert np.abs(out[2] - c @ a).max() <= 1e-12
    assert np.abs(out[3] - d @ b).max() <= 1e-12


def test_butterfly_stage_length_check():
    vec = np.stack([gates.I, gates.X, gates.Z])
    with pytest.raises(LengthNotPowerOfTwo):
        butterfly_stage(vec, lambda a, b: (a, b), 0)


def test_butterfly_stage_bit_range_check():
    vec = np.stack([gates.I, gates.X])
    with pytest.raises(ValueError):
        butterfly_stage(vec, lambda a, b: (a, b), 1)


def test_butterfly_stage_entry_shape_check():
    with pytest.raises(ValueError, match="2x2"):
        butterfly_stage(np.zeros((2, 3, 3)), lambda a, b: (a, b), 0)


def test_transform_stages_rejects_an_unknown_direction():
    with pytest.raises(ValueError, match="unknown direction"):
        transform_stages(ivvx_case().targets, "11", "sideways")


# --- forward transform ---


def test_forward_two_positive_digits_algebra():
    rng = np.random.default_rng(56)
    for _ in range(20):
        m = random_mux(rng, 2)
        f0, f1, f2, f3 = m.targets
        g = forward_transform(m, "11").targets
        assert np.abs(g[0] - f0).max() <= 1e-12
        assert np.abs(g[1] - f1 @ INV(f0)).max() <= 1e-12
        assert np.abs(g[2] - f2 @ INV(f0)).max() <= 1e-12
        assert np.abs(g[3] - f3 @ INV(f1) @ f0 @ INV(f2)).max() <= 1e-12


def test_forward_all_mixed_is_the_standard_form():
    rng = np.random.default_rng(57)
    m = random_mux(rng, 2)
    out = forward_transform(m, "22")
    assert out.form == KQF
    assert np.array_equal(out.targets, m.targets)


def test_forward_iv_v_x_collapses():
    out = forward_transform(ivvx_case(), "11")
    expect = np.stack([gates.I, gates.V, gates.V, gates.I])
    assert np.abs(out.targets - expect).max() <= 1e-12


def test_forward_requires_standard_form():
    g = forward_transform(ivvx_case(), "11")
    with pytest.raises(FormMismatch):
        forward_transform(g, "11")


def test_forward_polarity_length_checked():
    with pytest.raises(PolarityLengthMismatch):
        forward_transform(ivvx_case(), "111")


# --- inverse transform ---


def test_inverse_single_variable_base_cases():
    rng = np.random.default_rng(58)
    g0, g1 = oracle.random_unitary(rng), oracle.random_unitary(rng)
    pos = Multiplexer(1, np.stack([g0, g1]), FPQF, "1")
    back = inverse_transform(pos)
    assert np.abs(back.targets[0] - g0).max() <= 1e-12
    assert np.abs(back.targets[1] - g1 @ g0).max() <= 1e-12

    neg = Multiplexer(1, np.stack([g0, g1]), FPQF, "0")
    back = inverse_transform(neg)
    assert np.abs(back.targets[0] - g1 @ g0).max() <= 1e-12
    assert np.abs(back.targets[1] - g0).max() <= 1e-12

    mixed = Multiplexer(1, np.stack([g0, g1]), KQF, "2")
    back = inverse_transform(mixed)
    assert np.abs(back.targets - np.stack([g0, g1])).max() <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_round_trip_forward_then_inverse(m):
    rng = np.random.default_rng(60 + m)
    std = random_mux(rng, m)
    polarity = "".join(str(d) for d in rng.integers(0, 3, size=m))
    back = inverse_transform(forward_transform(std, polarity))
    assert back.form == STANDARD
    assert np.abs(back.targets - std.targets).max() <= 1e-9


def test_inverse_requires_polarized_form():
    with pytest.raises(FormMismatch):
        inverse_transform(ivvx_case())


# --- the equivalence theorem at unit-test scale ---


@pytest.mark.parametrize("m", [1, 2, 3])
def test_semantics_preserved_for_every_polarity(m):
    rng = np.random.default_rng(70 + m)
    for _ in range(5):
        std = random_mux(rng, m)
        for polarity in all_polarities(m, "012"):
            assert max_semantic_deviation(std, forward_transform(std, polarity)) <= 1e-9


@pytest.mark.parametrize("m", [1, 2, 3])
def test_forward_agrees_with_triangular_solve(m):
    rng = np.random.default_rng(80 + m)
    for _ in range(5):
        std = random_mux(rng, m)
        for polarity in all_polarities(m, "012"):
            fast = forward_transform(std, polarity)
            slow = triangular_solve(std, polarity)
            assert np.abs(fast.targets - slow.targets).max() <= 1e-9


def test_triangular_solve_checks_its_input():
    with pytest.raises(FormMismatch):
        triangular_solve(forward_transform(ivvx_case(), "11"), "11")
    with pytest.raises(SizeLimitExceeded):
        triangular_solve(Multiplexer(9, np.tile(gates.I, (512, 1, 1))), "1" * 9)


def test_triangular_solve_iv_v_x_by_hand():
    out = triangular_solve(ivvx_case(), "11")
    expect = np.stack([gates.I, gates.V, gates.V, gates.I])
    assert np.abs(out.targets - expect).max() <= 1e-12


def test_diagonal_targets_make_stage_order_irrelevant():
    # commuting targets: running the columns in the opposite order must
    # give the same result, so this corpus cannot detect an order bug
    rng = np.random.default_rng(90)
    m = 3
    targets = np.stack([gates.rz(a) for a in rng.uniform(0, 2 * np.pi, size=1 << m)])
    std = Multiplexer(m, targets)
    for polarity in ("111", "010", "120"):
        shipped = cascade(std.targets.copy(), polarity, KQF)
        reversed_order = std.targets.copy()
        from qmuxopt import kernels
        table = {"1": kernels.FORWARD_POS, "0": kernels.FORWARD_NEG, "2": kernels.IDENTITY}
        for k in reversed(range(m)):
            reversed_order = kernels.gate_stage(
                reversed_order, table[polarity[k]], m - 1 - k
            )
        assert np.abs(shipped - reversed_order).max() <= 1e-12


def test_noncommuting_targets_are_stage_order_sensitive():
    # control for the test above: on generic unitaries the opposite order
    # diverges, so the equivalence suite genuinely pins the shipped order
    rng = np.random.default_rng(91)
    std = random_mux(rng, 2)
    from qmuxopt import kernels
    shipped = cascade(std.targets.copy(), "11", FPQF)
    other = std.targets.copy()
    for k in reversed(range(2)):
        other = kernels.gate_stage(other, kernels.FORWARD_POS, 2 - 1 - k)
    assert np.abs(shipped - other).max() > 1e-6


# --- negative control realization ---


def test_realization_flags_negative_lines():
    rng = np.random.default_rng(92)
    g = random_mux(rng, 2, FPQF, "10")
    realized = negative_control_realization(g)
    assert realized.polarity == "11"
    assert realized.inverted_lines == (2,)
    assert np.array_equal(realized.targets, g.targets)


def test_realization_without_negatives_is_identity():
    rng = np.random.default_rng(93)
    g = random_mux(rng, 2, FPQF, "11")
    assert negative_control_realization(g) is g


def test_realization_preserves_semantics():
    rng = np.random.default_rng(94)
    for m in (1, 2, 3):
        std = random_mux(rng, m)
        for polarity in all_polarities(m, "012"):
            if "0" not in polarity:
                continue
            g = forward_transform(std, polarity)
            realized = negative_control_realization(g)
            assert max_semantic_deviation(g, realized) <= 1e-12


def test_realization_rejects_standard_form():
    with pytest.raises(FormMismatch):
        negative_control_realization(ivvx_case())


def test_realized_mux_round_trips_through_inverse():
    rng = np.random.default_rng(95)
    std = random_mux(rng, 3)
    g = forward_transform(std, "010")
    back = inverse_transform(negative_control_realization(g))
    assert np.abs(back.targets - std.targets).max() <= 1e-9


def _fires(gate, state, digits, inverted):
    """Scalar firing rule: every variable that controls the gate reads the
    value it asks for ('2' controls every gate, on its gate bit's value)."""
    m = len(digits)
    for k, digit in enumerate(digits):
        bit = m - 1 - k
        gate_bit = (gate >> bit) & 1
        line = ((state >> bit) & 1) ^ ((k + 1) in inverted)
        if digit == "2" and gate_bit != line:
            return False
        if digit != "2" and gate_bit and line != int(digit):
            return False
    return True


def test_activation_mask_matches_the_scalar_firing_rule():
    rng = np.random.default_rng(91)
    for m in range(1, 6):
        eye = np.tile(gates.I, (1 << m, 1, 1))
        cases = [Multiplexer(m, eye)]
        for _ in range(12):
            polarity = "".join(rng.choice(list("012"), size=m))
            fixed = [k + 1 for k, d in enumerate(polarity) if d != "2"]
            lines = tuple(k for k in fixed if rng.random() < 0.5)
            form = KQF if "2" in polarity else FPQF
            cases.append(Multiplexer(m, eye, form, polarity, lines))
        for case in cases:
            for state in range(1 << m):
                expected = [
                    _fires(g, state, case.digits, case.inverted_lines) for g in range(1 << m)
                ]
                assert activation_mask(case, state).tolist() == expected


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_unitarity_check_is_the_same_in_any_chunking(monkeypatch, chunk):
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
    targets = ivvx_case().targets.copy()
    targets[3] = 1.5 * gates.X
    with pytest.raises(ValueError, match=r"worst deviation 1\.250e\+00"):
        Multiplexer(2, targets)
    targets[0] = 1.1 * gates.I
    targets[3, 0, 0] = np.nan  # non-finite wins over an earlier non-unitary gate
    with pytest.raises(ValueError, match="non-finite"):
        Multiplexer(2, targets)


def test_targets_whose_residual_overflows_are_not_unitary():
    # Finite entries whose u u^H overflows to inf - inf = nan must still
    # fail the check, quietly, rather than compare as no deviation at all.
    targets = np.stack([gates.I, 1e200 * np.array([[1, 1j], [1, -1]])])
    with pytest.raises(ValueError, match=r"worst deviation inf"):
        Multiplexer(1, targets)
