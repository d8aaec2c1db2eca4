import numpy as np
import pytest

from qmuxopt import gates, group, kernels, mux
from qmuxopt.randmux import POOL_FULL, POOL_NVV, generate

GATE_KERNELS = [
    kernels.FORWARD_POS,
    kernels.FORWARD_NEG,
    kernels.INVERSE_POS,
    kernels.INVERSE_NEG,
    kernels.IDENTITY,
]


def _random_gate_vector(rng, n):
    return np.stack([gates.random_unitary(rng) for _ in range(n)])


# Per-pair references: the same products on one 2x2 pair at a time.
PAIR_KERNELS = {
    kernels.FORWARD_POS: lambda a, b: (a, b @ a.conj().T),
    kernels.FORWARD_NEG: lambda a, b: (b, a @ b.conj().T),
    kernels.INVERSE_POS: lambda a, b: (a, b @ a),
    kernels.INVERSE_NEG: lambda a, b: (b @ a, a),
    kernels.IDENTITY: lambda a, b: (a, b),
}

GF2_PAIR_KERNELS = {
    kernels.GF2_POS: lambda x, y: (x, x ^ y),
    kernels.GF2_NEG: lambda x, y: (x ^ y, y),
    kernels.GF2_MIXED: lambda x, y: (x, y),
}


def _gate_vectors(m):
    rng = np.random.default_rng(20 + m)
    clifford = generate(m, POOL_FULL, seed=m).targets
    for vec in (_random_gate_vector(rng, 1 << m), clifford):
        yield vec
        yield np.asfortranarray(vec)


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("kernel", GATE_KERNELS)
def test_gate_stage_matches_per_pair_reference(kernel, m):
    # Bit-exact, not within a tolerance: reports print the full float.
    for vec in _gate_vectors(m):
        for bit in range(m):
            want = mux.butterfly_stage(vec, PAIR_KERNELS[kernel], bit)
            got = kernels.gate_stage(vec, kernel, bit)
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("kernel", GATE_KERNELS)
def test_group_id_stage_matches_complex_stage(kernel, m):
    for pool in (POOL_FULL, POOL_NVV):
        vec = generate(m, pool, seed=30 + m).targets
        gate_group, ids = group.intern(vec)
        for bit in range(m):
            got = kernels.gate_stage(ids, kernel, bit, gate_group)
            assert got.dtype == np.uint8 and got.shape == ids.shape
            want = kernels.gate_stage(vec, kernel, bit)
            assert np.abs(gate_group.elements[got] - want).max() <= 1e-12


def test_identity_mask_on_id_vectors():
    vec = generate(6, POOL_FULL, seed=31).targets
    gate_group, ids = group.intern(vec)
    assert np.array_equal(kernels.identity_mask(ids, gates.EPS), ids == 0)
    assert np.array_equal(
        kernels.identity_mask(ids, gates.EPS), kernels.identity_mask(vec, gates.EPS)
    )
    table = np.arange(7, dtype=np.int64)
    counts = np.arange(64, dtype=np.int64) % 7
    assert kernels.mux_cost(ids, counts, table, gates.EPS) == kernels.mux_cost(
        vec, counts, table, gates.EPS
    )


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("kernel", list(GF2_PAIR_KERNELS))
def test_gf2_stage_matches_per_pair_reference(kernel, n):
    vec = np.random.default_rng(40 + n).integers(0, 2, size=1 << n).astype(np.uint8)
    for bit in range(n):
        want = vec.copy()
        step = 1 << bit
        for base in range(1 << n):
            if not base & step:
                want[base], want[base + step] = GF2_PAIR_KERNELS[kernel](
                    vec[base], vec[base + step]
                )
        got = kernels.gf2_stage(vec, kernel, bit)
        assert got.dtype == vec.dtype
        assert np.array_equal(got, want)


def test_unknown_kernel_codes_rejected():
    with pytest.raises(ValueError):
        kernels.gate_stage(_random_gate_vector(np.random.default_rng(0), 4), 9, 0)
    with pytest.raises(ValueError):
        kernels.gf2_stage(np.zeros(4, dtype=np.uint8), 9, 0)
    gate_group, ids = group.intern(np.stack([gates.I, gates.X] * 2))
    with pytest.raises(ValueError):
        kernels.gate_stage(ids, 9, 0, gate_group)


def test_gf2_kernels_are_self_inverse():
    rng = np.random.default_rng(41)
    vec = rng.integers(0, 2, size=16).astype(np.uint8)
    for kernel in (kernels.GF2_POS, kernels.GF2_NEG, kernels.GF2_MIXED):
        twice = kernels.gf2_stage(kernels.gf2_stage(vec, kernel, 2), kernel, 2)
        assert np.array_equal(twice, vec)


def test_forward_and_inverse_kernels_cancel():
    rng = np.random.default_rng(42)
    vec = _random_gate_vector(rng, 8)
    for fwd, inv in [
        (kernels.FORWARD_POS, kernels.INVERSE_POS),
        (kernels.FORWARD_NEG, kernels.INVERSE_NEG),
    ]:
        back = kernels.gate_stage(kernels.gate_stage(vec, fwd, 1), inv, 1)
        assert np.abs(back - vec).max() <= 1e-12
