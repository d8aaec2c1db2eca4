import numpy as np
import pytest

from qmuxopt import gates, group, kernels, mux, reference
from qmuxopt.randmux import POOL_FULL, POOL_NVV, generate

GATE_KERNELS = [
    kernels.FORWARD_POS,
    kernels.FORWARD_NEG,
    kernels.INVERSE_POS,
    kernels.INVERSE_NEG,
    kernels.IDENTITY,
]


def _random_gate_vector(rng, n):
    return np.stack([reference.random_unitary(rng) for _ in range(n)])


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
            want = reference.butterfly_stage(vec, PAIR_KERNELS[kernel], bit)
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


@pytest.mark.parametrize("n,high", [(0, 1), (1, 1), (50, 7), (1000, 1 << 40)])
def test_unique_matches_np_unique(n, high):
    values = np.random.default_rng(n).integers(0, high, size=n).astype(np.uint64)
    got = kernels.unique(values)
    expected = np.unique(values, return_index=True, return_inverse=True)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


@pytest.mark.parametrize("chunk", [1, 3, kernels.CHUNK_ROWS])
@pytest.mark.parametrize("kernel", GATE_KERNELS)
def test_in_place_column_equals_the_fresh_column(monkeypatch, kernel, chunk):
    """Bit for bit, on matrices and on IDs, at bit 0, a middle bit and the
    top bit, with pieces of 1, 3 and CHUNK_ROWS pairs against a fresh
    column over the whole vector."""
    m = 6
    matrices = _random_gate_vector(np.random.default_rng(43), 1 << m)
    clifford = generate(m, POOL_FULL, seed=44).targets
    gate_group, ids = group.intern(clifford)
    cases = [(matrices, None), (clifford, None), (ids, gate_group)]
    for bit in (0, m // 2, m - 1):
        wants = [kernels.gate_stage(vec, kernel, bit, g) for vec, g in cases]
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "CHUNK_ROWS", chunk)
            for (vec, g), want in zip(cases, wants):
                fresh = kernels.gate_stage(vec, kernel, bit, g)
                work = vec.copy()
                in_place = kernels.gate_stage(work, kernel, bit, g, out=work)
                assert in_place is work
                assert fresh.tobytes() == want.tobytes()
                assert in_place.tobytes() == want.tobytes()


def test_column_into_a_separate_out_leaves_the_input_alone():
    vec = _random_gate_vector(np.random.default_rng(45), 16)
    before = vec.copy()
    out = np.empty_like(vec)
    got = kernels.gate_stage(vec, kernels.FORWARD_NEG, 2, out=out)
    assert got is out
    assert got.tobytes() == kernels.gate_stage(vec, kernels.FORWARD_NEG, 2).tobytes()
    assert vec.tobytes() == before.tobytes()


@pytest.mark.parametrize("chunk", [1, 3])
def test_identity_mask_is_the_same_in_any_chunking(monkeypatch, chunk):
    vec = generate(5, POOL_FULL, seed=46).targets.copy()
    vec[3] = gates.I * np.exp(0.5e-9j)  # within EPS of I
    vec[4] = gates.I * np.exp(2e-9j)  # just past it
    want = kernels.identity_mask(vec, gates.EPS)
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
    assert np.array_equal(kernels.identity_mask(vec, gates.EPS), want)
    assert want[3] and not want[4]
