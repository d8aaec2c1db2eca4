import numpy as np
import pytest

from qmuxopt import gates, group, kernels, mux
from qmuxopt.randmux import POOL_FULL, POOL_NVV, generate

import oracle

GATE_KERNELS = [
    kernels.FORWARD_POS,
    kernels.FORWARD_NEG,
    kernels.INVERSE_POS,
    kernels.INVERSE_NEG,
    kernels.IDENTITY,
]


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

# The same per-pair products on group IDs, through the mul and inv tables.
ID_PAIR_KERNELS = {
    kernels.FORWARD_POS: lambda g, a, b: (a, g.mul[b, g.inv[a]]),
    kernels.FORWARD_NEG: lambda g, a, b: (b, g.mul[a, g.inv[b]]),
    kernels.INVERSE_POS: lambda g, a, b: (a, g.mul[b, a]),
    kernels.INVERSE_NEG: lambda g, a, b: (g.mul[b, a], a),
    kernels.IDENTITY: lambda g, a, b: (a, b),
}


def _gate_vectors(m):
    rng = np.random.default_rng(20 + m)
    return oracle.random_unitaries(rng, 1 << m), generate(m, POOL_FULL, seed=m).targets


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("kernel", GATE_KERNELS)
def test_gate_stage_matches_per_pair_reference(kernel, m):
    # Bit-exact, not within a tolerance: reports print the full float.
    for vec in _gate_vectors(m):
        for bit in range(m):
            want = oracle.butterfly_stage(vec, PAIR_KERNELS[kernel], bit)
            got = kernels.gate_stage(vec.copy(), kernel, bit)
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("kernel", GATE_KERNELS)
def test_group_id_stage_matches_complex_stage(kernel, m):
    for pool in (POOL_FULL, POOL_NVV):
        vec = generate(m, pool, seed=30 + m).targets
        gate_group, ids = group.intern(vec, len(vec))
        for bit in range(m):
            got = kernels.gate_stage(ids.copy(), kernel, bit, gate_group)
            assert got.dtype == np.uint8 and got.shape == ids.shape
            want = kernels.gate_stage(vec.copy(), kernel, bit)
            assert np.abs(gate_group.elements[got] - want).max() <= 1e-12


def test_identity_mask_on_id_vectors():
    vec = generate(6, POOL_FULL, seed=31).targets
    gate_group, ids = group.intern(vec, len(vec))
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
        want = oracle.per_pair(vec, GF2_PAIR_KERNELS[kernel], bit)
        got = kernels.gf2_stage(vec.copy(), kernel, bit)
        assert got.dtype == vec.dtype
        assert np.array_equal(got, want)


def test_unknown_kernel_codes_rejected():
    with pytest.raises(ValueError):
        kernels.gate_stage(oracle.random_unitaries(np.random.default_rng(0), 4), 9, 0)
    with pytest.raises(ValueError):
        kernels.gf2_stage(np.zeros(4, dtype=np.uint8), 9, 0)
    gate_group, ids = group.intern(np.stack([gates.I, gates.X] * 2), 4)
    with pytest.raises(ValueError):
        kernels.gate_stage(ids, 9, 0, gate_group)


def test_gf2_kernels_are_self_inverse():
    rng = np.random.default_rng(41)
    vec = rng.integers(0, 2, size=16).astype(np.uint8)
    for kernel in (kernels.GF2_POS, kernels.GF2_NEG, kernels.GF2_MIXED):
        twice = kernels.gf2_stage(kernels.gf2_stage(vec.copy(), kernel, 2), kernel, 2)
        assert np.array_equal(twice, vec)


def test_forward_and_inverse_kernels_cancel():
    rng = np.random.default_rng(42)
    vec = oracle.random_unitaries(rng, 8)
    for fwd, inv in [
        (kernels.FORWARD_POS, kernels.INVERSE_POS),
        (kernels.FORWARD_NEG, kernels.INVERSE_NEG),
    ]:
        back = kernels.gate_stage(kernels.gate_stage(vec.copy(), fwd, 1), inv, 1)
        assert np.abs(back - vec).max() <= 1e-12


def test_gf2_stage_is_gate_stage():
    assert kernels.gf2_stage is kernels.gate_stage
    assert kernels.GF2_MIXED == kernels.IDENTITY
    assert len({*GATE_KERNELS, *GF2_PAIR_KERNELS}) == 7


def _column_cases(m, kernel):
    """(vector, group, per-pair reference of a column at a bit) for every
    vector kind the kernel code takes."""
    if kernel in (kernels.GF2_POS, kernels.GF2_NEG):
        bits = np.random.default_rng(47).integers(0, 2, size=1 << m).astype(np.uint8)
        return [(bits, None, lambda bit: oracle.per_pair(bits, GF2_PAIR_KERNELS[kernel], bit))]
    matrices = oracle.random_unitaries(np.random.default_rng(43), 1 << m)
    clifford = generate(m, POOL_FULL, seed=44).targets
    gate_group, ids = group.intern(clifford, len(clifford))
    pair = PAIR_KERNELS[kernel]
    return [
        (matrices, None, lambda bit: oracle.butterfly_stage(matrices, pair, bit)),
        (clifford, None, lambda bit: oracle.butterfly_stage(clifford, pair, bit)),
        (
            ids,
            gate_group,
            lambda bit: oracle.per_pair(
                ids, lambda a, b: ID_PAIR_KERNELS[kernel](gate_group, a, b), bit
            ),
        ),
    ]


@pytest.mark.parametrize("chunk", [1, 3, kernels.CHUNK_ROWS])
@pytest.mark.parametrize("kernel", [*GATE_KERNELS, kernels.GF2_POS, kernels.GF2_NEG])
def test_every_column_runs_in_place_in_any_chunking(monkeypatch, kernel, chunk):
    """Every code, on matrices, Clifford matrices, group IDs and bits, at
    bit 0, a middle bit and the top bit: the column overwrites the vector
    it is given with the per-pair reference, bit for bit, whether a piece
    holds 1, 3 or CHUNK_ROWS pairs."""
    m = 6
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
    for vec, gate_group, reference_at in _column_cases(m, kernel):
        for bit in (0, m // 2, m - 1):
            want = reference_at(bit)
            work = vec.copy()
            got = kernels.gate_stage(work, kernel, bit, gate_group)
            assert got is work
            assert got.dtype == vec.dtype and got.shape == vec.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", [*GATE_KERNELS, kernels.GF2_POS, kernels.GF2_NEG])
def test_column_refuses_a_vector_it_cannot_write_in_place(kernel):
    """A read-only vector, or one that is not C-contiguous, whose halves
    would be copies, is refused and left as it was."""
    if kernel in (kernels.GF2_POS, kernels.GF2_NEG):
        vec = np.random.default_rng(48).integers(0, 2, size=32).astype(np.uint8)
    else:
        vec = oracle.random_unitaries(np.random.default_rng(48), 32)
    read_only = vec.copy()
    read_only.setflags(write=False)
    strided = vec.copy()[::2]
    refused = [read_only, strided]
    if vec.ndim == 3:
        refused.append(np.asfortranarray(vec))
    for bad in refused:
        before = bad.tobytes()
        with pytest.raises(ValueError, match="writable C-contiguous"):
            kernels.gate_stage(bad, kernel, 1)
        assert bad.tobytes() == before


@pytest.mark.parametrize("chunk", [1, 3])
def test_identity_mask_is_the_same_in_any_chunking(monkeypatch, chunk):
    vec = generate(5, POOL_FULL, seed=46).targets.copy()
    vec[3] = gates.I * np.exp(0.5e-9j)  # within EPS of I
    vec[4] = gates.I * np.exp(2e-9j)  # just past it
    want = kernels.identity_mask(vec, gates.EPS)
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
    assert np.array_equal(kernels.identity_mask(vec, gates.EPS), want)
    assert want[3] and not want[4]


def test_identity_mask_writes_into_a_given_vector():
    mats = generate(5, POOL_FULL, seed=47).targets
    ids = np.array([0, 3, 0, 1], dtype=np.uint8)
    for entries in (mats, ids):
        want = kernels.identity_mask(entries, gates.EPS)
        out = np.ones(len(entries), dtype=bool)
        assert kernels.identity_mask(entries, gates.EPS, out=out) is out
        assert np.array_equal(out, want)


def _plain_within(stack, matrix):
    """The plain rule rows_within must keep: each row's largest complex
    difference from `matrix`, in modulus, at most EPS."""
    return np.abs(stack - matrix).reshape(len(stack), 4).max(axis=1) <= gates.EPS


def _edge_cases(matrix):
    """Matrices at the edge of EPS from `matrix`: each float part moved by
    exactly +-EPS, by the floats next to it and by 2 EPS, or set to NaN or
    +-inf; each entry moved in both parts at once, each part within EPS and
    the modulus on either side of it; and every zero part made -0.0."""
    eps = gates.EPS
    out = [np.array(matrix, dtype=complex)]
    moves = (eps, -eps, np.nextafter(eps, 0), np.nextafter(eps, 1), 2 * eps)
    for part in range(8):
        for move in (*moves, np.nan, np.inf, -np.inf):
            m = out[0].copy()
            m.view(np.float64).reshape(8)[part] += move
            out.append(m)
    for entry in range(4):
        for re, im in ((0.7, 0.7), (0.71, 0.71), (0.8, 0.8), (0.6, 0.8), (1.0, 1.0), (-0.9, 0.5)):
            m = out[0].copy()
            m.reshape(4)[entry] += complex(re, im) * eps
            out.append(m)
    signed = out[0].copy()
    floats = signed.view(np.float64)
    floats[floats == 0] = -0.0
    out.append(signed)
    out.append(out[0] + complex(np.inf, np.nan))
    return out


def _within_eps_stack():
    """The edge cases of I and of every catalog gate, with full-pool targets
    and Haar-random unitaries."""
    cases = [m for mat in gates.CATALOG.values() for m in _edge_cases(mat)]
    rng = np.random.default_rng(48)
    return np.concatenate([
        np.stack(cases), generate(5, POOL_FULL, seed=48).targets, oracle.random_unitaries(rng, 40),
    ])


def _strided(stack):
    """The same matrices as every other row of a larger stack."""
    big = np.empty((2 * len(stack), 2, 2), dtype=complex)
    big[::2] = stack
    big[1::2] = gates.I
    return big[::2]


def test_the_within_eps_cases_reach_both_sides_of_the_rule():
    stack = _within_eps_stack()
    for mat in gates.CATALOG.values():
        plain = _plain_within(stack, mat)
        parts = np.abs((stack - mat).view(np.float64)).reshape(len(stack), 8).max(axis=1)
        assert 20 < plain.sum() < len(stack) - 20
        assert np.any(~plain & (parts <= gates.EPS))  # parts within, modulus not
        # A part exactly EPS away, where the gate has a zero part (V's are
        # all +-0.5, and 0.5 + EPS - 0.5 is not EPS in floats).
        assert np.any(plain & (parts == gates.EPS)) == (mat.view(np.float64) == 0).any()


@pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
def test_rows_within_is_the_plain_rule(layout):
    """rows_within, which narrows by float part before the modulus, keeps
    exactly the rows the plain modulus rule keeps, for I and every catalog
    gate, on NaN, inf, -0.0 and edge-of-EPS entries, in any layout."""
    stack = _within_eps_stack()
    stack = {
        "contiguous": stack,
        "strided": _strided(stack),
        "transposed": stack.transpose(0, 2, 1),
    }[layout]
    for mat in [np.eye(2), *gates.CATALOG.values()]:
        got = kernels.rows_within(stack, mat, gates.EPS)
        assert np.array_equal(got, np.flatnonzero(_plain_within(stack, mat)))


@pytest.mark.parametrize("chunk", [3, None])
def test_identity_mask_and_render_keep_the_plain_rule(monkeypatch, chunk):
    """identity_mask and render_gates, at CHUNK_ROWS 3 and at the default,
    decide as the plain rule: a gate is the identity, or renders as a
    catalog name, exactly when it is within EPS of that gate."""
    if chunk is not None:
        monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
    stack = _within_eps_stack()
    for vec in (stack, _strided(stack)):
        assert np.array_equal(kernels.identity_mask(vec, gates.EPS), _plain_within(vec, gates.I))
        want = np.full(len(vec), "literal", dtype=object)
        for name, mat in gates.CATALOG.items():
            want[_plain_within(vec, mat)] = name
        tokens = np.array(oracle.flat(gates.render_gates(vec)), dtype=object)
        literal = np.char.startswith(tokens.astype(str), "M(")
        assert np.array_equal(np.where(literal, "literal", tokens), want)
