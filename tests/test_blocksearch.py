
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmuxopt import blocksearch, cost, gates, group, kernels, mux
from qmuxopt.blocksearch import FPQF, FPRM, KQF, KRM, check_polarity, check_size, count_vector
from qmuxopt.errors import PolarityLengthMismatch, SizeLimitExceeded
from qmuxopt.gates import EPS
from qmuxopt.randmux import POOL_FULL, generate, resolve_pool

import oracle
from oracle import all_polarities, control_count, map_coefficient, per_pair


@pytest.mark.parametrize("n", range(1, 6))
def test_count_vector_matches_the_scalar_counts(n):
    for family in (FPQF, KQF):
        for polarity in all_polarities(n, blocksearch.FAMILY_DIGITS[family]):
            expected = [control_count(i, polarity) for i in range(1 << n)]
            assert count_vector(polarity, family).tolist() == expected, polarity
    for family in (FPRM, KRM):
        for polarity in all_polarities(n, blocksearch.FAMILY_DIGITS[family]):
            expected = [map_coefficient(i, polarity).literal_count for i in range(1 << n)]
            assert count_vector(polarity, family).tolist() == expected, polarity


@pytest.mark.parametrize("chunks", [1, 3, 4096])
def test_count_vector_rows_are_slices_of_the_full_vector(monkeypatch, chunks):
    """count_rows splits the polarity at the bits of a kernels.CHUNK_ROWS
    chunk and reads two small vectors; any slice of positions gives the
    full vector's counts there."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunks)
    rng = np.random.default_rng(41)
    for family in (FPQF, KQF, FPRM, KRM):
        for n in (1, 2, 5, 13):
            polarity = "".join(rng.choice(list(blocksearch.FAMILY_DIGITS[family]), n))
            full = count_vector(polarity, family)
            counts = blocksearch.count_rows(polarity, family)
            for start in {0, 1, 2, (1 << n) // 3, (1 << n) - 1}:
                for stop in {start + 1, start + 3, start + 4096, 1 << n}:
                    rows = slice(start, stop)
                    got = counts(rows)
                    assert got.dtype == np.int64
                    assert got.tolist() == full[rows].tolist(), (polarity, rows)


@pytest.mark.parametrize("family", [FPQF, KQF, FPRM, KRM])
def test_check_polarity_rejects_length_and_digits(family):
    digits = blocksearch.FAMILY_DIGITS[family]
    check_polarity(digits, len(digits), family)
    with pytest.raises(PolarityLengthMismatch, match="expected 3"):
        check_polarity("11", 3, family)
    bad = "2" if len(digits) == 2 else "3"
    with pytest.raises(ValueError, match=f"{family} polarity '1{bad}' uses digits outside"):
        check_polarity("1" + bad, 2, family)


@pytest.mark.parametrize("family", [FPQF, KQF, FPRM, KRM])
def test_check_size_allows_the_limit_and_no_more(family):
    limit = blocksearch.LIMITS[family]
    check_size(family, limit)
    with pytest.raises(
        SizeLimitExceeded,
        match=f"exhaustive {family} search is limited to {limit} variables, got {limit + 1}",
    ):
        check_size(family, limit + 1)


def test_check_size_rejects_an_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        check_size("fpxx", 2)


# --- cascade ---

# Each digit's column on one pair (a, b), a at the clear-bit index, in the
# forward (False) and the inverse (True) cascade.
MATRIX_PAIRS = {
    False: {
        "1": lambda a, b: (a, b @ a.conj().T),
        "0": lambda a, b: (b, a @ b.conj().T),
        "2": lambda a, b: (a, b),
    },
    True: {
        "1": lambda a, b: (a, b @ a),
        "0": lambda a, b: (b @ a, a),
        "2": lambda a, b: (a, b),
    },
}
BIT_PAIRS = {
    "1": lambda x, y: (x, x ^ y),
    "0": lambda x, y: (x ^ y, y),
    "2": lambda x, y: (x, y),
}


def id_pairs(g, inverse):
    """MATRIX_PAIRS on IDs of the group g, through its mul and inv tables."""
    if inverse:
        return {
            "1": lambda a, b: (a, g.mul[b, a]),
            "0": lambda a, b: (g.mul[b, a], a),
            "2": lambda a, b: (a, b),
        }
    return {
        "1": lambda a, b: (a, g.mul[b, g.inv[a]]),
        "0": lambda a, b: (b, g.mul[a, g.inv[b]]),
        "2": lambda a, b: (a, b),
    }


def reference_cascade(vec, polarity, column, inverse):
    """column(vec, digit, bit) -> a new vector, one variable at a time: c_1
    first, or c_n first for the inverse cascade."""
    n = len(polarity)
    for k in reversed(range(n)) if inverse else range(n):
        vec = column(vec, polarity[k], n - 1 - k)
    return vec


def cascade_cases(m, inverse):
    """(family, read-only vector, group, reference column) for matrices,
    group IDs and bits."""
    rng = np.random.default_rng(70 + m)
    matrices = oracle.random_unitaries(rng, 1 << m)
    gate_group, ids = group.intern(generate(m, POOL_FULL, seed=71).targets, 1 << m)
    bits = rng.integers(0, 2, size=1 << m).astype(np.uint8)
    for vec in (matrices, ids, bits):
        vec.setflags(write=False)
    pairs = id_pairs(gate_group, inverse)
    return [
        (KQF, matrices, None,
         lambda v, d, bit: oracle.butterfly_stage(v, MATRIX_PAIRS[inverse][d], bit)),
        (KQF, ids, gate_group, lambda v, d, bit: per_pair(v, pairs[d], bit)),
        (KRM, bits, None, lambda v, d, bit: per_pair(v, BIT_PAIRS[d], bit)),
    ]


@pytest.mark.parametrize("chunk", [1, 3, 4096])
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_cascade_equals_a_chain_of_reference_columns(monkeypatch, inverse, chunk):
    """On matrices (against oracle.butterfly_stage), group IDs and bits
    (per-pair lookups and XORs), in pieces of 1, 3 or 4,096 pairs: bit for
    bit, in the copy each cascade is given."""
    m = 5
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
    for family, vec, gate_group, column in cascade_cases(m, inverse):
        for polarity in ("10201", "00000", "21120", "11111", "22222"):
            want = reference_cascade(vec, polarity, column, inverse)
            work = vec.copy()
            got = blocksearch.cascade(work, polarity, family, gate_group, inverse)
            assert got is work
            assert got.tobytes() == want.tobytes(), (family, polarity)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_cascade_in_place_equals_a_chain_of_fresh_columns(monkeypatch, inverse):
    """The cascade runs its columns in place in the vector it is given, in
    pieces of 3 pairs: bit for bit the same chain of columns run one by one
    in pieces of CHUNK_ROWS, on matrices and on IDs."""
    m = 5
    rng = np.random.default_rng(60)
    matrices = oracle.random_unitaries(rng, 1 << m)
    gate_group, ids = group.intern(generate(m, POOL_FULL, seed=61).targets, 1 << m)
    codes = (blocksearch.INVERSE_CODES if inverse else blocksearch.FORWARD_CODES)[KQF]
    order = range(m - 1, -1, -1) if inverse else range(m)
    for polarity in ("10201", "00000", "21120"):
        for vec, g in ((matrices, None), (ids, gate_group)):
            want = vec.copy()
            for k in order:
                want = kernels.gate_stage(want, codes[polarity[k]], m - 1 - k, g)
            work = vec.copy()
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "CHUNK_ROWS", 3)
                got = blocksearch.cascade(work, polarity, KQF, g, inverse)
            assert got is work and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("polarity", ["11", "11111"], ids=["too-few", "too-many"])
def test_cascade_refuses_a_polarity_of_the_wrong_length(polarity):
    bits = np.zeros(16, np.uint8)
    n = len(polarity)
    message = f"a polarity of {n} digits needs {1 << n} entries, got a vector of 16"
    with pytest.raises(ValueError, match=message):
        blocksearch.cascade(bits, polarity, KRM)


@pytest.mark.parametrize("family", [FPQF, KQF, FPRM, KRM])
def test_the_inverse_cascade_undoes_the_forward_one(family):
    m = 6
    rng = np.random.default_rng(80)
    if family in (FPRM, KRM):
        vectors = [(rng.integers(0, 2, size=1 << m).astype(np.uint8), None)]
    else:
        matrices = oracle.random_unitaries(rng, 1 << m)
        gate_group, ids = group.intern(generate(m, POOL_FULL, seed=81).targets, 1 << m)
        vectors = [(matrices, None), (ids, gate_group)]
    digits = list(blocksearch.FAMILY_DIGITS[family])
    for _ in range(12):
        polarity = "".join(rng.choice(digits, size=m))
        for vec, gate_group in vectors:
            forward = blocksearch.cascade(vec.copy(), polarity, family, gate_group)
            back = blocksearch.cascade(forward, polarity, family, gate_group, inverse=True)
            if vec.ndim == 3:
                assert np.abs(back - vec).max() <= 1e-12, polarity
            else:
                assert back.tobytes() == vec.tobytes(), polarity


def test_columns_are_read_off_kernels_at_call_time_and_called_positionally(monkeypatch):
    """The benchmark's tracer wraps kernels.gate_stage and kernels.gf2_stage
    after import and reads a call's vector and code from its first two
    positional arguments; it counts GF(2) columns under gf2_stage's name."""
    calls = []

    def recorder(name, column):
        def recorded(*args, **kwargs):
            assert not kwargs and len(args) == 4
            calls.append((name, args[1]))
            return column(*args)
        return recorded

    monkeypatch.setattr(kernels, "gate_stage", recorder("gate", kernels.gate_stage))
    monkeypatch.setattr(kernels, "gf2_stage", recorder("gf2", kernels.gf2_stage))
    f = blocksearch.FORWARD_CODES
    gate_group, ids = group.intern(generate(8, POOL_FULL, seed=82).targets, 1 << 8)
    blocksearch.cascade(ids.copy(), "10201102", KQF, gate_group)
    assert calls == [("gate", f[KQF][d]) for d in "10201102"]
    calls.clear()
    # FPQF at m = 8: 2 + 4 DFS columns above the 6-variable block.
    blocksearch.polarity_costs(ids, FPQF, cost.cost_table_vector(8), gate_group)
    assert sorted(calls) == sorted([("gate", f[FPQF]["1"]), ("gate", f[FPQF]["0"])] * 3)
    calls.clear()
    bits = np.random.default_rng(83).integers(0, 2, size=1 << 11).astype(np.uint8)
    blocksearch.cascade(bits.copy(), "10201102112", KRM, inverse=True)
    assert calls == [("gf2", f[KRM][d]) for d in reversed("10201102112")]
    calls.clear()
    # FPRM at n = 11: 2 DFS columns above the 10-variable block.
    blocksearch.polarity_costs(bits, FPRM, np.arange(12))
    assert sorted(calls) == sorted([("gf2", f[FPRM]["1"]), ("gf2", f[FPRM]["0"])])


# --- polarity_costs ---


def per_polarity_costs(vector, family, cost_table, gate_group):
    """Cost of every polarity, in lexicographic order, by its own cascade,
    count vector and leaf cost."""
    n = len(vector).bit_length() - 1
    out = []
    for polarity in all_polarities(n, blocksearch.FAMILY_DIGITS[family]):
        entries = blocksearch.cascade(vector.copy(), polarity, family, gate_group)
        counts = count_vector(polarity, family)
        if family in (FPRM, KRM):
            out.append(int(cost_table[counts[entries == 1]].sum()))
        else:
            out.append(kernels.mux_cost(entries, counts, cost_table, EPS)[0])
    return out


def polarity_cost_cases(family):
    """(vector, group, cost table): complex matrices and full-pool IDs at
    m = 5 for the quantum families, bits at n = 6 for the GF(2) ones."""
    if family in (FPRM, KRM):
        bits = np.random.default_rng(90).integers(0, 2, size=1 << 6).astype(np.uint8)
        return [(bits, None, np.arange(7))]
    matrices = generate(5, resolve_pool("custom:X,I,RX(0.3)"), seed=91).targets
    assert group.intern(matrices, len(matrices)) is None
    gate_group, ids = group.intern(generate(5, POOL_FULL, seed=92).targets, 1 << 5)
    table = cost.cost_table_vector(5)
    return [(matrices, None, table), (ids, gate_group, table)]


def one_row_chunk_rows(vector: np.ndarray, family: str, block: int) -> int:
    """The largest kernels.CHUNK_ROWS at which polarity_costs expands a
    block's rows one a chunk, whose budget is CHUNK_ROWS x 64 bytes of
    slots: one row's bytes / 64, at least 1.  A row under 64 bytes (IDs
    and bits in blocks of 2 variables or fewer) still shares its chunk."""
    width = 3 if family in (FPRM, KRM) else 4
    return max(1, width**block * (vector.nbytes // len(vector)) // 64)


@pytest.mark.parametrize("family", [FPQF, KQF, FPRM, KRM])
def test_polarity_costs_match_per_polarity_cascades(monkeypatch, family):
    """Block sizes 0 (a leaf per polarity), 1 and 2 (a DFS above small
    blocks) and the module's own, each with the default chunk and with
    every row its own chunk."""
    for vector, gate_group, table in polarity_cost_cases(family):
        expected = per_polarity_costs(vector, family, table, gate_group)
        for block in (0, 1, 2, blocksearch.BLOCK_VARS[family]):
            for rows in (kernels.CHUNK_ROWS, one_row_chunk_rows(vector, family, block)):
                with monkeypatch.context() as patch:
                    patch.setitem(blocksearch.BLOCK_VARS, family, block)
                    patch.setattr(kernels, "CHUNK_ROWS", rows)
                    costs = blocksearch.polarity_costs(vector, family, table, gate_group)
                assert costs.dtype == np.int64
                assert costs.tolist() == expected, (block, rows)


def staged_cases(m):
    """(name, standard form) on three pools, one of them no group, and a
    plain target array of the last, with no palette index."""
    rng = np.random.default_rng(90 + m)
    for label in ("full", "nvv", "custom:X,H,RZ(0.7)"):
        yield label, generate(m, resolve_pool(label), seed=int(rng.integers(1 << 16)))
    yield "plain", mux.Multiplexer(m, mux.working_targets(generate(m, POOL_FULL, seed=m)))


def staged_polarities(m, top):
    """FPQF polarities (all-'0', all-'1' and a random one) and KQF ones with
    '2' digits among the `top` digits whose columns run on the palette."""
    rng = np.random.default_rng(m)
    fpqf = "".join(rng.choice(list("01"), m))
    kqf = "".join(rng.choice(list("012"), m))
    mixed_top = "2" + "".join(rng.choice(list("02"), top - 1)) + kqf[top:]
    return ["0" * m, "1" * m, fpqf, kqf, mixed_top, "2" * m]


@pytest.mark.parametrize("chunk, sizes", [(3, (4, 7)), (16, (5, 8)), (4096, (13, 14, 15))])
def test_the_staged_forward_transform_equals_the_plain_cascade(monkeypatch, chunk, sizes):
    """mux.forward_transform runs the columns above the chunk on the palette
    and each chunk's tail where target_chunks reads it: its targets are the
    bytes of blocksearch.cascade on the whole vector, for both families, on
    group and non-group pools, whatever the chunk size."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
    for m in sizes:
        top = m - blocksearch.chunk_digits(m)
        assert top >= 1
        for name, std in staged_cases(m):
            for polarity in staged_polarities(m, top):
                form = mux.form_for_polarity(polarity)
                staged = mux.forward_transform(std, polarity)
                assert staged.palette.tail == polarity[top:]
                plain = blocksearch.cascade(mux.working_targets(std), polarity, form)
                assert staged.targets.tobytes() == plain.tobytes(), (m, name, polarity)


# X with a -0.0 entry: the bytes of X but for one zero's sign.
NEGATIVE_ZERO_X = "M(-0.0,0,1,0,1,0,0,0)"


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    chunk=st.integers(1, 64),
    m=st.integers(1, 9),
    family=st.sampled_from([FPQF, KQF]),
    label=st.sampled_from(
        ["full", f"custom:X,{NEGATIVE_ZERO_X},RZ(0.7)", f"custom:H,RX(0.3),{NEGATIVE_ZERO_X}"]
    ),
    data=st.data(),
)
def test_the_staged_transform_is_the_plain_cascade_byte_for_byte(
    monkeypatch, chunk, m, family, label, data
):
    """Whatever the chunk (1 puts every column on the palette and empties
    the tail), the family and the pool, including a -0.0 literal and a
    rotation that generates no group, the staged transform's targets are
    the bytes of blocksearch.cascade on the whole vector."""
    polarity = data.draw(st.text(blocksearch.FAMILY_DIGITS[family], min_size=m, max_size=m))
    seed = data.draw(st.integers(0, 1 << 16))
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "CHUNK_ROWS", chunk)
        std = generate(m, resolve_pool(label), seed)
        staged = mux.forward_transform(std, polarity)
        assert len(staged.palette.tail) == blocksearch.chunk_digits(m)
        plain = blocksearch.cascade(mux.working_targets(std), polarity, family)
        assert staged.targets.tobytes() == plain.tobytes()


def test_the_head_columns_are_gate_stage_calls_on_the_palette(monkeypatch):
    """staged_forward runs each head digit's column, and no tail digit's, as
    kernels.gate_stage on the gates' palette positions with the palette as
    its group, read off kernels at call time."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", 16)
    std = generate(8, POOL_FULL, seed=4)
    calls = []

    def gate_stage(vec, code, bit, group=None):
        calls.append((vec.ndim, code, bit, type(group)))
        return real_stage(vec, code, bit, group)

    real_stage = kernels.gate_stage
    monkeypatch.setattr(kernels, "gate_stage", gate_stage)
    blocksearch.staged_forward(std.palette.matrices, std.palette.index, "0210" + "1111", KQF)
    codes = [kernels.FORWARD_NEG, kernels.IDENTITY, kernels.FORWARD_POS, kernels.FORWARD_NEG]
    palette = blocksearch._Rows
    assert calls == [(1, code, 7 - k, palette) for k, code in enumerate(codes)]


def test_a_hash_collision_never_merges_two_matrices(monkeypatch):
    """The palette's keys are its matrices' exact 64 bytes, so no collision
    of keys can merge two matrices: _Rows.add gives products of the same
    bytes one position and products that differ in a zero's sign or in one
    ulp positions of their own, and the staged gates stay the plain
    cascade's bytes."""
    x_negative_zero = gates.X.copy()
    x_negative_zero[0, 0] = -0.0
    x_ulp = gates.X.copy()
    x_ulp[0, 1] = np.nextafter(1.0, 2.0)
    rows = blocksearch._Rows(np.stack([gates.I, gates.X]))
    products = np.stack([x_negative_zero, x_ulp, gates.H, x_negative_zero, gates.X, gates.H])
    positions = rows.add(products)
    assert positions.tolist() == rows.add(products).tolist()
    assert positions[0] == positions[3] and positions[2] == positions[5] and positions[4] == 1
    assert sorted({*positions.tolist(), 0}) == [0, 1, 2, 3, 4] and rows.size == 5
    assert rows.buffer[positions].tobytes() == products.tobytes()

    monkeypatch.setattr(kernels, "CHUNK_ROWS", 16)
    for name, std in staged_cases(8):
        for polarity in staged_polarities(8, 4):
            staged = mux.forward_transform(std, polarity)
            plain = blocksearch.cascade(mux.working_targets(std), polarity, "kqf")
            assert staged.targets.tobytes() == plain.tobytes(), (name, polarity)


def test_each_distinct_operand_pair_is_multiplied_once(monkeypatch):
    """The palette's times_inverse sees every pair of every head column, at
    most kernels.CHUNK_ROWS pairs a call; it multiplies each distinct pair
    of operands once a transform, over all its columns, and products of
    the same bytes share one palette matrix."""
    monkeypatch.setattr(kernels, "CHUNK_ROWS", 16)
    std = generate(10, POOL_FULL, seed=12)
    pairs_seen, products = [], []

    def palette_times_inverse(self, x, y, out):
        assert x.size <= 16
        pairs_seen.append(x.size)
        return real_palette_times_inverse(self, x, y, out)

    def times_inverse(x, y, out=None, group=None):
        assert group is None and len(x) <= 16
        products.extend(zip(map(bytes, x), map(bytes, y)))
        return real_times_inverse(x, y, out, group)

    real_palette_times_inverse = blocksearch._Rows.times_inverse
    real_times_inverse = kernels.times_inverse
    monkeypatch.setattr(blocksearch._Rows, "times_inverse", palette_times_inverse)
    monkeypatch.setattr(kernels, "times_inverse", times_inverse)
    matrices, index, tail = blocksearch.staged_forward(
        std.palette.matrices, std.palette.index, "1010011101", "fpqf"
    )
    assert tail == "1101" and sum(pairs_seen) == 6 * (1 << 9)
    assert len(set(products)) == len(products) > 0
    assert len(products) < 6 * (1 << 9)  # the plain cascade multiplies 6 x 2^9
    rows = kernels.byte_keys(matrices)
    assert len(np.unique(rows)) == len(rows)
