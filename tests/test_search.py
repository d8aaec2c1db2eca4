import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmuxopt import blocksearch, cost, gates, group, kernels, mux, randmux, search
from qmuxopt.boolrm import BoolFunc
from qmuxopt.cost import multiplexer_cost
from qmuxopt.errors import FormMismatch, SizeLimitExceeded
from qmuxopt.mux import Multiplexer, forward_transform
from qmuxopt.pla import to_multiplexer
from qmuxopt.randmux import POOL_FULL, POOL_NVV, GatePool, generate, resolve_pool
from qmuxopt.search import (
    SearchConfig,
    exhaustive_search,
    random_polarity_search,
    run_search,
)

import oracle
from oracle import all_polarities, ivvx_case, slot_index, triangular_solve


def brute_force_report(std, digits):
    """Independent path: no shared prefixes, no fast kernels."""
    costs = {}
    for polarity in all_polarities(std.controls, digits):
        costs[polarity] = multiplexer_cost(triangular_solve(std, polarity)).total
    best = min(costs.items(), key=lambda kv: (kv[1], kv[0]))
    worst = max(costs.items(), key=lambda kv: (kv[1], [-ord(c) for c in kv[0]]))
    return best, worst, sum(costs.values()) / len(costs), costs


def test_exhaustive_on_the_known_case():
    report = exhaustive_search(ivvx_case(), SearchConfig(family="fpqf"))
    assert report.original_cost == 15
    assert (report.best_polarity, report.best_cost) == ("11", 2)
    assert report.polarities_evaluated == 4
    assert report.best_cost <= report.average_cost <= report.worst_cost


def test_mixed_family_never_beats_the_embedding_bound():
    report = exhaustive_search(ivvx_case(), SearchConfig(family="kqf"))
    assert report.best_cost <= 15
    assert report.polarities_evaluated == 9


def test_all_identity_targets_cost_nothing_everywhere():
    std = Multiplexer(2, np.stack([gates.I] * 4))
    report = exhaustive_search(std, SearchConfig(family="fpqf"))
    assert report.best_cost == report.worst_cost == 0
    assert report.original_cost == 0
    assert report.average_reduction == 0.0


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family,digits", [("fpqf", "01"), ("kqf", "012")])
def test_exhaustive_matches_naive_loop(m, family, digits):
    rng = np.random.default_rng(120 + m)
    std = Multiplexer(m, oracle.random_unitaries(rng, 1 << m))
    report = exhaustive_search(std, SearchConfig(family=family))
    best, worst, average, _ = brute_force_report(std, digits)
    assert (report.best_polarity, report.best_cost) == best
    assert (report.worst_polarity, report.worst_cost) == worst
    assert report.average_cost == pytest.approx(average)


def test_polarity_cost_stream_matches_direct_transforms():
    rng = np.random.default_rng(124)
    std = Multiplexer(3, oracle.random_unitaries(rng, 8))
    streamed = search.polarity_costs(std, "kqf").tolist()
    for polarity, value in zip(all_polarities(3, "012"), streamed, strict=True):
        assert value == multiplexer_cost(forward_transform(std, polarity)).total


def test_kqf_restricted_to_fixed_digits_reproduces_fpqf():
    rng = np.random.default_rng(125)
    std = Multiplexer(3, oracle.random_unitaries(rng, 8))
    kqf_costs = zip(all_polarities(3, "012"), search.polarity_costs(std, "kqf").tolist())
    fpqf_costs = search.polarity_costs(std, "fpqf").tolist()
    assert [c for p, c in kqf_costs if "2" not in p] == fpqf_costs


def test_mixed_best_bounded_by_fixed_best_and_original():
    for seed in range(6):
        std = generate(3, POOL_FULL if seed % 2 else POOL_NVV, seed=seed)
        fixed = exhaustive_search(std, SearchConfig(family="fpqf"))
        mixed = exhaustive_search(std, SearchConfig(family="kqf"))
        assert mixed.best_cost <= fixed.best_cost
        assert mixed.best_cost <= fixed.original_cost


def test_exhaustive_size_limits():
    std = generate(10, POOL_NVV, seed=0)
    with pytest.raises(SizeLimitExceeded):
        exhaustive_search(std, SearchConfig(family="kqf"))
    big = generate(15, POOL_NVV, seed=0)
    with pytest.raises(SizeLimitExceeded):
        exhaustive_search(big, SearchConfig(family="fpqf"))


def test_polarity_cost_stream_enforces_the_size_limit():
    std = generate(10, POOL_NVV, seed=0)
    with pytest.raises(SizeLimitExceeded, match="exhaustive kqf search is limited to 9"):
        search.polarity_costs(std, "kqf")


def test_kqf_size_limit_comes_before_interning(monkeypatch):
    std = generate(10, POOL_NVV, seed=0)

    def refuse(targets, count):
        raise AssertionError("interned an oversized multiplexer")

    monkeypatch.setattr(group, "intern", refuse)
    with pytest.raises(SizeLimitExceeded, match="exhaustive kqf search is limited to 9"):
        search.polarity_costs(std, "kqf")


def test_search_requires_standard_form():
    polarized = forward_transform(ivvx_case(), "11")
    with pytest.raises(FormMismatch):
        exhaustive_search(polarized, SearchConfig(family="fpqf"))


def test_random_single_sample():
    report = random_polarity_search(
        ivvx_case(), SearchConfig(family="fpqf", mode="random", samples=1, seed=9)
    )
    assert report.polarities_evaluated == 1
    assert report.best_polarity == report.worst_polarity
    assert report.best_cost == report.worst_cost == report.average_cost


def test_random_is_deterministic_per_seed():
    cfg = SearchConfig(family="kqf", mode="random", samples=8, seed=123)
    a = random_polarity_search(ivvx_case(), cfg)
    b = random_polarity_search(ivvx_case(), cfg)
    assert a == b  # elapsed excluded from comparison


def test_random_draws_are_a_subset_of_exhaustive():
    exhaustive = exhaustive_search(ivvx_case(), SearchConfig(family="fpqf"))
    report = random_polarity_search(
        ivvx_case(), SearchConfig(family="fpqf", mode="random", samples=16, seed=3)
    )
    assert exhaustive.best_cost <= report.best_cost <= report.worst_cost
    assert report.best_cost <= exhaustive.original_cost


def test_run_search_dispatches_on_mode():
    ex = run_search(ivvx_case(), SearchConfig(family="fpqf"))
    rnd = run_search(ivvx_case(), SearchConfig(family="fpqf", mode="random", samples=2, seed=1))
    assert ex.mode == "exhaustive"
    assert rnd.mode == "random"


def test_report_csv_row_column_order():
    report = exhaustive_search(ivvx_case(), SearchConfig(family="fpqf"))
    fields = report.csv_row().split(",")
    assert fields[0] == "2"        # controls
    assert fields[1] == "15"       # original
    assert fields[2] == "2"        # best
    assert fields[3] == "3"        # worst
    assert float(fields[4]) == pytest.approx(2.75)
    assert float(fields[5]) == pytest.approx(100 * (1 - 2.75 / 15), abs=0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(family="nope")
    with pytest.raises(ValueError):
        SearchConfig(mode="sideways")
    with pytest.raises(ValueError):
        SearchConfig(samples=0)


ORIGINAL_COST_POOLS = {
    "full": POOL_FULL,
    "nvv": POOL_NVV,
    "all-identity": GatePool("ident", ("I",)),
    "rx": resolve_pool("custom:X,RX(0.3)"),
}


@pytest.mark.parametrize("pool", list(ORIGINAL_COST_POOLS))
@pytest.mark.parametrize("m", [1, 4, 11])  # 11 is past the cost table (32 m - 96)
def test_original_cost_equals_the_standard_form_cost_report(pool, m):
    std = generate(m, ORIGINAL_COST_POOLS[pool], seed=270 + m)
    expected = multiplexer_cost(std).total
    random_cfg = SearchConfig(family="kqf", mode="random", samples=1, seed=2)
    assert random_polarity_search(std, random_cfg).original_cost == expected
    if m <= 4:
        assert exhaustive_search(std, SearchConfig(family="fpqf")).original_cost == expected


# Inputs whose targets close into a small group, so the search walks IDs.
GROUP_CASES = {
    "full": lambda m: generate(m, POOL_FULL, seed=200 + m),
    "nvv": lambda m: generate(m, POOL_NVV, seed=210 + m),
    "custom-h-z": lambda m: generate(m, resolve_pool("custom:H,Z"), seed=220 + m),
    # S = diag(1, i) as a matrix literal: a Clifford outside the catalog.
    "clifford-literal": lambda m: generate(
        m, GatePool("custom", ("M(1,0,0,0,0,0,0,1)", "H", "I")), seed=230 + m
    ),
    "pla-x-i": lambda m: to_multiplexer(
        BoolFunc(m, np.random.default_rng(240 + m).integers(0, 2, size=1 << m))
    ),
}

# Inputs that do not close into at most 256 elements: the complex path runs.
FALLBACK_CASES = {
    "rx-pool": lambda m: generate(m, resolve_pool("custom:X,RX(0.3)"), seed=250 + m),
    "random-unitaries": lambda m: Multiplexer(
        m, oracle.random_unitaries(np.random.default_rng(260 + m), 1 << m)
    ),
    "over-256-distinct": lambda m: Multiplexer(
        m, np.stack([gates.rz(0.01 * k) for k in range(1 << m)])
    ),
}


def _complex_reference(monkeypatch, fn, *args):
    """fn(*args) with interning switched off: the complex gate_stage/EPS path."""
    with monkeypatch.context() as patch:
        patch.setattr(search.group, "intern", lambda targets, count: None)
        return fn(*args)


ALL_CASES = {**GROUP_CASES, **FALLBACK_CASES}


@pytest.mark.parametrize("case", list(ALL_CASES))
@pytest.mark.parametrize("family", ["fpqf", "kqf"])
def test_group_path_streams_match_complex_path(monkeypatch, case, family):
    for m in range(1, 7):
        std = ALL_CASES[case](m)
        assert (group.intern(std.targets, std.num_targets) is None) == (case in FALLBACK_CASES)
        ids_stream = search.polarity_costs(std, family).tolist()
        complex_stream = _complex_reference(
            monkeypatch, lambda: search.polarity_costs(std, family).tolist()
        )
        assert ids_stream == complex_stream


@pytest.mark.parametrize("case", list(ALL_CASES))
@pytest.mark.parametrize("family", ["fpqf", "kqf"])
def test_random_search_group_path_matches_complex_path(monkeypatch, case, family):
    # m = 9 puts 512 distinct targets in the over-256 case.
    std = ALL_CASES[case](9 if case == "over-256-distinct" else 6)
    assert (group.intern(std.targets, std.num_targets) is None) == (case in FALLBACK_CASES)
    cfg = SearchConfig(family=family, mode="random", samples=24, seed=7)
    report = random_polarity_search(std, cfg)
    assert report == _complex_reference(monkeypatch, random_polarity_search, std, cfg)


# H written with 13 and 14 digits: each FPQF column squares the residual
# of H'^2 = c I, so at m = 14 the complex path counts a gate the ID path
# would call the identity, unless intern declines the input.
H13 = "M(0.7071067811865,0,0.7071067811865,0,0.7071067811865,0,-0.7071067811865,0)"
H14 = "M(0.70710678118655,0,0.70710678118655,0,0.70710678118655,0,-0.70710678118655,0)"


@pytest.mark.parametrize(
    "tokens,m",
    [((H13,), 14), ((H14,), 14), ((H14, "I"), 14), ((H13, "I"), 17), ((H14, "X", "I"), 17)],
    ids=["h13-m14", "h14-m14", "h14-i-m14", "h13-i-m17", "h14-x-i-m17"],
)
def test_random_search_on_rounded_h_literals_matches_complex_path(monkeypatch, tokens, m):
    std = generate(m, GatePool("custom", tokens), seed=3)
    cfg = SearchConfig(family="fpqf", mode="random", samples=2, seed=1)
    report = random_polarity_search(std, cfg)
    assert report == _complex_reference(monkeypatch, random_polarity_search, std, cfg)


@pytest.mark.parametrize("family,m", [("fpqf", 11), ("kqf", 7)])
def test_exhaustive_search_on_rounded_h_literal_matches_complex_path(monkeypatch, family, m):
    # The deepest m at which intern accepts the 13-digit H for FPQF.
    std = generate(m, GatePool("custom", (H13, "I")), seed=4)
    assert group.intern(std.targets, std.num_targets) is not None
    stream = search.polarity_costs(std, family).tolist()
    assert stream == _complex_reference(
        monkeypatch, lambda: search.polarity_costs(std, family).tolist()
    )


def per_polarity_reference(std, family):
    """Cost of every polarity, in lexicographic order, by its own complex
    cascade: no shared prefixes, no QETV slots, no group IDs."""
    cost_table = cost.cost_table_vector(std.controls)
    out = []
    for polarity in all_polarities(std.controls, search.FAMILY_DIGITS[family]):
        targets = blocksearch.cascade(std.targets.copy(), polarity, family)
        counts = cost.control_count_vector(polarity)
        out.append(kernels.mux_cost(targets, counts, cost_table, mux.EPS)[0])
    return out


# Block sizes 0 (a leaf per polarity), 1 and 3 (a DFS above small blocks),
# 6 (the production block; one DFS digit above it at m = 7) and 9 (>= m:
# one block, no DFS).
BLOCKS = (0, 1, 3, 6, 9)


@pytest.mark.parametrize("case", list(ALL_CASES))
@pytest.mark.parametrize("family", ["fpqf", "kqf"])
def test_block_search_matches_per_polarity_reference(monkeypatch, case, family):
    for m in range(1, 7):
        std = ALL_CASES[case](m)
        expected = per_polarity_reference(std, family)
        for block in BLOCKS:
            monkeypatch.setitem(blocksearch.BLOCK_VARS, family, block)
            assert search.polarity_costs(std, family).tolist() == expected, (m, block)


@pytest.mark.parametrize("family", ["fpqf", "kqf"])
def test_block_search_on_rounded_h_literal_matches_per_polarity_reference(monkeypatch, family):
    std = generate(7, GatePool("custom", (H13, "I")), seed=4)
    assert group.intern(std.targets, std.num_targets) is not None
    expected = per_polarity_reference(std, family)
    for block in BLOCKS:
        monkeypatch.setitem(blocksearch.BLOCK_VARS, family, block)
        assert search.polarity_costs(std, family).tolist() == expected, block


@pytest.mark.parametrize("pool", ["full", "custom:X,I,RX(0.3)"])
@pytest.mark.parametrize("family", ["fpqf", "kqf"])
def test_block_search_is_the_same_when_every_row_is_its_own_chunk(monkeypatch, pool, family):
    # m = 8: two DFS digits above the 6-variable block, so 4 rows a node.
    std = generate(8, resolve_pool(pool), seed=320)
    assert (group.intern(std.targets, std.num_targets) is None) == (pool != "full")
    expected = search.polarity_costs(std, family)
    # A 4^6-slot row takes 4 KB of IDs or 256 KB of matrices; the chunk
    # budget is kernels.CHUNK_ROWS x 64 bytes.
    row_bytes = 4**6 * (1 if pool == "full" else 64)
    monkeypatch.setattr(kernels, "CHUNK_ROWS", row_bytes // 64)
    assert np.array_equal(search.polarity_costs(std, family), expected)


@pytest.mark.parametrize("pool", ["full", "h13"])
@pytest.mark.parametrize("family", ["fpqf", "kqf"])
def test_compared_last_level_on_ids_matches_per_polarity_reference(monkeypatch, pool, family):
    """On IDs a block compares its last variable's pairs instead of taking
    their products (b a^-1 is ID 0 exactly when a == b).  Every block size
    from 0 to the production 6, each with the default chunk and with every
    row its own chunk, on the full pool and on the rounded H literal,
    where intern accepts only at small m."""
    pools = {"full": POOL_FULL, "h13": GatePool("custom", (H13, "I"))}
    # KQF at m = 6 keeps block 0 with one-row chunks (46,656 of them) short.
    std = generate(7 if family == "fpqf" else 6, pools[pool], seed=324)
    gate_group, ids = group.intern(std.targets, std.num_targets)
    table = cost.cost_table_vector(std.controls)
    expected = per_polarity_reference(std, family)
    assert search.polarity_costs(std, family).tolist() == expected
    for block in range(7):
        # A row of IDs takes 4^block bytes against a chunk budget of
        # kernels.CHUNK_ROWS x 64; below 64 bytes rows share a chunk.  The
        # IDs are interned once, at the default CHUNK_ROWS: intern's own
        # passes go CHUNK_ROWS at a time too, and one row at a time is slow.
        for rows in (kernels.CHUNK_ROWS, max(1, 4**block // 64)):
            with monkeypatch.context() as patch:
                patch.setitem(blocksearch.BLOCK_VARS, family, block)
                patch.setattr(kernels, "CHUNK_ROWS", rows)
                costs = blocksearch.polarity_costs(ids, family, table, gate_group).tolist()
            assert costs == expected, (block, rows)


@pytest.mark.parametrize("entries", ["ids", "matrices", "bits"])
def test_exact_entries_leave_the_last_block_variable_unexpanded(monkeypatch, entries):
    """IDs and bits compare the last block variable's pairs in place of
    its slot column; matrices expand it.  At m = n = 8 with 6 block
    variables, 4 nodes of 4 rows: IDs and bits take one chunk a node and
    5 slot columns a chunk; complex rows are a chunk each, with all 6."""
    columns = []
    name = "etv_stage" if entries == "bits" else "qetv_stage"
    stage = getattr(kernels, name)

    def counted(pairs, out, gate_group=None):
        columns.append(gate_group is not None)
        stage(pairs, out, gate_group)

    monkeypatch.setattr(kernels, name, counted)
    if entries == "bits":
        monkeypatch.setitem(blocksearch.BLOCK_VARS, "fprm", 6)
        bits = np.random.default_rng(325).integers(0, 2, size=256).astype(np.uint8)
        blocksearch.polarity_costs(bits, "fprm", np.arange(9))
    else:
        pool = POOL_FULL if entries == "ids" else resolve_pool("custom:X,I,RX(0.3)")
        search.polarity_costs(generate(8, pool, seed=325), "fpqf")
    expected = {"ids": [True] * 4 * 5, "matrices": [False] * 4 * 4 * 6, "bits": [False] * 4 * 5}
    assert columns == expected[entries]


def test_exhaustive_fpqf_runs_dfs_columns_only_above_the_block(monkeypatch):
    std = generate(8, POOL_FULL, seed=321)
    bits = []
    stage = kernels.gate_stage

    def counted(gates_, kernel, bit, gate_group=None):
        bits.append(bit)
        return stage(gates_, kernel, bit, gate_group)

    monkeypatch.setattr(kernels, "gate_stage", counted)
    search.polarity_costs(std, "fpqf")
    # The top 2 of 8 digits: 2 columns at bit 7 and 4 at bit 6; the other
    # 6 variables are block slots, not columns.
    assert sorted(bits) == [6, 6, 6, 6, 7, 7]


@pytest.mark.parametrize("family", ["fpqf", "kqf"])
@pytest.mark.parametrize("pool", ["full", "custom:X,I,RX(0.3)"])
def test_search_leaves_its_root_vector_alone(monkeypatch, family, pool):
    """The DFS runs its columns in place on copies: the root vector that
    blocksearch.polarity_costs starts from, the gates' IDs or their complex
    targets, comes back as it went in."""
    std = generate(8, resolve_pool(pool), seed=323)
    roots = []
    polarity_costs = blocksearch.polarity_costs

    def recorded(vector, *args):
        roots.append((vector, vector.tobytes()))
        return polarity_costs(vector, *args)

    monkeypatch.setattr(blocksearch, "polarity_costs", recorded)
    search.polarity_costs(std, family)
    [(root, before)] = roots
    assert root.dtype == (np.uint8 if pool == "full" else complex)
    assert root.flags.writeable and root.tobytes() == before


def test_block_memory_is_bounded_by_the_chunk_budget(monkeypatch):
    # Complex path: a 4^6-slot row of 2x2 matrices is 256 KB, and a node
    # holds 16 of them at m = 10, 4 MB unchunked.
    std = generate(10, resolve_pool("custom:X,I,RX(0.3)"), seed=322)
    assert group.intern(std.targets, std.num_targets) is None
    monkeypatch.setattr(kernels, "CHUNK_ROWS", 1 << 14)  # 1 MB chunks of slots
    tracemalloc.start()
    try:
        search.polarity_costs(std, "fpqf")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("case", ["random-unitaries", "rx-pool", "full"])
def test_qetv_slots_equal_the_forward_cascade_bit_for_bit(case):
    m = 6
    std = ALL_CASES[case](m)
    paths = [(None, std.targets)]
    if case == "full":
        paths.append(group.intern(std.targets, std.num_targets))
    for group_arg, vector in paths:
        rows = vector.reshape(1, 1 << m, *vector.shape[1:])
        spare = [np.empty(4**m * rows[0, 0].size, vector.dtype) for _ in range(2)]
        slots = blocksearch.expand(rows, mux.KQF, spare, group_arg)[0]
        assert slots.shape == (4**m, *vector.shape[1:])
        rng = np.random.default_rng(300)
        for _ in range(20):
            polarity = "".join(rng.choice(list("012"), size=m))
            expected = blocksearch.cascade(vector.copy(), polarity, mux.KQF, group_arg)
            picked = slots[[slot_index(polarity, i, mux.KQF) for i in range(1 << m)]]
            assert picked.tobytes() == expected.tobytes(), polarity


def test_qetv_stage_on_ids_matches_matrices():
    std = generate(4, POOL_FULL, seed=7)
    gate_group, ids = group.intern(std.targets, std.num_targets)
    pairs = ids.reshape(2, 2, 4)
    out = np.empty((2, 4, 4), dtype=np.uint8)
    kernels.qetv_stage(pairs, out, gate_group)
    mats = np.empty((2, 4, 4, 2, 2), dtype=complex)
    kernels.qetv_stage(std.targets.reshape(2, 2, 4, 2, 2), mats)
    assert np.abs(gate_group.elements[out] - mats).max() < 1e-12
    assert np.array_equal(out[:, 3], gate_group.inv[out[:, 2]])


# Targets for the property test: Clifford gates, a rotation and Haar-random
# unitaries, so identities, shared products and the complex path all occur.
_PROPERTY_GATES = [gates.I, gates.X, gates.H, gates.V, gates.rx(0.3)] + [
    oracle.random_unitary(np.random.default_rng(310 + k)) for k in range(3)
]


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 5),
    family=st.sampled_from(["fpqf", "kqf"]),
    block=st.integers(1, 6),
    data=st.data(),
)
def test_block_search_matches_leaf_search_on_random_targets(m, family, block, data):
    picks = data.draw(st.lists(st.integers(0, len(_PROPERTY_GATES) - 1),
                               min_size=1 << m, max_size=1 << m))
    std = Multiplexer(m, np.stack([_PROPERTY_GATES[k] for k in picks]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(blocksearch.BLOCK_VARS, family, 0)
        leaves = search.polarity_costs(std, family)
        patch.setitem(blocksearch.BLOCK_VARS, family, block)
        assert np.array_equal(search.polarity_costs(std, family), leaves)


def test_exhaustive_ties_take_the_lexicographically_smallest_polarity():
    # All-identity targets: every polarity costs 0, so both ends are all zeros.
    std = Multiplexer(3, np.stack([gates.I] * 8))
    report = exhaustive_search(std, SearchConfig(family="kqf"))
    assert (report.best_polarity, report.worst_polarity) == ("000", "000")
    assert report.polarities_evaluated == 27


def test_random_ties_take_the_lexicographically_smallest_sampled_polarity():
    # All-identity targets: every polarity costs 0, so best and worst are
    # both the smallest polarity drawn.
    std = Multiplexer(3, np.stack([gates.I] * 8))
    cfg = SearchConfig(family="kqf", mode="random", samples=12, seed=5)
    report = random_polarity_search(std, cfg)
    rng = np.random.default_rng(cfg.seed)
    drawn = ["".join(str(d) for d in rng.integers(0, 3, size=3)) for _ in range(12)]
    assert len(set(drawn)) > 1
    assert report.best_polarity == report.worst_polarity == min(drawn)
    assert report.best_cost == report.worst_cost == 0


def test_random_search_memory_does_not_grow_with_the_samples():
    """Random search keeps running aggregates, not a list per sample: after
    a warm-up, 4,000 samples peak less than 32 KiB above 200."""
    std = ivvx_case()

    def peak(samples):
        cfg = SearchConfig(family="kqf", mode="random", samples=samples, seed=9)
        tracemalloc.start()
        try:
            random_polarity_search(std, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200)  # warm-up: caches filled on a first call are no sample's
    assert peak(4000) - peak(200) < 32 << 10


def test_random_search_enforces_its_size_limit(monkeypatch):
    std = generate(4, POOL_FULL, seed=0)
    monkeypatch.setattr(randmux, "MAX_CONTROLS", 3)
    with pytest.raises(SizeLimitExceeded, match="limited to 3 controls, got 4"):
        random_polarity_search(std, SearchConfig(mode="random"))


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_all_identity_multiplexer_reports_no_reduction(mode):
    std = Multiplexer(3, np.tile(gates.I, (8, 1, 1)))
    report = run_search(std, SearchConfig(family="kqf", mode=mode, samples=5))
    assert report.original_cost == report.best_cost == report.worst_cost == 0
    assert report.best_reduction == 0.0
    assert report.average_reduction == 0.0


@pytest.mark.parametrize("family, m, samples", [("fpqf", 6, 20), ("kqf", 2, 30), ("kqf", 5, 12)])
def test_random_search_prices_each_sample_a_chunk_at_a_time(monkeypatch, family, m, samples):
    """Each sample, and the original form, is priced by one kernels.mux_cost
    call per kernels.CHUNK_ROWS gates, each given that chunk's counts from
    one blocksearch.count_rows of its pass (whose two small vectors are
    built once a pass), and the report is the one priced whole."""
    std = generate(m, POOL_FULL, seed=7)
    cfg = SearchConfig(family=family, mode="random", samples=samples, seed=3)
    want = random_polarity_search(std, cfg)
    monkeypatch.setattr(kernels, "CHUNK_ROWS", 3)
    sizes, passes, rows_given = [], [], []

    def count_rows(polarity, fam):
        passes.append(polarity)
        counts = real_count_rows(polarity, fam)

        def chunk_counts(rows):
            rows_given.append(rows)
            got = counts(rows)
            assert got.tolist() == blocksearch.count_vector(polarity, fam)[rows].tolist()
            return got

        return chunk_counts

    def mux_cost(targets, *rest):
        sizes.append(len(targets))
        return real_mux_cost(targets, *rest)

    real_count_rows, real_mux_cost = blocksearch.count_rows, kernels.mux_cost
    monkeypatch.setattr(blocksearch, "count_rows", count_rows)
    monkeypatch.setattr(kernels, "mux_cost", mux_cost)
    assert random_polarity_search(std, cfg) == want
    chunks = [min(3, (1 << m) - s) for s in range(0, 1 << m, 3)]
    assert sizes == chunks * (samples + 1)
    assert len(passes) == samples + 1
    assert rows_given == [slice(s, s + 3) for s in range(0, 1 << m, 3)] * (samples + 1)
