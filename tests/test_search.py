import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmuxopt import blocksearch, cost, gates, group, kernels, mux, search
from qmuxopt.boolrm import BoolFunc
from qmuxopt.cost import multiplexer_cost
from qmuxopt.errors import FormMismatch, SizeLimitExceeded
from qmuxopt.mux import Multiplexer, forward_transform, triangular_solve
from qmuxopt.pla import to_multiplexer
from qmuxopt.randmux import POOL_FULL, POOL_NVV, GatePool, generate, resolve_pool
from qmuxopt.search import (
    SearchConfig,
    exhaustive_search,
    iter_polarity_costs,
    random_polarity_search,
    run_search,
)


def ivvx_case():
    return Multiplexer(2, np.stack([gates.I, gates.V, gates.V, gates.X]))


def all_polarities(m, digits):
    for i in range(len(digits) ** m):
        out = []
        v = i
        for _ in range(m):
            out.append(digits[v % len(digits)])
            v //= len(digits)
        yield "".join(reversed(out))


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
    std = Multiplexer(m, np.stack([gates.random_unitary(rng) for _ in range(1 << m)]))
    report = exhaustive_search(std, SearchConfig(family=family))
    best, worst, average, _ = brute_force_report(std, digits)
    assert (report.best_polarity, report.best_cost) == best
    assert (report.worst_polarity, report.worst_cost) == worst
    assert report.average_cost == pytest.approx(average)


def test_polarity_cost_stream_matches_direct_transforms():
    rng = np.random.default_rng(124)
    std = Multiplexer(3, np.stack([gates.random_unitary(rng) for _ in range(8)]))
    streamed = dict(iter_polarity_costs(std, "kqf"))
    for polarity in all_polarities(3, "012"):
        direct = multiplexer_cost(forward_transform(std, polarity)).total
        assert streamed[polarity] == direct


def test_kqf_restricted_to_fixed_digits_reproduces_fpqf():
    rng = np.random.default_rng(125)
    std = Multiplexer(3, np.stack([gates.random_unitary(rng) for _ in range(8)]))
    kqf_costs = dict(iter_polarity_costs(std, "kqf"))
    fpqf_costs = dict(iter_polarity_costs(std, "fpqf"))
    assert {p: c for p, c in kqf_costs.items() if "2" not in p} == fpqf_costs


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
        next(iter_polarity_costs(std, "kqf"))


def test_kqf_size_limit_comes_before_interning(monkeypatch):
    std = generate(10, POOL_NVV, seed=0)

    def refuse(targets):
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


def _random_multiplexer(m, seed):
    rng = np.random.default_rng(seed)
    return Multiplexer(m, np.stack([gates.random_unitary(rng) for _ in range(1 << m)]))


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
    "random-unitaries": lambda m: _random_multiplexer(m, seed=260 + m),
    "over-256-distinct": lambda m: Multiplexer(
        m, np.stack([gates.rz(0.01 * k) for k in range(1 << m)])
    ),
}


def _complex_reference(monkeypatch, fn, *args):
    """fn(*args) with interning switched off: the complex gate_stage/EPS path."""
    with monkeypatch.context() as patch:
        patch.setattr(search.group, "intern", lambda targets: None)
        return fn(*args)


ALL_CASES = {**GROUP_CASES, **FALLBACK_CASES}


@pytest.mark.parametrize("case", list(ALL_CASES))
@pytest.mark.parametrize("family", ["fpqf", "kqf"])
def test_group_path_streams_match_complex_path(monkeypatch, case, family):
    for m in range(1, 7):
        std = ALL_CASES[case](m)
        assert (group.intern(std.targets) is None) == (case in FALLBACK_CASES)
        ids_stream = list(iter_polarity_costs(std, family))
        complex_stream = _complex_reference(
            monkeypatch, lambda: list(iter_polarity_costs(std, family))
        )
        assert ids_stream == complex_stream


@pytest.mark.parametrize("case", list(ALL_CASES))
@pytest.mark.parametrize("family", ["fpqf", "kqf"])
def test_random_search_group_path_matches_complex_path(monkeypatch, case, family):
    # m = 9 puts 512 distinct targets in the over-256 case.
    std = ALL_CASES[case](9 if case == "over-256-distinct" else 6)
    assert (group.intern(std.targets) is None) == (case in FALLBACK_CASES)
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
    assert group.intern(std.targets) is not None
    stream = list(iter_polarity_costs(std, family))
    assert stream == _complex_reference(
        monkeypatch, lambda: list(iter_polarity_costs(std, family))
    )


def per_polarity_reference(std, family):
    """(polarity, cost) for every polarity by its own complex cascade: no
    shared prefixes, no QETV slots, no group IDs."""
    cost_table = cost.cost_table_vector(std.controls)
    out = []
    for polarity in all_polarities(std.controls, search.FAMILY_DIGITS[family]):
        targets = mux.transform_stages(std.targets, polarity, "forward")
        counts = cost.control_count_vector(polarity)
        out.append((polarity, kernels.mux_cost(targets, counts, cost_table, mux.EPS)[0]))
    return out


# Block sizes 0 (a leaf per polarity), 1 and 3 (a DFS above small blocks)
# and 9 (>= m: one block, no DFS).
BLOCKS = (0, 1, 3, 9)


@pytest.mark.parametrize("case", list(ALL_CASES))
@pytest.mark.parametrize("family", ["fpqf", "kqf"])
def test_block_search_matches_per_polarity_reference(monkeypatch, case, family):
    for m in range(1, 7):
        std = ALL_CASES[case](m)
        expected = per_polarity_reference(std, family)
        for block in BLOCKS:
            monkeypatch.setitem(blocksearch.BLOCK_VARS, family, block)
            assert list(iter_polarity_costs(std, family)) == expected, (m, block)


@pytest.mark.parametrize("family", ["fpqf", "kqf"])
def test_block_search_on_rounded_h_literal_matches_per_polarity_reference(monkeypatch, family):
    std = generate(7, GatePool("custom", (H13, "I")), seed=4)
    assert group.intern(std.targets) is not None
    expected = per_polarity_reference(std, family)
    for block in BLOCKS:
        monkeypatch.setitem(blocksearch.BLOCK_VARS, family, block)
        assert list(iter_polarity_costs(std, family)) == expected, block


def _slot_index(polarity, gate):
    """Position of a polarity's gate among the 4^m QETV slots: per variable
    the slot the digit keeps at the gate's bit, the first variable least
    significant."""
    m = len(polarity)
    index = 0
    for k, digit in enumerate(polarity):
        bit = (gate >> (m - 1 - k)) & 1
        index += blocksearch.SLOT_RULES[mux.KQF][digit][bit][0] * 4**k
    return index


@pytest.mark.parametrize("case", ["random-unitaries", "rx-pool", "full"])
def test_qetv_slots_equal_the_forward_cascade_bit_for_bit(case):
    m = 6
    std = ALL_CASES[case](m)
    paths = [(None, std.targets)]
    if case == "full":
        paths.append(group.intern(std.targets))
    for group_arg, vector in paths:
        rows = vector.reshape(1, 1 << m, *vector.shape[1:])
        column = lambda pairs, out: kernels.qetv_stage(pairs, out, group_arg)  # noqa: E731
        slots = blocksearch.expand(rows, column, 4)[0]
        assert slots.shape == (4**m, *vector.shape[1:])
        rng = np.random.default_rng(300)
        for _ in range(20):
            polarity = "".join(rng.choice(list("012"), size=m))
            expected = mux.transform_stages(vector, polarity, "forward", group_arg)
            picked = slots[[_slot_index(polarity, i) for i in range(1 << m)]]
            assert picked.tobytes() == expected.tobytes(), polarity


def test_qetv_stage_on_ids_matches_matrices():
    std = generate(4, POOL_FULL, seed=7)
    gate_group, ids = group.intern(std.targets)
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
    gates.random_unitary(np.random.default_rng(310 + k)) for k in range(3)
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
