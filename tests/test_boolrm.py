import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmuxopt import blocksearch, boolrm, kernels
from qmuxopt.boolrm import (
    BoolFunc,
    RMSpectrum,
    literal_cost,
    rm_inverse_transform,
    rm_search,
    rm_transform,
)
from qmuxopt.errors import ParseError, PolarityLengthMismatch, SizeLimitExceeded

from oracle import (
    all_polarities,
    evaluate_spectrum,
    map_coefficient,
    rm_ranking,
    rm_transform_matrix,
    slot_index,
)

XOR2 = BoolFunc.from_string("0110")          # a xor b
OR_XOR = BoolFunc.from_string("01101111")    # a + (b xor c)
PARITY3 = BoolFunc.from_string("01101001")   # a xor b xor c


def solve_spectrum_by_elimination(func, polarity):
    """Independent oracle: solve for the coefficient vector over GF(2).

    Builds the base-function value matrix column by column from
    map_coefficient and Gauss-eliminates, with no butterfly involved.
    """
    n = func.num_vars
    size = 1 << n
    a = np.zeros((size, size), dtype=np.uint8)
    for i in range(size):
        base = map_coefficient(i, polarity)
        for x in range(size):
            a[x, i] = base.evaluate(x)
    rhs = func.minterms.astype(np.uint8).copy()
    where = [-1] * size
    row = 0
    for col in range(size):
        sel = next((r for r in range(row, size) if a[r, col]), None)
        if sel is None:
            continue
        a[[row, sel]] = a[[sel, row]]
        rhs[[row, sel]] = rhs[[sel, row]]
        for r in range(size):
            if r != row and a[r, col]:
                a[r] ^= a[row]
                rhs[r] ^= rhs[row]
        where[col] = row
        row += 1
    out = np.zeros(size, dtype=np.uint8)
    for col in range(size):
        if where[col] >= 0:
            out[col] = rhs[where[col]]
    return out


# --- fixtures pinned by hand ---


def test_transform_fixed_polarity_fixture():
    assert list(rm_transform(XOR2, "10").coefficients) == [1, 1, 0, 1]


def test_transform_mixed_polarity_fixture():
    assert list(rm_transform(XOR2, "20").coefficients) == [1, 1, 1, 0]


def test_transform_matrix_fixtures():
    m10 = [[1, 1, 0, 0], [0, 1, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1]]
    m20 = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    assert rm_transform_matrix("10").tolist() == m10
    assert rm_transform_matrix("20").tolist() == m20
    assert rm_transform_matrix("2").tolist() == [[1, 0], [0, 1]]


def test_transform_matrix_size_guard():
    with pytest.raises(SizeLimitExceeded):
        rm_transform_matrix("1" * 13)


def test_spectrum_in_base_function_order():
    # f = a' + ab at polarity 10 reads 1001 once positions map to base order
    func = BoolFunc.from_string("1101")
    spec = rm_transform(func, "10")
    ordered = np.zeros(4, dtype=np.uint8)
    for i, c in enumerate(spec.coefficients):
        ordered[i ^ blocksearch.digit_mask("10", "0")] = c
    assert list(ordered) == [1, 0, 0, 1]


def test_polarity_length_mismatch():
    with pytest.raises(PolarityLengthMismatch):
        rm_transform(XOR2, "100")


def test_map_coefficient_fixtures():
    assert map_coefficient(0, "10").label() == "b'"
    assert map_coefficient(1, "10").label() == "1"
    assert map_coefficient(1, "10").literal_count == 0
    # mixed digits pull the literal polarity from the index bit
    assert map_coefficient(2, "22").label() == "ab'"
    assert map_coefficient(2, "22").literal_count == 2


def test_map_coefficient_all_mixed_matches_minterms():
    # all-mixed base functions are exactly the minterms
    for i in range(8):
        base = map_coefficient(i, "222")
        for x in range(8):
            assert base.evaluate(x) == (1 if x == i else 0)


@pytest.mark.parametrize(
    "polarity,expected",
    [("000", 5), ("001", 4), ("010", 4), ("011", 5),
     ("100", 7), ("101", 6), ("110", 6), ("111", 7)],
)
def test_literal_cost_or_xor_fixed_polarities(polarity, expected):
    assert literal_cost(rm_transform(OR_XOR, polarity)) == expected


def test_literal_cost_mixed_polarity_fixture():
    assert literal_cost(rm_transform(OR_XOR, "021")) == 10


def test_literal_cost_parity_positive_polarity():
    # frozen from the elimination oracle: three single-literal terms
    assert solve_spectrum_by_elimination(PARITY3, "111").sum() == 3
    assert literal_cost(rm_transform(PARITY3, "111")) == 3


def test_constant_terms_stay_in_spectrum_at_zero_cost():
    spec = rm_transform(OR_XOR, "000")
    constant_pos = next(
        i for i in range(8) if map_coefficient(i, "000").literal_count == 0
    )
    assert spec.coefficients[constant_pos] == 1  # present, just free


# --- cross-path and semantic properties ---


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_butterfly_equals_matrix_path(n):
    rng = np.random.default_rng(100 + n)
    funcs = [BoolFunc(n, rng.integers(0, 2, size=1 << n).astype(np.uint8))
             for _ in range(100)]
    for polarity in all_polarities(n, blocksearch.FAMILY_DIGITS[boolrm.KRM]):
        matrix = rm_transform_matrix(polarity)
        for func in funcs:
            via_matrix = (matrix @ func.minterms) % 2
            assert np.array_equal(
                rm_transform(func, polarity).coefficients, via_matrix
            )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_round_trip_recovers_minterms(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(20):
        func = BoolFunc(n, rng.integers(0, 2, size=1 << n).astype(np.uint8))
        polarity = "".join(str(d) for d in rng.integers(0, 3, size=n))
        back = rm_inverse_transform(rm_transform(func, polarity))
        assert np.array_equal(back.minterms, func.minterms)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_spectrum_evaluates_back_to_truth_table(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(20):
        func = BoolFunc(n, rng.integers(0, 2, size=1 << n).astype(np.uint8))
        polarity = "".join(str(d) for d in rng.integers(0, 3, size=n))
        spec = rm_transform(func, polarity)
        for x in range(1 << n):
            assert evaluate_spectrum(spec, x) == func.value(x)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transform_agrees_with_elimination_oracle(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(10):
        func = BoolFunc(n, rng.integers(0, 2, size=1 << n).astype(np.uint8))
        polarity = "".join(str(d) for d in rng.integers(0, 3, size=n))
        assert np.array_equal(
            rm_transform(func, polarity).coefficients,
            solve_spectrum_by_elimination(func, polarity),
        )


def test_all_mixed_polarity_returns_minterms():
    rng = np.random.default_rng(43)
    for n in (1, 2, 4):
        func = BoolFunc(n, rng.integers(0, 2, size=1 << n).astype(np.uint8))
        spec = rm_transform(func, "2" * n)
        assert np.array_equal(spec.coefficients, func.minterms)


# --- search ---


def test_search_or_xor_minimum():
    ranked = rm_search(OR_XOR, boolrm.FPRM)
    assert ranked[0] == ("001", 4)
    assert ranked[1] == ("010", 4)
    assert len(ranked) == 8


def test_search_constant_zero_costs_nothing():
    func = BoolFunc.from_string("0000")
    assert all(c == 0 for _, c in rm_search(func, boolrm.FPRM))
    assert all(c == 0 for _, c in rm_search(func, boolrm.KRM))


def test_mixed_family_contains_fixed_family():
    rng = np.random.default_rng(44)
    for n in (2, 3, 4):
        func = BoolFunc(n, rng.integers(0, 2, size=1 << n).astype(np.uint8))
        best_fixed = rm_search(func, boolrm.FPRM)[0][1]
        best_mixed = rm_search(func, boolrm.KRM)[0][1]
        assert best_mixed <= best_fixed


def test_search_matches_per_polarity_costs():
    ranked = dict(rm_search(OR_XOR, boolrm.KRM))
    for polarity in all_polarities(3, blocksearch.FAMILY_DIGITS[boolrm.KRM]):
        assert ranked[polarity] == literal_cost(rm_transform(OR_XOR, polarity))


def reference_functions(n):
    idx = np.arange(1 << n)
    return {
        "random": np.random.default_rng(500 + n).integers(0, 2, size=1 << n),
        "constant-0": np.zeros(1 << n),
        "constant-1": np.ones(1 << n),
        # Every FPRM polarity of the parity function costs n: an n-way tie.
        "parity": np.array([bin(i).count("1") & 1 for i in idx]),
    }


@pytest.mark.parametrize(
    "family,n",
    [(boolrm.FPRM, n) for n in range(1, 10)] + [(boolrm.KRM, n) for n in range(1, 7)],
)
def test_search_matches_per_polarity_reference(monkeypatch, family, n):
    for bits in reference_functions(n).values():
        func = BoolFunc(n, bits.astype(np.uint8))
        expected = rm_ranking(func, family)
        # Block sizes 0 (DFS to the leaves, t = n), 1 and 2 (0 < t < n once
        # n > 2) and the module's own (t = 0, b = n: one block, no DFS).
        for block in (0, 1, 2, blocksearch.BLOCK_VARS[family]):
            monkeypatch.setitem(blocksearch.BLOCK_VARS, family, block)
            assert list(rm_search(func, family)) == expected, block


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    family=st.sampled_from([boolrm.FPRM, boolrm.KRM]),
    block=st.integers(0, 7),
    data=st.data(),
)
def test_search_matches_reference_on_random_functions(n, family, block, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    func = BoolFunc(n, np.array(bits, dtype=np.uint8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(blocksearch.BLOCK_VARS, family, block)
        assert list(rm_search(func, family)) == rm_ranking(func, family)


@pytest.mark.parametrize("family,n", [(boolrm.FPRM, 12), (boolrm.KRM, 8)])
def test_search_is_the_same_when_every_row_is_its_own_chunk(monkeypatch, family, n):
    bits = np.random.default_rng(530 + n).integers(0, 2, size=1 << n).astype(np.uint8)
    func = BoolFunc(n, bits)
    # Two DFS digits above the block, so each node has 4 rows to split; a
    # KRM block otherwise holds all n <= 10 variables in one row.
    monkeypatch.setitem(blocksearch.BLOCK_VARS, family, n - 2)
    expected = list(rm_search(func, family))
    # A row takes 3^(n - 2) bytes of bits, the chunk budget kernels.CHUNK_ROWS x 64.
    monkeypatch.setattr(kernels, "CHUNK_ROWS", 3 ** (n - 2) // 64)
    assert list(rm_search(func, family)) == expected


def test_search_and_transforms_leave_the_minterms_alone():
    # n = 12 > BLOCK_VARS[FPRM]: the search runs DFS columns above its blocks.
    vec = np.random.default_rng(17).integers(0, 2, size=1 << 12).astype(np.uint8)
    func = BoolFunc(12, vec.copy())
    rm_search(func, "fprm")
    spectrum = rm_transform(func, "1020" * 3)
    coefficients = spectrum.coefficients.tobytes()
    assert rm_inverse_transform(spectrum) is not None
    assert func.minterms.tobytes() == vec.tobytes()
    assert spectrum.coefficients.tobytes() == coefficients


def test_etv_slots_equal_the_transform_bit_for_bit():
    n = 6
    func = BoolFunc(n, np.random.default_rng(520).integers(0, 2, size=1 << n).astype(np.uint8))
    spare = [np.empty(3**n, np.uint8) for _ in range(2)]
    slots = blocksearch.expand(func.minterms.reshape(1, 1 << n), boolrm.KRM, spare)[0]
    assert slots.shape == (3**n,)
    rng = np.random.default_rng(521)
    for _ in range(20):
        polarity = "".join(rng.choice(list("012"), size=n))
        picked = slots[[slot_index(polarity, i, boolrm.KRM) for i in range(1 << n)]]
        assert picked.tobytes() == rm_transform(func, polarity).coefficients.tobytes(), polarity


def test_search_counts_a_bin_past_one_byte():
    # Constant 1 at n = 8: the all-mixed spectrum is the minterm vector, so
    # one histogram bin holds all 256 coefficients, 8 literals each.
    func = BoolFunc(8, np.ones(256, dtype=np.uint8))
    ranked = dict(rm_search(func, boolrm.KRM))
    assert ranked["2" * 8] == literal_cost(rm_transform(func, "2" * 8)) == 256 * 8


def test_search_size_limits():
    with pytest.raises(SizeLimitExceeded):
        rm_search(BoolFunc(17, np.zeros(1 << 17, dtype=np.uint8)), boolrm.FPRM)
    with pytest.raises(SizeLimitExceeded):
        rm_search(BoolFunc(11, np.zeros(1 << 11, dtype=np.uint8)), boolrm.KRM)


# --- construction ---


def test_from_string_hex():
    assert np.array_equal(
        BoolFunc.from_string("0x6F").minterms, OR_XOR.minterms
    )


def test_from_string_rejects_garbage():
    for bad in ("", "012", "0x", "0xZZ", "011"):
        with pytest.raises(ValueError):
            BoolFunc.from_string(bad)


@pytest.mark.parametrize("n,minterms,needle", [(0, [0], "at least one"), (1, [0, 2], "0 or 1")])
def test_bool_func_rejects_invalid_fields(n, minterms, needle):
    with pytest.raises(ValueError, match=needle):
        BoolFunc(n, np.array(minterms, dtype=np.uint8))


def test_minterm_vector_length_checked():
    with pytest.raises(ValueError):
        BoolFunc(2, np.array([0, 1, 1], dtype=np.uint8))


def test_the_callers_vectors_stay_writable():
    bits = np.array([0, 1, 1, 0], np.uint8)
    func = BoolFunc(2, bits)
    spectrum = RMSpectrum("10", bits)
    assert bits.flags.writeable
    bits[0] = 1  # the values keep their own copies
    assert func.minterms.tolist() == spectrum.coefficients.tolist() == [0, 1, 1, 0]
    assert not func.minterms.flags.writeable and not spectrum.coefficients.flags.writeable


def test_handed_over_vectors_are_kept_without_a_copy():
    func = BoolFunc.from_string("0110")
    spectrum = rm_transform(func, "10")
    again = rm_inverse_transform(spectrum)
    for vec, kept in ((func.minterms, BoolFunc(2, func.minterms).minterms),
                      (spectrum.coefficients, RMSpectrum("10", spectrum.coefficients).coefficients),
                      (again.minterms, BoolFunc(2, again.minterms).minterms)):
        assert kept is vec


@pytest.mark.parametrize("text, message", [
    (" 0x6G ", " 0x6G : bad hex minterm string '0x6G'"),
    ("012", "012: bad binary minterm string '012'"),
    ("011", "011: minterm string length 3 is not a power of two >= 2"),
])
def test_a_bad_minterm_string_is_a_parse_error_naming_the_string_as_given(text, message):
    with pytest.raises(ParseError) as info:
        BoolFunc.from_string(text)
    assert str(info.value) == message
