import itertools

import pytest

from qmuxopt import blocksearch
from qmuxopt.blocksearch import FPQF, FPRM, KQF, KRM, check_polarity, check_size, count_vector
from qmuxopt.errors import PolarityLengthMismatch, SizeLimitExceeded
from qmuxopt.reference import control_count, map_coefficient


def polarities(family, n):
    return ("".join(p) for p in itertools.product(blocksearch.FAMILY_DIGITS[family], repeat=n))


@pytest.mark.parametrize("n", range(1, 6))
def test_count_vector_matches_the_scalar_counts(n):
    for family in (FPQF, KQF):
        for polarity in polarities(family, n):
            expected = [control_count(i, polarity) for i in range(1 << n)]
            assert count_vector(polarity, family).tolist() == expected, polarity
    for family in (FPRM, KRM):
        for polarity in polarities(family, n):
            expected = [map_coefficient(i, polarity).literal_count for i in range(1 << n)]
            assert count_vector(polarity, family).tolist() == expected, polarity


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
