"""The classical ranking: boolrm.rm_search's Ranking, a view over its cost
and order arrays, against the per-polarity oracle rm_ranking (tests/oracle.py),
through the CLI's three report formats at several batch sizes; and the
block search's costs against one transform per polarity, with its block
and chunk sizes drawn at random."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmuxopt import blocksearch, boolrm, kernels
from qmuxopt.boolrm import BoolFunc, literal_cost, rm_search, rm_transform
from qmuxopt.cli import main

from oracle import all_polarities, rm_ranking

FAMILIES = (boolrm.FPRM, boolrm.KRM)


def _function(n: int) -> BoolFunc:
    """A seeded random function: at small n its polarities tie often, so
    the ranking's tie order is checked too."""
    return BoolFunc(n, np.random.default_rng(600 + n).integers(0, 2, size=1 << n, dtype=np.uint8))


@functools.cache
def _oracle(family: str, n: int) -> list:
    return rm_ranking(_function(n), family)


def _minterm_string(func: BoolFunc) -> str:
    return "".join(map(str, func.minterms.tolist()))


def _rows(out: str, fmt: str) -> list:
    """The (polarity, cost) rows of a classical report."""
    if fmt == "json":
        return [(row["polarity"], row["cost"]) for row in json.loads(out)["ranked"]]
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert lines[0] == "polarity,cost"
    return [(p, int(c)) for p, c in (line.split(",") for line in lines[1:])]


@pytest.mark.parametrize("chunk", [1, 3, 4096])
@pytest.mark.parametrize("family", FAMILIES)
def test_cli_ranking_matches_the_per_polarity_oracle(monkeypatch, capsys, family, chunk):
    """Every format lists the oracle's rows, cut at --top, whatever the
    batch size: at kernels.CHUNK_ROWS 1 and 3 a write holds a row or a few,
    so every batch boundary moves."""
    oracles = {n: _oracle(family, n) for n in range(1, 9)}  # at the default batch size
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
    for n, expected in oracles.items():
        for top in (0, 1, len(expected), len(expected) + 5):
            for fmt in ("text", "csv", "json"):
                argv = ["classical", _minterm_string(_function(n)), "--family", family,
                        "--top", str(top), "--format", fmt]
                assert main(argv) == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                assert _rows(captured.out, fmt) == expected[:top], (n, top, fmt)


def test_the_ranking_is_a_read_only_view_named_a_batch_at_a_time():
    ranking = rm_search(_function(6), boolrm.KRM)
    expected = _oracle(boolrm.KRM, 6)
    assert len(ranking) == 3**6 and list(ranking) == expected
    assert [ranking[i] for i in (0, 1, -1, -2)] == [expected[i] for i in (0, 1, -1, -2)]
    with pytest.raises(IndexError):
        ranking[3**6]
    top = ranking[:5]
    assert list(top) == expected[:5] and top.costs is ranking.costs
    assert list(ranking[3**6 :]) == [] and list(ranking[:0]) == []
    batches = list(ranking.batches(100))
    assert [len(names) for names, _ in batches] == [100] * 7 + [29]
    assert [row for names, costs in batches for row in zip(names, costs)] == expected
    assert all(type(c) is int for _, costs in batches for c in costs)
    for array in (ranking.costs, ranking.order):
        assert not array.flags.writeable


def test_polarities_are_named_from_their_lexicographic_indices():
    lexicographic = list(all_polarities(3, "012"))
    assert blocksearch.polarity_names(np.arange(27), boolrm.KRM, 3) == lexicographic
    assert blocksearch.polarity_names(np.array([0, 1, 30, 31]), boolrm.FPRM, 5) == [
        "00000", "00001", "11110", "11111"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(1, 7),
    block=st.integers(0, 8),
    chunk_rows=st.sampled_from([1, 2, 3, 7, 4096]),
    data=st.data(),
)
def test_block_costs_match_per_polarity_transforms(family, n, block, chunk_rows, data):
    """blocksearch.polarity_costs, at any block and chunk size, equals the
    literal cost of each polarity's own rm_transform, in lexicographic
    polarity order.  A chunk of slots is kernels.CHUNK_ROWS x 64 bytes, so
    CHUNK_ROWS 1 to 7 puts one row of 3^6 bits or more in each chunk and
    several smaller rows."""
    bits = data.draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    func = BoolFunc(n, np.array(bits, dtype=np.uint8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(blocksearch.BLOCK_VARS, family, block)
        patch.setattr(kernels, "CHUNK_ROWS", chunk_rows)
        costs = blocksearch.polarity_costs(func.minterms, family, np.arange(n + 1))
    polarities = all_polarities(n, blocksearch.FAMILY_DIGITS[family])
    assert costs.tolist() == [literal_cost(rm_transform(func, p)) for p in polarities]
