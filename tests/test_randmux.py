import numpy as np
import pytest

from qmuxopt import gates
from qmuxopt.errors import UnknownGate
from qmuxopt.randmux import (
    POOL_FULL,
    POOL_NVV,
    GatePool,
    generate,
    known_cases,
    resolve_pool,
)
from qmuxopt.search import SearchConfig, exhaustive_search


def test_builtin_pool_contents():
    assert POOL_FULL.gate_tokens == ("X", "Y", "Z", "H", "V", "VD", "I")
    assert POOL_NVV.gate_tokens == ("X", "V", "VD")


def test_generate_is_deterministic():
    a = generate(4, POOL_FULL, seed=99)
    b = generate(4, POOL_FULL, seed=99)
    assert np.array_equal(a.targets, b.targets)
    c = generate(4, POOL_FULL, seed=100)
    assert not np.array_equal(a.targets, c.targets)


def test_generate_identity_pool():
    m = generate(3, GatePool("ident", ("I",)), seed=1)
    assert np.abs(m.targets - np.eye(2)).max() == 0


def test_generated_targets_are_unitary():
    m = generate(5, POOL_FULL, seed=7)
    product = m.targets @ m.targets.conj().transpose(0, 2, 1)
    assert np.abs(product - np.eye(2)).max() <= 1e-9


def test_generate_range_checks():
    with pytest.raises(ValueError):
        generate(0, POOL_FULL, seed=1)
    with pytest.raises(ValueError):
        generate(21, POOL_FULL, seed=1)


def test_empty_pool_rejected():
    with pytest.raises(ValueError):
        GatePool("empty", ())


def test_pool_rejects_bad_tokens():
    with pytest.raises(UnknownGate):
        GatePool("bad", ("X", "WAT"))


def test_resolve_pool():
    assert resolve_pool("full") is POOL_FULL
    assert resolve_pool("NVV") is POOL_NVV
    custom = resolve_pool("custom:I, V ,RX(0.5)")
    assert custom.gate_tokens == ("I", "V", "RX(0.5)")
    with pytest.raises(UnknownGate):
        resolve_pool("bogus")
    # Commas inside a matrix literal do not split the pool.
    literal = resolve_pool("custom: M(1,0,0,0,0,0,0,1) ,RX(0.3)")
    assert literal.gate_tokens == ("M(1,0,0,0,0,0,0,1)", "RX(0.3)")
    assert np.array_equal(literal.matrices()[0], np.diag([1, 1j]))
    assert resolve_pool("custom:X,M(1,0,0,0,0,0,0,1)").gate_tokens[1] == "M(1,0,0,0,0,0,0,1)"
    with pytest.raises(UnknownGate):
        resolve_pool("custom:X,M(1,0")  # unclosed: split at every comma, rejected


def test_draws_are_uniform_within_three_sigma():
    pool = POOL_NVV
    mats = pool.matrices()
    counts = np.zeros(len(mats), dtype=int)
    targets = []
    for seed in range(10):  # 10 x 2^10 = 10240 draws
        targets.append(generate(10, pool, seed=5000 + seed).targets)
    targets = np.concatenate(targets)[:10_000]
    for gi, g in enumerate(mats):
        counts[gi] = int((np.abs(targets - g).max(axis=(1, 2)) <= 1e-12).sum())
    draws = len(targets)
    assert counts.sum() == draws  # every draw matched exactly one pool gate
    p = 1 / len(mats)
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.abs(counts - draws * p).max() <= 3 * sigma


def test_known_cases_contents():
    cases = {c.name: c for c in known_cases()}
    iv = cases["iv-v-x"]
    assert np.array_equal(
        iv.multiplexer.targets, np.stack([gates.I, gates.V, gates.V, gates.X])
    )
    assert iv.best_fpqf_polarity == "11"
    assert np.abs(cases["all-identity-2"].multiplexer.targets - np.eye(2)).max() == 0
    parity = cases["parity-3"].multiplexer
    assert parity.controls == 3


def test_known_case_optimum_is_reproduced():
    for case in known_cases():
        if case.best_fpqf_polarity is None:
            continue
        report = exhaustive_search(case.multiplexer, SearchConfig(family="fpqf"))
        assert report.best_polarity == case.best_fpqf_polarity
