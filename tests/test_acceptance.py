"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
asserts at its stated tolerance.  Criteria with runtime budgets measure
wall time after a tiny warm-up has run the quantum and classical searches.
"""

import pathlib
import time

import numpy as np
import pytest

from qmuxopt import boolrm, cli, gates
from qmuxopt.blocksearch import digit_mask
from qmuxopt.boolrm import BoolFunc, rm_transform
from qmuxopt.cost import gate_cost
from qmuxopt.mux import (
    Multiplexer,
    forward_transform,
    inverse_transform,
    max_semantic_deviation,
)
from qmuxopt.pla import load_pla, to_bool_func, to_multiplexer
from qmuxopt.randmux import POOL_FULL, POOL_NVV, generate
from qmuxopt.search import SearchConfig, exhaustive_search, random_polarity_search

import oracle
from oracle import all_polarities, ivvx_case, rm_transform_matrix

DATA = pathlib.Path(__file__).parent / "data"
TOL = 1e-9


def report(number, ok, detail):
    line = f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # run both searches once so runtime budgets measure the algorithms,
    # not first-call costs
    tiny = generate(2, POOL_NVV, seed=0)
    exhaustive_search(tiny, SearchConfig(family="kqf"))
    boolrm.rm_search(BoolFunc.from_string("0110"), boolrm.KRM)


def test_criterion_01_classical_table_via_cli(capsys):
    start = time.perf_counter()
    code = cli.main(["classical", "01101111", "--family", "fprm", "--format", "csv"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rows = dict(
        line.split(",")
        for line in out.splitlines()
        if line and not line.startswith("#") and not line.startswith("polarity")
    )
    got = [int(rows[format(i, "03b")]) for i in range(8)]
    with capsys.disabled():
        report(
            1,
            code == 0 and got == [5, 4, 4, 5, 7, 6, 6, 7] and elapsed < 1.0,
            f"literal costs {got} in {elapsed:.3f}s",
        )


def test_criterion_02_transform_fixtures():
    xor2 = BoolFunc.from_string("0110")
    fixed = [int(c) for c in rm_transform(xor2, "10").coefficients]
    mixed = [int(c) for c in rm_transform(xor2, "20").coefficients]
    m10 = rm_transform_matrix("10").tolist()
    m20 = rm_transform_matrix("20").tolist()
    ok = (
        fixed == [1, 1, 0, 1]
        and mixed == [1, 1, 1, 0]
        and m10 == [[1, 1, 0, 0], [0, 1, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1]]
        and m20 == [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    )
    report(2, ok, f"spectra {fixed} / {mixed} and both 4x4 matrices exact")


def test_criterion_03_mixed_polarity_literal_cost():
    func = BoolFunc.from_string("01101111")
    got = boolrm.literal_cost(rm_transform(func, "021"))
    report(3, got == 10, f"literal cost at mixed polarity 021 = {got}")


def test_criterion_04_two_control_algebra():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        f0, f1, f2, f3 = (oracle.random_unitary(rng) for _ in range(4))
        std = Multiplexer(2, np.stack([f0, f1, f2, f3]))
        g = forward_transform(std, "11").targets
        inv = oracle.inverse
        expected = [f0, f1 @ inv(f0), f2 @ inv(f0), f3 @ inv(f1) @ f0 @ inv(f2)]
        for got, want in zip(g, expected):
            worst = max(worst, float(np.abs(got - want).max()))
    report(4, worst <= TOL, f"100 random quadruples, worst deviation {worst:.2e}")


def test_criterion_05_end_to_end_known_case():
    std = ivvx_case()
    rep = exhaustive_search(std, SearchConfig(family="fpqf"))
    best = forward_transform(std, rep.best_polarity)
    tokens_ok = np.abs(
        best.targets - np.stack([gates.I, gates.V, gates.V, gates.I])
    ).max() <= TOL
    reduction = round(100 * rep.best_reduction)
    ok = (
        rep.best_polarity == "11"
        and rep.best_cost == 2
        and rep.original_cost == 15
        and tokens_ok
        and reduction == 87
    )
    report(5, ok, f"best {rep.best_polarity} cost {rep.best_cost} vs 15 "
                  f"({reduction}% reduction), targets collapse to I V V I")


def test_criterion_06_semantic_equivalence_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    failures = 0
    checked = 0
    worst = 0.0
    for m in (1, 2, 3, 4):
        for _ in range(25):
            std = Multiplexer(m, oracle.random_unitaries(rng, 1 << m))
            for polarity in all_polarities(m, "012"):
                fw = forward_transform(std, polarity)
                dev = max_semantic_deviation(std, fw)
                back = inverse_transform(fw)
                rt = float(np.abs(back.targets - std.targets).max())
                worst = max(worst, dev, rt)
                checked += 1
                if dev > TOL or rt > TOL:
                    failures += 1
    elapsed = time.perf_counter() - start
    report(
        6,
        failures == 0 and elapsed < 120.0,
        f"{checked} polarity/multiplexer pairs, worst deviation {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_07_cost_model_fixture():
    table_ok = [gate_cost(c) for c in range(10)] == [1, 1, 5, 13, 29, 52, 84, 116, 154, 192]
    formula_ok = all(gate_cost(m) == 32 * m - 96 for m in range(9, 16))
    report(7, table_ok and formula_ok and gate_cost(9) == 192,
           "table 0..9 exact, 32m-96 for 9..15, joined at 192")


def test_criterion_08_structural_dominance():
    violations = 0
    for i in range(200):
        m = (i % 6) + 1
        pool = POOL_FULL if i % 2 else POOL_NVV
        std = generate(m, pool, seed=800 + i)
        fixed = exhaustive_search(std, SearchConfig(family="fpqf"))
        mixed = exhaustive_search(std, SearchConfig(family="kqf"))
        if mixed.best_cost > fixed.best_cost or mixed.best_cost > fixed.original_cost:
            violations += 1
    report(8, violations == 0,
           f"200 random multiplexers (m<=6, both pools), {violations} violations")


def test_criterion_09_statistical_replication():
    def mean_reduction(pool):
        reductions = []
        for seed in range(20):
            std = generate(5, pool, seed=900 + seed)
            rep = exhaustive_search(std, SearchConfig(family="fpqf"))
            reductions.append(rep.average_reduction)
        return float(np.mean(reductions))

    full = mean_reduction(POOL_FULL)
    nvv = mean_reduction(POOL_NVV)
    ok = 0.63 <= full <= 0.83 and 0.69 <= nvv <= 0.89
    report(9, ok, f"mean average-case reduction: full pool {full:.1%} "
                  f"(band 63-83%), X/V/VD pool {nvv:.1%} (band 69-89%)")


def test_criterion_10_scale_and_runtime():
    std12 = generate(12, POOL_FULL, seed=1012)
    start = time.perf_counter()
    rep12 = exhaustive_search(std12, SearchConfig(family="fpqf"))
    t12 = time.perf_counter() - start

    std17 = generate(17, POOL_FULL, seed=1017)
    start = time.perf_counter()
    rep17 = random_polarity_search(
        std17, SearchConfig(family="fpqf", mode="random", samples=1, seed=7)
    )
    t17 = time.perf_counter() - start
    ok = t12 < 180.0 and t17 < 60.0 and rep12.polarities_evaluated == 4096
    report(10, ok, f"exhaustive m=12 in {t12:.1f}s (budget 180s), "
                   f"random m=17 in {t17:.1f}s (budget 60s)")


def _patterns_match(func, polarity):
    spec = rm_transform(func, polarity)
    polarized = forward_transform(to_multiplexer(func), polarity)
    mask = digit_mask(polarity, "0")
    dev = np.abs(polarized.targets - np.eye(2)).reshape(-1, 4).max(axis=1)
    non_identity = dev > TOL
    return all(
        bool(spec.coefficients[i]) == bool(non_identity[i ^ mask])
        for i in range(len(spec.coefficients))
    )


def test_criterion_11_classical_quantum_consistency():
    rng = np.random.default_rng(911)
    mismatches = 0
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        func = BoolFunc(n, rng.integers(0, 2, size=1 << n).astype(np.uint8))
        for polarity in all_polarities(n, "01"):
            checked += 1
            if not _patterns_match(func, polarity):
                mismatches += 1
    report(11, mismatches == 0,
           f"100 functions (2-5 vars), {checked} polarities, {mismatches} mismatches")


def test_criterion_12_pla_pipeline():
    parity = to_bool_func(load_pla(DATA / "xor5.pla"), 0)
    parity_mux = to_multiplexer(parity)
    fixed = exhaustive_search(parity_mux, SearchConfig(family="fpqf"))
    mixed = exhaustive_search(parity_mux, SearchConfig(family="kqf"))

    dominance_ok = (
        mixed.best_cost <= fixed.best_cost
        and mixed.best_cost <= fixed.original_cost
    )
    pattern_ok = True
    for path, outputs in ((DATA / "xor5.pla", [0]), (DATA / "pair.pla", [0, 1])):
        pla_file = load_pla(path)
        for output_index in outputs:
            func = to_bool_func(pla_file, output_index)
            for polarity in all_polarities(min(func.num_vars, 5), "01"):
                if not _patterns_match(func, polarity):
                    pattern_ok = False
    report(12, fixed.best_cost == 5 and dominance_ok and pattern_ok,
           f"5-input parity best fixed-polarity cost {fixed.best_cost} "
           f"(original {fixed.original_cost}), dominance and pattern checks hold")
