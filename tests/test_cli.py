import json

import numpy as np
import pytest

from qmuxopt import gates, pla
from qmuxopt.cli import main
from qmuxopt.mux import Multiplexer, forward_transform
from qmuxopt.muxio import dump_qmux, load_qmux, save_qmux


@pytest.fixture
def case_file(tmp_path):
    m = Multiplexer(2, np.stack([gates.I, gates.V, gates.V, gates.X]))
    path = tmp_path / "case.qmux"
    path.write_text(dump_qmux(m))
    return path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_optimize_text(capsys, case_file):
    code, out, _ = run(capsys, ["optimize", case_file, "--family", "fpqf"])
    assert code == 0
    assert "best polarity: 11   cost: 2" in out
    assert "original cost: 15" in out
    assert "I V V I" in out


def test_optimize_json_schema(capsys, case_file):
    code, out, _ = run(capsys, ["optimize", case_file, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["manifest"]["command"] == "optimize"
    assert data["manifest"]["version"]
    assert data["search"]["best_polarity"] == "11"
    assert data["search"]["best_cost"] == 2
    assert data["search"]["original_cost"] == 15
    assert data["best_targets"] == ["I", "V", "V", "I"]
    assert data["best_cost_report"]["total"] == 2


def test_optimize_csv_columns(capsys, case_file):
    code, out, _ = run(capsys, ["optimize", case_file, "--format", "csv"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "controls,original,best,worst,average,reduction_pct"
    fields = lines[1].split(",")
    assert fields[:4] == ["2", "15", "2", "3"]


def test_optimize_random_mode_deterministic(capsys, case_file):
    argv = ["optimize", case_file, "--mode", "random", "--samples", "4",
            "--seed", "11", "--format", "json"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out2, _ = run(capsys, argv)
    report1 = json.loads(out1)["search"]
    report2 = json.loads(out2)["search"]
    report1.pop("elapsed_s"), report2.pop("elapsed_s")
    assert report1 == report2


def test_optimize_kqf_bounded_by_original(capsys, case_file):
    code, out, _ = run(capsys, ["optimize", case_file, "--family", "kqf",
                                "--format", "json"])
    assert code == 0
    data = json.loads(out)["search"]
    assert data["best_cost"] <= data["original_cost"]


def test_optimize_writes_out_file(capsys, case_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, ["optimize", case_file, "--format", "json",
                              "--out", out_path])
    assert code == 0
    assert json.loads(out_path.read_text())["search"]["best_polarity"] == "11"


def test_optimize_malformed_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.qmux"
    bad.write_text("controls: 2\nform: standard\ntargets: I V QQQ X\n")
    code, _, err = run(capsys, ["optimize", bad])
    assert code == 2
    assert "bad.qmux:3:" in err


def test_optimize_size_limit_exits_3(capsys, tmp_path):
    big = Multiplexer(10, np.tile(gates.X, (1024, 1, 1)))
    path = tmp_path / "big.qmux"
    save_qmux(big, path)
    code, _, err = run(capsys, ["optimize", path, "--family", "kqf"])
    assert code == 3
    assert "limit" in err


def test_verify_pass_and_exit_zero(capsys, case_file):
    code, out, _ = run(capsys, ["verify", case_file, "11"])
    assert code == 0
    assert "PASS" in out
    assert "max deviation" in out


def test_verify_all_mixed_deviation_zero(capsys, case_file):
    code, out, _ = run(capsys, ["verify", case_file, "22"])
    assert code == 0
    assert "max deviation: 0.000e+00" in out


def test_verify_corrupted_targets_fail_exit_one(capsys, case_file, tmp_path):
    std = load_qmux(case_file)
    good = forward_transform(std, "11")
    corrupted = Multiplexer(
        2,
        np.stack([good.targets[0], gates.H, good.targets[2], good.targets[3]]),
        good.form,
        good.polarity,
    )
    bad_path = tmp_path / "tampered.qmux"
    save_qmux(corrupted, bad_path)
    code, out, _ = run(capsys, ["verify", case_file, "11",
                                "--transformed", bad_path])
    assert code == 1
    assert "FAIL" in out


def test_verify_transformed_polarity_mismatch_exits_2(capsys, case_file, tmp_path):
    good = forward_transform(load_qmux(case_file), "10")
    path = tmp_path / "g.qmux"
    save_qmux(good, path)
    code, _, err = run(capsys, ["verify", case_file, "11", "--transformed", path])
    assert code == 2
    assert "polarity" in err


def test_optimize_then_verify_best_always_passes(capsys, tmp_path):
    rng = np.random.default_rng(160)
    targets = np.stack([gates.random_unitary(rng) for _ in range(8)])
    path = tmp_path / "r.qmux"
    save_qmux(Multiplexer(3, targets), path)
    code, out, _ = run(capsys, ["optimize", path, "--format", "json"])
    best = json.loads(out)["search"]["best_polarity"]
    code, out, _ = run(capsys, ["verify", path, best])
    assert code == 0
    assert "PASS" in out


def test_classical_table_matches_costs(capsys):
    code, out, _ = run(capsys, ["classical", "01101111", "--format", "csv"])
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == "polarity,cost"
    table = dict(row.split(",") for row in rows[1:])
    assert table == {
        "000": "5", "001": "4", "010": "4", "011": "5",
        "100": "7", "101": "6", "110": "6", "111": "7",
    }


def test_classical_accepts_hex_and_pla(capsys, tmp_path):
    code, out_hex, _ = run(capsys, ["classical", "0x6F", "--format", "csv"])
    assert code == 0
    pla_path = tmp_path / "f.pla"
    pla_path.write_text(".i 2\n.o 1\n01 1\n10 1\n.e\n")
    code, out_pla, _ = run(capsys, ["classical", pla_path, "--format", "csv"])
    assert code == 0
    rows = [ln for ln in out_pla.splitlines() if ln and not ln.startswith("#")]
    assert rows[1].split(",")[1] == "2"  # parity of two variables costs 2


def test_classical_top_limits_rows(capsys):
    code, out, _ = run(capsys, ["classical", "01101111", "--top", "3",
                                "--format", "csv"])
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 3


def test_classical_negative_top_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classical", "0x6F", "--top", "-2"])
    assert exc.value.code == 2
    assert "--top" in capsys.readouterr().err


def test_classical_mixed_family(capsys):
    code, out, _ = run(capsys, ["classical", "01101111", "--family", "krm",
                                "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "krm"
    ranked = {r["polarity"]: r["cost"] for r in data["ranked"]}
    assert len(ranked) == 27
    assert ranked["021"] == 10


@pytest.mark.parametrize("header", [".i", ".i x", ".i 0"])
def test_classical_bad_pla_header_exits_2(capsys, tmp_path, header):
    path = tmp_path / "f.pla"
    path.write_text(f"{header}\n.o 1\n01 1\n.e\n")
    code, out, err = run(capsys, ["classical", path])
    assert code == 2
    assert "f.pla:1: .i needs an integer count" in err
    assert out == ""


def test_classical_pla_size_limit_comes_before_the_minterm_vector(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built the 2^n minterm vector of an oversized cover")

    monkeypatch.setattr(pla, "to_bool_func", refuse)
    path = tmp_path / "wide.pla"
    path.write_text(".i 17\n.o 1\n.e\n")
    code, _, err = run(capsys, ["classical", path, "--family", "fprm"])
    assert code == 3
    assert "exhaustive fprm search is limited to 16 variables, got 17" in err


def test_optimize_control_count_below_one_exits_2(capsys, tmp_path):
    path = tmp_path / "neg.qmux"
    path.write_text("controls: -1\nform: standard\ntargets: I I\n")
    code, _, err = run(capsys, ["optimize", path])
    assert code == 2
    assert "neg.qmux:1: bad control count '-1'" in err


def test_classical_bad_minterms_exit_2(capsys):
    code, _, err = run(capsys, ["classical", "011"])
    assert code == 2


def test_generate_round_trips_and_is_byte_stable(capsys, tmp_path):
    out1 = tmp_path / "a.qmux"
    out2 = tmp_path / "b.qmux"
    argv = ["generate", "--controls", "2", "--pool", "custom:I,V,V,X",
            "--seed", "3", "--out"]
    assert run(capsys, argv + [out1])[0] == 0
    assert run(capsys, argv + [out2])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    loaded = load_qmux(out1)
    assert loaded.controls == 2
    assert loaded.form == "standard"


def test_generate_then_optimize_random_mode(capsys, tmp_path):
    path = tmp_path / "m6.qmux"
    code, _, _ = run(capsys, ["generate", "--controls", "6", "--pool", "full",
                              "--seed", "8", "--out", path])
    assert code == 0
    code, out, _ = run(capsys, ["optimize", path, "--mode", "random",
                                "--samples", "3", "--seed", "5",
                                "--format", "json"])
    assert code == 0
    data = json.loads(out)["search"]
    assert data["polarities_evaluated"] == 3
    assert data["best_cost"] <= data["worst_cost"]


def test_cost_command(capsys, case_file):
    code, out, _ = run(capsys, ["cost", case_file, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["cost_report"]["total"] == 15
    assert data["form"] == "standard"


def test_cost_of_polarized_file(capsys, case_file, tmp_path):
    g = forward_transform(load_qmux(case_file), "11")
    path = tmp_path / "g.qmux"
    save_qmux(g, path)
    code, out, _ = run(capsys, ["cost", path, "--format", "json"])
    assert json.loads(out)["cost_report"]["total"] == 2


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["cost", "/nonexistent/zzz.qmux"])
    assert code == 2


def _refuse(*args, **kwargs):
    raise AssertionError("built a report body the format does not use")


# Per format, the body builders of the other formats; each must not run.
OPTIMIZE_UNUSED = {
    "text": ["search_mod.SearchReport.to_json_dict", "cost.CostReport.to_json_dict",
             "search_mod.SearchReport.csv_row"],
    "json": ["cost.CostReport.format_table", "search_mod.SearchReport.csv_row"],
    "csv": ["cost.CostReport.format_table", "cost.CostReport.to_json_dict",
            "search_mod.SearchReport.to_json_dict", "muxio.target_tokens"],
}
CLASSICAL_UNUSED = {"text": ["_ranked_json"], "json": ["_ranked_lines"], "csv": ["_ranked_json"]}
COST_UNUSED = {
    "text": ["cost.CostReport.to_json_dict"],
    "json": ["cost.CostReport.format_table"],
    "csv": ["cost.CostReport.format_table", "cost.CostReport.to_json_dict"],
}


def _patch_out(monkeypatch, names):
    import qmuxopt.cli as cli_mod

    for name in names:
        *path, attr = name.split(".")
        owner = cli_mod
        for part in path:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, attr, _refuse)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_only_the_requested_report_body_is_built(monkeypatch, capsys, case_file, fmt):
    commands = [
        (["optimize", case_file, "--family", "kqf"], OPTIMIZE_UNUSED),
        (["classical", "01101111", "--family", "krm"], CLASSICAL_UNUSED),
        (["cost", case_file], COST_UNUSED),
    ]
    for argv, unused in commands:
        expected = run(capsys, [*argv, "--format", fmt])
        with monkeypatch.context() as patch:
            _patch_out(patch, unused[fmt])
            got = run(capsys, [*argv, "--format", fmt])
        assert got[0] == 0
        assert _steady_lines(got[1]) == _steady_lines(expected[1])


def _steady_lines(out):
    """Report lines apart from the timings, which change from run to run."""
    volatile = ("wall", "elapsed", "search time")
    return [ln for ln in out.splitlines() if not any(v in ln for v in volatile)]
