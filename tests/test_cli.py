import importlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from qmuxopt import gates, pla, randmux
from qmuxopt import mux as mux_mod
from qmuxopt.cli import main
from qmuxopt.mux import Multiplexer, forward_transform
from qmuxopt.muxio import dump_qmux, load_qmux, save_qmux
from qmuxopt.randmux import POOL_FULL, generate

import oracle
from oracle import ivvx_case


@pytest.fixture
def case_file(tmp_path):
    m = ivvx_case()
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


@pytest.mark.parametrize("suffix", [".qmux", ".json"])
def test_cost_refuses_an_unmatchable_control_count_with_exit_2(capsys, tmp_path, suffix):
    path = tmp_path / f"huge{suffix}"
    if suffix == ".json":
        path.write_text('{"controls": 100000, "form": "standard", "targets": ["I", "X"]}')
    else:
        path.write_text("controls: 100000\nform: standard\ntargets: I X\n")
    code, out, err = run(capsys, ["cost", path])
    line = "" if suffix == ".json" else ":1"
    assert (code, out) == (2, "")
    assert err == f"error: {path}{line}: 100000 controls need 2^100000 gate tokens, got 2\n"


def test_a_random_report_holds_a_few_target_vectors_at_most(tmp_path):
    """In process, a random-mode JSON report at m = 16 peaks (tracemalloc)
    under 8 times the 2^m x 64 B target vector: every pass over the vector
    works in chunks and the best targets are rendered as they are written."""
    m = 16
    path = tmp_path / "m16.qmux"
    save_qmux(generate(m, POOL_FULL, seed=3), path)
    argv = ["optimize", str(path), "--mode", "random", "--samples", "2", "--seed", "3",
            "--format", "json", "--out", str(tmp_path / "report.json")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (1 << m) * 64


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


@pytest.mark.parametrize("polarity", ["13", "31", "x2"])
def test_a_polarity_digit_outside_012_is_named_against_all_three(capsys, case_file, polarity):
    """A bad digit is refused against every quantum digit, so the message
    does not leave out the '2' that a polarity may hold."""
    code, out, err = run(capsys, ["verify", case_file, polarity])
    assert code == 2 and out == ""
    assert err == f"error: kqf polarity {polarity!r} uses digits outside '012'\n"


def test_verify_transformed_with_another_control_count_exits_2(capsys, case_file, tmp_path):
    # The polarity matches the transformed file, so only the counts differ.
    path = tmp_path / "three.qmux"
    save_qmux(forward_transform(generate(3, POOL_FULL, seed=2), "101"), path)
    code, _, err = run(capsys, ["verify", case_file, "101", "--transformed", path])
    assert code == 2
    assert err.strip().endswith(f"{path}: transformed file has 3 controls, the input has 2")


@pytest.mark.parametrize("token", ["RX(inf)", "RZ(nan)", "RX(1e400)"])
@pytest.mark.parametrize("name", ["bad.qmux", "bad.json"])
def test_cost_refuses_a_non_finite_rotation_angle_with_its_position(capsys, tmp_path, name, token):
    path = tmp_path / name
    if name.endswith(".json"):
        path.write_text(json.dumps({"controls": 1, "form": "standard", "targets": ["X", token]}))
        where = f"{path}: target 1:"
    else:
        path.write_text(f"controls: 1\nform: standard\ntargets:\n  X {token}\n")
        where = f"{path}:4:5:"
    code, out, err = run(capsys, ["cost", path])
    assert code == 2 and out == ""
    assert f"{where} bad rotation angle in {token!r}" in err
    assert "Warning" not in err


def test_generate_refuses_a_pool_with_a_non_finite_angle(capsys, tmp_path):
    out = tmp_path / "g.qmux"
    code, _, err = run(capsys, ["generate", "--controls", "2", "--pool", "custom:X,RX(inf)",
                                "--out", out])
    assert code == 2
    assert "bad rotation angle in 'RX(inf)'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "controls,code,message",
    [
        (21, 3, "error: generate is limited to 20 controls, got 21"),
        (0, 2, "error: controls must be in 1..20, got 0"),
    ],
)
def test_generate_control_count_limits_exit_codes(capsys, tmp_path, controls, code, message):
    """More controls than randmux.MAX_CONTROLS is a size limit (exit 3, as
    for random search's limit); fewer than one is a usage error (exit 2)."""
    out = tmp_path / "g.qmux"
    got, stdout, err = run(capsys, ["generate", "--controls", controls, "--out", out])
    assert (got, stdout, err) == (code, "", message + "\n")
    assert not out.exists()


def test_optimize_then_verify_best_always_passes(capsys, tmp_path):
    rng = np.random.default_rng(160)
    targets = oracle.random_unitaries(rng, 8)
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


@pytest.mark.parametrize("index", [5, -1])
def test_classical_minterm_string_rejects_an_output_index_past_0(capsys, index):
    code, out, err = run(capsys, ["classical", "0x6F", "--output-index", index])
    assert code == 2
    assert f"0x6F: output index {index} out of range 0..0" in err
    assert out == ""


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


@pytest.mark.parametrize("command", ["optimize", "generate"])
def test_negative_seed_is_a_usage_error(capsys, case_file, tmp_path, command):
    argv = {
        "optimize": ["optimize", str(case_file), "--mode", "random"],
        "generate": ["generate", "--controls", "2", "--out", str(tmp_path / "g.qmux")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: want a non-negative integer, got '-1'" in capsys.readouterr().err


def test_cost_rejects_a_json_mirror_whose_targets_are_a_string(capsys, tmp_path):
    path = tmp_path / "case.json"
    path.write_text('{"controls": 2, "form": "standard", "targets": "IVVX"}')
    code, _, err = run(capsys, ["cost", path])
    assert code == 2
    assert "targets is not a list of strings" in err


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


# Per format, the body builders of the other formats, as "module.name...";
# each must not run.
OPTIMIZE_UNUSED = {
    "text": ["search.SearchReport.to_json_dict", "cost.CostReport.to_json_dict",
             "search.SearchReport.csv_row"],
    "json": ["cost.CostReport.format_table", "search.SearchReport.csv_row"],
    "csv": ["cost.CostReport.format_table", "cost.CostReport.to_json_dict",
            "search.SearchReport.to_json_dict", "muxio.target_tokens"],
}
CLASSICAL_UNUSED = {
    "text": ["cli._ranked_json"], "json": ["cli._ranked_lines"], "csv": ["cli._ranked_json"],
}
COST_UNUSED = {
    "text": ["cost.CostReport.to_json_dict"],
    "json": ["cost.CostReport.format_table"],
    "csv": ["cost.CostReport.format_table", "cost.CostReport.to_json_dict"],
}


def _patch_out(monkeypatch, names):
    """Patch each name in its own module, which the commands import when
    they run."""
    for name in names:
        module, *path, attr = name.split(".")
        owner = importlib.import_module(f"qmuxopt.{module}")
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


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_out_file_holds_the_stdout_bytes(monkeypatch, capsys, case_file, tmp_path, fmt):
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)  # timings differ run to run
    out_path = tmp_path / "report"
    commands = [
        ["optimize", case_file, "--family", "kqf"],
        ["cost", case_file],
        ["verify", case_file, "10"],
        ["classical", "01101111", "--family", "krm"],
    ]
    for argv in commands:
        code, out, _ = run(capsys, [*argv, "--format", fmt])
        assert code == 0
        assert run(capsys, [*argv, "--format", fmt, "--out", out_path]) == (0, "", "")
        assert out_path.read_bytes() == out.encode()
        if fmt == "json":
            assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _steady_lines(out):
    """Report lines apart from the timings, which change from run to run."""
    volatile = ("wall", "elapsed", "search time")
    return [ln for ln in out.splitlines() if not any(v in ln for v in volatile)]


def test_optimize_random_size_limit_exits_3(capsys, tmp_path, monkeypatch):
    path = tmp_path / "m4.qmux"
    save_qmux(generate(4, POOL_FULL, seed=0), path)
    monkeypatch.setattr(randmux, "MAX_CONTROLS", 3)
    code, _, err = run(capsys, ["optimize", path, "--mode", "random"])
    assert code == 3
    assert "random search is limited to 3 controls" in err


def test_verify_refuses_past_its_limit_before_any_transform(capsys, tmp_path, monkeypatch):
    path = tmp_path / "m15.qmux"
    save_qmux(generate(15, POOL_FULL, seed=5), path)
    monkeypatch.setattr(mux_mod, "forward_transform", _refuse)
    monkeypatch.setattr(mux_mod, "max_semantic_deviation", _refuse)
    start = time.perf_counter()
    code, _, err = run(capsys, ["verify", path, "1" * 15])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert err == "error: verify is limited to 14 controls, got 15\n"


def test_verify_help_states_its_limit(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "limited to 14 controls" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["cost", "optimize", "verify", "verify --transformed"])
def test_a_qmux_file_that_is_not_utf8_is_named_in_the_error(capsys, case_file, tmp_path, command):
    bad = tmp_path / "bad.qmux"
    bad.write_bytes(b"\xffcontrols: 2\n")
    if command == "verify --transformed":
        argv = ["verify", case_file, "11", "--transformed", bad]
    else:
        argv = [command, bad] + (["11"] if command == "verify" else [])
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


def test_verify_transformed_in_standard_form_exits_2(capsys, case_file):
    code, _, err = run(capsys, ["verify", case_file, "11", "--transformed", case_file])
    assert code == 2
    assert "standard form" in err


@pytest.mark.parametrize("name", ["bad.qmux", "bad.json"])
def test_fpqf_form_with_a_mixed_digit_exits_2(capsys, tmp_path, name):
    path = tmp_path / name
    if name.endswith(".json"):
        path.write_text(json.dumps({"controls": 3, "form": "fpqf:012", "targets": ["I"] * 8}))
    else:
        path.write_text("controls: 3\nform: fpqf:012\ntargets: I I I I I I I I\n")
    code, _, err = run(capsys, ["cost", path])
    assert code == 2
    assert name in err


def test_a_quantum_run_does_not_import_numpy_ma(tmp_path):
    """A bare np.unique call (no return_* flag) imports numpy.ma, about
    10 ms in a fresh interpreter; the program's np.unique calls ask for
    the index or the inverse, which do not."""
    path = tmp_path / "m3.qmux"
    save_qmux(generate(3, POOL_FULL, seed=1), path)
    script = (
        "import sys\n"
        "from qmuxopt import cli\n"
        f"assert cli.main(['optimize', {str(path)!r}, '--format', 'json', '--out', "
        f"{str(tmp_path / 'r.json')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _child_usage(argv, **env_vars):
    """Resource usage of one CLI run in a fresh interpreter, read from
    os.wait4; the run's environment has no MALLOC_ variable but env_vars."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env.update(PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **env_vars)
    proc = subprocess.Popen([sys.executable, "-m", "qmuxopt.cli", *map(str, argv)], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage


def test_search_faults_do_not_depend_on_the_allocator(tmp_path):
    """The block search allocates its working memory once per search, so
    glibc's mmap and trim thresholds barely change its page faults.
    Bound: the plain run makes at most 2,000 more minor faults than one
    whose thresholds (64 MB, 256 MB) keep every buffer on the heap.
    Measured on a 2-core Xeon: 6.3k against 5.5k; with a fresh buffer per
    block column, live mask and reduction step it was 21.5k against 5.5k."""
    path = tmp_path / "m12.qmux"
    save_qmux(generate(12, POOL_FULL, seed=3), path)
    argv = ["optimize", path, "--family", "fpqf", "--format", "json"]
    plain = _child_usage(argv).ru_minflt
    tuned = _child_usage(
        argv, MALLOC_MMAP_THRESHOLD_="67108864", MALLOC_TRIM_THRESHOLD_="268435456"
    ).ru_minflt
    assert plain <= tuned + 2000, (plain, tuned)


def _peak_rss_mb(argv) -> float:
    """Peak RSS of one CLI run in a fresh interpreter, in MB, read from
    os.wait4 by a small launcher process: a child's ru_maxrss starts from
    the RSS of the process it was forked from, here the test runner's."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    launcher = (
        "import os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    argv = [sys.executable, "-c", launcher, sys.executable, "-m", "qmuxopt.cli", *map(str, argv)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    code, peak_kb = map(int, done.stdout.split())
    assert code == 0, done.stderr
    return peak_kb / 1024


def test_cost_report_memory_does_not_grow_with_the_gates(tmp_path):
    """The cost report holds no per-gate array and every write is bounded
    in characters, so `cost --format json` peak RSS grows by at most 4 MB
    from 12 to 18 controls, 64 times the gates.  Measured on a 2-core Xeon
    (full pool, seed 3): 30.4 -> 32.5 MB, 2.1 MB of growth, so the margin
    is 1.9 MB; with three int64 arrays per gate in the report it grew
    31.4 -> 40.0 MB, 8.6 MB."""
    peaks = []
    for m in (12, 18):
        path = tmp_path / f"m{m}.qmux"
        save_qmux(generate(m, POOL_FULL, seed=3), path)
        peaks.append(_peak_rss_mb(["cost", path, "--format", "json"]))
    assert peaks[1] - peaks[0] <= 4.0, peaks


def test_classical_report_memory_does_not_grow_with_the_polarities():
    """The classical ranking is a view over its int64 cost and order arrays,
    and its rows are named a write-sized batch at a time, so `classical
    --format json` peak RSS grows by at most 8 MB from 12 to 16 variables,
    16 times the polarities (the block search's own workspace grows by
    about 4 MB of it).  The lower of two runs each; measured on a 2-core
    Xeon (seed 71): 31.1 -> 36.1 MB, about 5 MB of growth; with a
    (polarity, cost) tuple per polarity it grew 31.0 -> 46.3 MB, 15.3 MB."""
    peaks = []
    for n in (12, 16):
        bits = np.random.default_rng(71).integers(0, 2, size=1 << n, dtype=np.uint8)
        argv = ["classical", "0x" + np.packbits(bits).tobytes().hex(), "--format", "json"]
        peaks.append(min(_peak_rss_mb(argv) for _ in range(2)))
    assert peaks[1] - peaks[0] <= 8.0, peaks
