import pathlib

import numpy as np
import pytest

from qmuxopt import boolrm, gates
from qmuxopt.blocksearch import digit_mask
from qmuxopt.boolrm import rm_transform
from qmuxopt.errors import (
    InconsistentWidth,
    MalformedCube,
    MalformedHeader,
    MissingHeader,
    ParseError,
)
from qmuxopt.mux import forward_transform, semantics
from qmuxopt.pla import (
    cube_minterms,
    load_pla,
    parse_pla,
    to_bool_func,
    to_multiplexer,
)

import oracle

DATA = pathlib.Path(__file__).parent / "data"

XOR_PLA = ".i 2\n.o 1\n.p 2\n01 1\n10 1\n.e\n"


def test_parse_basic_file():
    parsed = parse_pla(XOR_PLA)
    assert parsed.num_inputs == 2
    assert parsed.num_outputs == 1
    assert parsed.num_terms == 2
    assert len(parsed.terms) == 2


def test_parse_stops_at_end_marker():
    parsed = parse_pla(XOR_PLA + "11 1\n")
    assert len(parsed.terms) == 2


def test_parse_strips_comments_and_blanks():
    text = "# header\n.i 1\n.o 1\n\n1 1   # on-set\n.e\n"
    parsed = parse_pla(text)
    assert len(parsed.terms) == 1


def test_unknown_directive_warns_but_parses():
    with pytest.warns(UserWarning):
        parsed = parse_pla(".i 1\n.o 1\n.phase 1\n1 1\n.e\n")
    assert parsed.ignored_directives == [".phase"]


def test_inconsistent_cube_width():
    with pytest.raises(InconsistentWidth):
        parse_pla(".i 1\n.o 1\n0- 1\n.e\n")


def test_inconsistent_output_width():
    with pytest.raises(InconsistentWidth):
        parse_pla(".i 2\n.o 2\n01 1\n.e\n")


def test_missing_header():
    with pytest.raises(MissingHeader):
        parse_pla("01 1\n.e\n")
    with pytest.raises(MissingHeader):
        parse_pla("# nothing here\n")


@pytest.mark.parametrize(
    "text,line",
    [
        (".i\n.o 1\n.e\n", 1),
        (".i x\n.o 1\n.e\n", 1),
        (".i 0\n.o 1\n.e\n", 1),
        ("# header\n.i 2\n.o\n.e\n", 3),
        (".i 2\n.o 0\n.e\n", 2),
        (".i 2\n.o 1\n.p -1\n.e\n", 3),
        (".i 2\n.o 1\n.p many\n.e\n", 3),
    ],
)
def test_bad_header_count_is_a_parse_error_with_its_line(text, line):
    with pytest.raises(MalformedHeader) as info:
        parse_pla(text, source="f.pla")
    assert isinstance(info.value, ParseError)
    assert info.value.line == line
    assert f"f.pla:{line}:" in str(info.value)


def test_empty_cover_count_is_allowed():
    assert parse_pla(".i 2\n.o 1\n.p 0\n.e\n").num_terms == 0


def test_malformed_output_characters():
    with pytest.raises(MalformedCube, match="output"):
        parse_pla(".i 2\n.o 1\n01 x\n.e\n")


def test_malformed_cube_characters():
    with pytest.raises(MalformedCube):
        parse_pla(".i 2\n.o 1\n0x 1\n.e\n")
    with pytest.raises(MalformedCube):
        parse_pla(".i 2\n.o 1\n01\n.e\n")


def test_term_count_mismatch_warns():
    with pytest.warns(UserWarning):
        parse_pla(".i 2\n.o 1\n.p 5\n01 1\n.e\n")


def test_cube_expansion():
    assert sorted(cube_minterms("1-")) == [2, 3]
    assert sorted(cube_minterms("--")) == [0, 1, 2, 3]
    assert list(cube_minterms("10")) == [2]


def test_to_bool_func_xor():
    func = to_bool_func(parse_pla(XOR_PLA), 0)
    assert list(func.minterms) == [0, 1, 1, 0]


def test_to_bool_func_empty_terms():
    func = to_bool_func(parse_pla(".i 2\n.o 1\n.e\n"), 0)
    assert not func.minterms.any()


def test_to_bool_func_overlapping_terms_or_together():
    text = ".i 2\n.o 1\n1- 1\n-1 1\n.e\n"
    func = to_bool_func(parse_pla(text), 0)
    assert list(func.minterms) == [0, 1, 1, 1]


def test_to_bool_func_output_selection():
    pla = load_pla(DATA / "pair.pla")
    assert list(to_bool_func(pla, 0).minterms) == [0, 1, 1, 0]
    assert list(to_bool_func(pla, 1).minterms) == [0, 0, 0, 1]
    with pytest.raises(ValueError):
        to_bool_func(pla, 2)


def test_unspecified_outputs_read_as_off():
    text = ".i 1\n.o 1\n0 ~\n1 1\n.e\n"
    func = to_bool_func(parse_pla(text), 0)
    assert list(func.minterms) == [0, 1]


def test_parity_file_has_sixteen_ones():
    func = to_bool_func(load_pla(DATA / "xor5.pla"), 0)
    assert func.num_vars == 5
    assert int(func.minterms.sum()) == 16
    for i in range(32):
        assert func.value(i) == bin(i).count("1") % 2


def test_to_multiplexer_target_rule():
    func = boolrm.BoolFunc.from_string("0110")
    m = to_multiplexer(func)
    assert oracle.approx_eq(m.targets[0], gates.I)
    assert oracle.approx_eq(m.targets[1], gates.X)
    assert oracle.approx_eq(m.targets[2], gates.X)
    assert oracle.approx_eq(m.targets[3], gates.I)


def test_to_multiplexer_semantics_round_trip():
    rng = np.random.default_rng(130)
    for n in (1, 2, 3, 4):
        func = boolrm.BoolFunc(n, rng.integers(0, 2, size=1 << n).astype(np.uint8))
        m = to_multiplexer(func)
        for state in range(1 << n):
            want = gates.X if func.value(state) else gates.I
            assert np.array_equal(semantics(m, state), want)


def test_single_variable_positive_polarity_keeps_targets():
    func = boolrm.BoolFunc.from_string("01")  # f = a
    out = forward_transform(to_multiplexer(func), "1")
    assert oracle.approx_eq(out.targets[0], gates.I)
    assert oracle.approx_eq(out.targets[1], gates.X)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gate_pattern_matches_spectrum_pattern(n):
    # X/I multiplexers reduce the butterfly to GF(2): a polarized gate is
    # non-identity exactly when the matching spectral coefficient is set.
    # Transform output position i corresponds to gate index i with the
    # fixed-negative digit bits flipped.
    rng = np.random.default_rng(140 + n)
    for _ in range(5):
        func = boolrm.BoolFunc(n, rng.integers(0, 2, size=1 << n).astype(np.uint8))
        m = to_multiplexer(func)
        for trial in range(6):
            polarity = "".join(str(d) for d in rng.integers(0, 3, size=n))
            spec = rm_transform(func, polarity)
            polarized = forward_transform(m, polarity)
            mask = digit_mask(polarity, "0")
            deviation = np.abs(polarized.targets - np.eye(2)).reshape(-1, 4).max(axis=1)
            non_identity = deviation > 1e-9
            for i in range(1 << n):
                assert bool(spec.coefficients[i]) == bool(non_identity[i ^ mask])


def test_cube_minterms_match_a_scalar_reference():
    rng = np.random.default_rng(44)
    cubes = ["-" * 8, "10110100", "-", "0", "1"]
    cubes += ["".join(rng.choice(list("01-"), size=n)) for n in range(1, 9) for _ in range(6)]
    for cube in cubes:
        n = len(cube)
        expected = [
            idx
            for idx in range(1 << n)
            if all(c == "-" or int(c) == (idx >> (n - 1 - k)) & 1 for k, c in enumerate(cube))
        ]
        assert sorted(cube_minterms(cube).tolist()) == expected


def test_a_pla_file_that_is_not_utf8_is_refused_naming_it(tmp_path):
    """load_pla reads through the same file helper as the .qmux loader, so
    bytes that are not UTF-8 are a ParseError naming the path."""
    path = tmp_path / "bad.pla"
    path.write_bytes(b".i 2\n.o 1\n\xff1 1\n.e\n")
    with pytest.raises(ParseError) as info:
        load_pla(path)
    assert str(info.value) == (
        f"{path}: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
    )
