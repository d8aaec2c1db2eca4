"""Berkeley-style PLA file ingestion.

Parses two-level cover files (.i/.o headers, cube lines over {0,1,-},
output columns over {0,1,~,-}) and converts one output column into a
Boolean function, and that into a standard-form multiplexer with X/I
targets.  The first input column is the most significant minterm bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import gates, jsonout
from .boolrm import BoolFunc
from .errors import InconsistentWidth, MalformedCube, MalformedHeader, MissingHeader, QmuxError
from .errors import parse_count
from .mux import Multiplexer, Palette

_CUBE_CHARS = set("01-")
_OUTPUT_CHARS = set("01~-")


@dataclass
class PlaTerm:
    cube: str
    outputs: str


@dataclass
class PlaFile:
    num_inputs: int
    num_outputs: int
    num_terms: int | None
    terms: list
    ignored_directives: list = field(default_factory=list)


def _header_count(fields: list, least: int, source: str, line: int) -> int:
    """The count of a .i/.o/.p directive, an integer of at least `least`."""
    text = fields[1] if len(fields) > 1 else ""
    count = parse_count(text)
    if count is None or count < least:
        raise MalformedHeader(
            f"{fields[0]} needs an integer count of at least {least}, got {text!r}",
            source,
            line,
        )
    return count


def parse_pla(text: str, source: str = "<pla>") -> PlaFile:
    num_inputs = None
    num_outputs = None
    num_terms = None
    terms = []
    ignored = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        comment = raw.find("#")
        line = (raw[:comment] if comment >= 0 else raw).strip()
        if not line:
            continue
        if line.startswith("."):
            fields = line.split()
            directive = fields[0]
            if directive == ".i":
                num_inputs = _header_count(fields, 1, source, lineno)
            elif directive == ".o":
                num_outputs = _header_count(fields, 1, source, lineno)
            elif directive == ".p":
                num_terms = _header_count(fields, 0, source, lineno)
            elif directive in (".type", ".ilb", ".ob"):
                pass  # accepted silently: they do not change the ON-set read here
            elif directive in (".e", ".end"):
                break
            else:
                ignored.append(directive)
                warnings.warn(f"{source}:{lineno}: ignoring directive {directive!r}")
            continue

        if num_inputs is None or num_outputs is None:
            raise MissingHeader(
                "term before .i/.o declarations", source, lineno
            )
        fields = line.split()
        if len(fields) < 2:
            raise MalformedCube(
                f"term needs a cube and outputs, got {line!r}", source, lineno
            )
        cube = fields[0]
        outputs = "".join(fields[1:])
        if set(cube) - _CUBE_CHARS:
            raise MalformedCube(f"bad cube characters in {cube!r}", source, lineno)
        if set(outputs) - _OUTPUT_CHARS:
            raise MalformedCube(f"bad output characters in {outputs!r}", source, lineno)
        if len(cube) != num_inputs:
            raise InconsistentWidth(
                f"cube {cube!r} has {len(cube)} columns, .i says {num_inputs}",
                source,
                lineno,
            )
        if len(outputs) != num_outputs:
            raise InconsistentWidth(
                f"outputs {outputs!r} have {len(outputs)} columns, .o says {num_outputs}",
                source,
                lineno,
            )
        terms.append(PlaTerm(cube, outputs))

    if num_inputs is None or num_outputs is None:
        raise MissingHeader("missing .i/.o declarations", source)
    if num_terms is not None and num_terms != len(terms):
        warnings.warn(
            f"{source}: .p says {num_terms} terms but {len(terms)} were read"
        )
    return PlaFile(num_inputs, num_outputs, num_terms, terms, ignored)


def load_pla(path) -> PlaFile:
    return parse_pla(jsonout.read_file(path), source=str(path))


def cube_minterms(cube: str) -> np.ndarray:
    """All minterm indices a cube covers; '-' expands both ways.  Each
    '-' doubles the list: the indices so far, then the same with its bit set."""
    n = len(cube)
    idx = np.array([int(cube.replace("-", "0"), 2)], dtype=np.int64)
    for k, c in enumerate(cube):
        if c == "-":
            idx = np.concatenate((idx, idx | (1 << (n - 1 - k))))
    return idx


def to_bool_func(pla: PlaFile, output_index: int = 0) -> BoolFunc:
    """ON-set of one output column as a minterm vector.

    Overlapping terms OR together; '~' and '-' output entries are treated
    as 0 (don't-care outputs are outside the optimization's scope).
    """
    if not 0 <= output_index < pla.num_outputs:
        raise QmuxError(f"output index {output_index} out of range 0..{pla.num_outputs - 1}")
    vec = np.zeros(1 << pla.num_inputs, dtype=np.uint8)
    for term in pla.terms:
        if term.outputs[output_index] == "1":
            vec[cube_minterms(term.cube)] = 1
    vec.setflags(write=False)  # handed over: kept uncopied
    return BoolFunc(pla.num_inputs, vec)


def to_multiplexer(func: BoolFunc) -> Multiplexer:
    """Standard-form multiplexer realizing func: X where 1, I where 0, given
    Multiplexer as the palette of those two gates and the minterms as its
    index."""
    return Multiplexer(func.num_vars, Palette(np.stack([gates.I, gates.X]), func.minterms))
