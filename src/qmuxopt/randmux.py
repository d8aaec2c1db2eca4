"""Seeded random multiplexer generation and hand-built reference cases.

Targets are drawn i.i.d. uniformly from a named gate pool using numpy's
default generator (PCG64), so a (controls, pool, seed) triple always
produces the same multiplexer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import gates
from .boolrm import BoolFunc
from .errors import UnknownGate
from .mux import Multiplexer
from .pla import to_multiplexer

MAX_CONTROLS = 20


@dataclass(frozen=True)
class GatePool:
    name: str
    gate_tokens: tuple

    def __post_init__(self):
        if not self.gate_tokens:
            raise ValueError("gate pool cannot be empty")
        for token in self.gate_tokens:
            gates.parse_gate(token)  # fail fast on typos

    def matrices(self) -> np.ndarray:
        return np.stack([gates.parse_gate(t) for t in self.gate_tokens])


POOL_FULL = GatePool("full", ("X", "Y", "Z", "H", "V", "VD", "I"))
POOL_NVV = GatePool("nvv", ("X", "V", "VD"))

BUILTIN_POOLS = {"full": POOL_FULL, "nvv": POOL_NVV}


def resolve_pool(label: str) -> GatePool:
    """Pool from a CLI spec: a builtin name or custom:<comma-separated tokens>."""
    name = label.strip().lower()
    if name in BUILTIN_POOLS:
        return BUILTIN_POOLS[name]
    if name.startswith("custom:"):
        # Split only on commas outside parentheses: an M(...) literal has seven.
        parts = re.split(r",(?![^()]*\))", label.split(":", 1)[1])
        tokens = tuple(t.strip() for t in parts if t.strip())
        return GatePool("custom", tokens)
    raise UnknownGate(f"unknown pool {label!r} (want full, nvv or custom:<tokens>)")


def generate(controls: int, pool: GatePool, seed: int) -> Multiplexer:
    """Standard-form multiplexer with 2^controls targets drawn from pool."""
    if not 1 <= controls <= MAX_CONTROLS:
        raise ValueError(f"controls must be in 1..{MAX_CONTROLS}, got {controls}")
    rng = np.random.default_rng(seed)
    choices = rng.integers(0, len(pool.gate_tokens), size=1 << controls)
    targets = pool.matrices()[choices]
    return Multiplexer(controls, targets)


@dataclass(frozen=True)
class KnownCase:
    name: str
    multiplexer: Multiplexer
    best_fpqf_polarity: str | None = None


def known_cases() -> list:
    """Hand-built multiplexers with known optima where pinned."""
    ivvx_targets = np.stack([gates.I, gates.V, gates.V, gates.X])
    parity3 = BoolFunc.from_string("01101001")
    return [
        KnownCase("iv-v-x", Multiplexer(2, ivvx_targets), "11"),
        KnownCase("all-identity-2", Multiplexer(2, np.stack([gates.I] * 4))),
        KnownCase("parity-3", to_multiplexer(parity3)),
    ]
