"""Seeded random multiplexer generation.

Targets are drawn i.i.d. uniformly from a named gate pool using numpy's
default generator (PCG64), so a (controls, pool, seed) triple always
produces the same multiplexer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import gates
from .errors import QmuxError, SizeLimitExceeded, UnknownGate
from .mux import Multiplexer, used_palette

MAX_CONTROLS = 20


@dataclass(frozen=True)
class GatePool:
    name: str
    gate_tokens: tuple

    def __post_init__(self):
        if not self.gate_tokens:
            raise QmuxError("gate pool cannot be empty")
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
    """Standard-form multiplexer with 2^controls targets drawn from pool,
    held as the palette of the pool gates drawn.  Raises QmuxError for
    fewer than 1 control and SizeLimitExceeded for more than MAX_CONTROLS."""
    if controls < 1:
        raise QmuxError(f"controls must be in 1..{MAX_CONTROLS}, got {controls}")
    if controls > MAX_CONTROLS:
        raise SizeLimitExceeded(
            f"generate is limited to {MAX_CONTROLS} controls, got {controls}"
        )
    rng = np.random.default_rng(seed)
    choices = rng.integers(0, len(pool.gate_tokens), size=1 << controls)
    return Multiplexer(controls, used_palette(pool.matrices(), choices))

