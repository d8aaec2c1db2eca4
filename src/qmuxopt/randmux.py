"""Seeded random multiplexer generation, and the seeded integer stream.

Every seeded draw of the program is the stream of
`np.random.default_rng(seed).integers(0, k, size=n)`: numpy's SeedSequence
mixes the seed, PCG64 (O'Neill 2014: a 128-bit LCG with XSL-RR output)
steps from it, and each integer is a 32-bit Lemire bounded draw.
`generate` draws its 2^controls targets i.i.d. uniformly from a gate pool
with numpy's vectorized generator, so a (controls, pool, seed) triple
always produces the same multiplexer.  `Pcg64` is the same stream in
pure Python, for draws of a few integers at a time (random polarity
search), so that a run of those loads neither numpy.random nor what it
imports; and since its stream is its own, the polarities a seed draws do
not move with numpy's version.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import gates
from .errors import QmuxError, SizeLimitExceeded, UnknownGate, is_int
from .mux import Multiplexer, Palette

MAX_CONTROLS = 20

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list:
    """The four 64-bit words that SeedSequence(seed).generate_state(4,
    np.uint64) gives: the seed's 32-bit words, least significant first,
    hashed into a pool of four, then four words drawn from the pool."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)]


class Pcg64:
    """The stream of np.random.default_rng(seed), for `integers` only, in
    pure Python: Pcg64(seed).integers(k, n) gives the values, as ints, of
    default_rng(seed).integers(0, k, size=n), and so do later calls on
    both, with any k from 1 to 2^32 - 1.  The unused high half of a 64-bit
    output is kept for the next 32-bit draw, across calls too, as numpy's
    PCG64 keeps it.  The seed is a non-negative int (see SearchConfig)."""

    def __init__(self, seed: int):
        high, low, seq_high, seq_low = _seed_state(seed)
        self._inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        self._state = ((self._inc + (high << 64 | low)) * _PCG_MULT + self._inc) & _MASK128
        self._carry = None  # the unused high half of the last output

    def _next32(self) -> int:
        if self._carry is not None:
            value, self._carry = self._carry, None
            return value
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        state = self._state
        rotated = (state >> 64 ^ state) & _MASK64
        shift = state >> 122
        output = (rotated >> shift | rotated << (64 - shift)) & _MASK64
        self._carry = output >> 32
        return output & _MASK32

    def integers(self, k: int, n: int) -> list:
        """n integers drawn uniformly from range(k), by Lemire's method:
        the high 32 bits of a 32-bit draw times k, redrawn while the low 32
        bits fall under 2^32 mod k, so no value is favoured.  k == 1 draws
        nothing, as in numpy."""
        if not 1 <= k <= _MASK32:
            raise ValueError(f"Pcg64 draws from 1..2^32 - 1 values, got {k}")
        if k == 1:
            return [0] * n
        threshold = (1 << 32) % k
        out = []
        for _ in range(n):
            scaled = self._next32() * k
            while scaled & _MASK32 < threshold:
                scaled = self._next32() * k
            out.append(scaled >> 32)
        return out


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
    given Multiplexer as the palette of the pool's gates and the draws as
    its index, so it holds the distinct gates drawn: gate i is pool gate
    Pcg64(seed).integers(len(pool.gate_tokens), 2^controls)[i], drawn
    here by numpy's vectorized generator.  Raises QmuxError for fewer than
    1 control, a count or seed that is not an int, or a negative seed, and
    SizeLimitExceeded for more than MAX_CONTROLS."""
    if not is_int(controls):
        raise QmuxError(f"controls {controls!r} is not an int")
    if not is_int(seed) or seed < 0:
        raise QmuxError(f"seed must be a non-negative int, got {seed!r}")
    if controls < 1:
        raise QmuxError(f"controls must be in 1..{MAX_CONTROLS}, got {controls}")
    if controls > MAX_CONTROLS:
        raise SizeLimitExceeded(
            f"generate is limited to {MAX_CONTROLS} controls, got {controls}"
        )
    rng = np.random.default_rng(seed)
    choices = rng.integers(0, len(pool.gate_tokens), size=1 << controls, dtype=np.uint64)
    return Multiplexer(controls, Palette(pool.matrices(), choices))

