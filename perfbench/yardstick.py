"""Fixed work that gauges the host's current speed; independent of qmuxopt.

    python3 perfbench/yardstick.py

A fresh interpreter that imports numpy, runs butterfly-style columns over a
2^17 vector of 2x2 complex matrices (8 MiB, like the largest workload) and
renders and encodes 100,000 floats as text.  Nothing here imports the
program, so no change to it can move this time.
"""

import json

import numpy as np

SIZE = 1 << 17
COLUMNS = 6
TOKENS = 100_000


def main() -> None:
    rng = np.random.default_rng(0)
    theta = rng.random(SIZE) * np.pi
    vec = np.empty((SIZE, 2, 2), dtype=complex)
    vec[:, 0, 0] = vec[:, 1, 1] = np.cos(theta)
    vec[:, 1, 0] = np.sin(theta)
    vec[:, 0, 1] = -vec[:, 1, 0]
    idx = np.arange(SIZE)
    for k in range(COLUMNS):
        bit = 1 << (3 * k)
        lo = idx[(idx & bit) == 0]
        hi = lo | bit
        out = np.empty_like(vec)
        out[lo] = vec[lo]
        out[hi] = vec[hi] @ vec[lo].conj().transpose(0, 2, 1)
        vec = out
    tokens = [repr(float(x)) for x in vec[:TOKENS, 0, 0].real]
    json.dumps({"tokens": tokens})


if __name__ == "__main__":
    main()
