"""One qmuxopt CLI invocation with timing wrappers on its layer boundaries.

    python3 perfbench/tracer.py TRACE_JSON CLI_ARG...

The wrappers replace module attributes of the installed program from the
outside; the program's source is not touched.  Every caller looks these
functions up through the module attribute at call time, so a wrapper sees
every call.  A stack of child-time accumulators gives each layer's self
time: its own duration minus that of the wrapped calls made inside it.

The program runs in one thread with no queues, so no layer waits on
another and no wait time is recorded.  Bytes and flops are computed from
array sizes (read the input vector, write the output vector; 56 real flops
per 2x2 complex product), not measured.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

LAYERS = (
    "cli.main",
    "muxio.load_qmux",
    "muxio.target_tokens",
    "search.run_search",
    "kernels.gate_stage",
    "kernels.mux_cost",
    "kernels.gf2_stage",
    "mux.forward_transform",
    "cost.multiplexer_cost",
    "boolrm.rm_search",
)

FLOPS_PER_PRODUCT = 56  # 8 complex multiplies and 4 complex adds


class Tracer:
    def __init__(self):
        self.layers = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in LAYERS}
        self.counters = {
            "kernels.gate_stage.gates": 0,
            "kernels.gate_stage.identity_calls": 0,
            "kernels.gate_stage.bytes_computed": 0,
            "kernels.gate_stage.flops_computed": 0,
            "kernels.mux_cost.gates": 0,
            "kernels.mux_cost.identities": 0,
            "kernels.gf2_stage.bits": 0,
            "search.polarities": 0,
        }
        self._children = [0.0]  # child time of each open span; [0] is the root
        self._identity = None

    def install(self) -> None:
        """Replace every layer function by its wrapper, in its own module."""
        from qmuxopt import kernels

        self._identity = kernels.IDENTITY
        counts = {
            "kernels.gate_stage": self._count_gate_stage,
            "kernels.mux_cost": self._count_mux_cost,
            "kernels.gf2_stage": self._count_gf2_stage,
            "search.run_search": self._count_search,
        }
        for name in LAYERS:
            module_name, attr = name.split(".")
            module = importlib.import_module(f"qmuxopt.{module_name}")
            setattr(module, attr, self._wrap(name, getattr(module, attr), counts.get(name)))

    def _wrap(self, name, fn, count):
        stats = self.layers[name]
        children = self._children

        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                children[-1] += elapsed
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - inner
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_gate_stage(self, args, result):
        gate_vector, kernel = args[0], args[1]
        c = self.counters
        c["kernels.gate_stage.gates"] += gate_vector.shape[0]
        c["kernels.gate_stage.bytes_computed"] += gate_vector.nbytes + result.nbytes
        if kernel == self._identity:
            c["kernels.gate_stage.identity_calls"] += 1
        else:
            c["kernels.gate_stage.flops_computed"] += (
                gate_vector.shape[0] // 2 * FLOPS_PER_PRODUCT
            )

    def _count_mux_cost(self, args, result):
        self.counters["kernels.mux_cost.gates"] += args[0].shape[0]
        self.counters["kernels.mux_cost.identities"] += result[1]

    def _count_gf2_stage(self, args, result):
        self.counters["kernels.gf2_stage.bits"] += args[0].shape[0]

    def _count_search(self, args, result):
        self.counters["search.polarities"] += result.polarities_evaluated

    def summary(self) -> dict:
        return {"layers": self.layers, "counters": self.counters}


def main(argv) -> int:
    trace_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    from qmuxopt import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        trace_path.write_text(json.dumps(tracer.summary()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
