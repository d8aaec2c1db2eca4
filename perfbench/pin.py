#!/usr/bin/env python3
"""Pin the report digests that the benchmark checks every invocation against.

    python3 perfbench/pin.py SEED [SEED ...]

For each workload and seed, runs the CLI once, confirms its report by the
independent check and records the digest in ``pinned.json``.  The program's
outputs must stay byte-identical, so pin only on a commit whose outputs are
known good, and never re-pin a seed to make a run pass.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main(argv) -> int:
    seeds = [int(s) for s in argv]
    with open(workloads.PINNED_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)
    work = run.ROOT / ".perfbench" / "pin"
    work.mkdir(parents=True, exist_ok=True)
    launcher = run.Launcher()
    try:
        for seed in seeds:
            for w in workloads.WORKLOADS.values():
                inputs = workloads.make_inputs(w, seed, work)
                session = run.Session(launcher, w, inputs, seed, work)
                session.expected = None
                session.invoke([sys.executable, "-m", "qmuxopt.cli", *inputs.argv])
                check = session.confirm()
                if session.failed or not check["ok"]:
                    print(f"error: {w.name} seed {seed} failed: {check}", file=sys.stderr)
                    return 1
                pinned.setdefault(w.name, {})[str(seed)] = session.expected
                print(f"{w.name} seed {seed}: {session.expected}", flush=True)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        with open(workloads.PINNED_PATH, "w", encoding="utf-8") as fh:
            json.dump(pinned, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
