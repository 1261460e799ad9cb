#!/usr/bin/env python3
"""Write bench/known_failures.json: the failures the library makes today.

    python3 bench/census.py

Runs one round of each pairs workload on every seed of ``SWEEP_SEEDS``
and records each (operation, mode, reason) that failed, and, for the
default and held-out seeds, each (item index, operation, reason). A
benchmark run is incorrect on any failure outside this census (see
``workloads.Census``). Rewrite the census only in a change that means to
alter which inputs fail, and say so in that change.
"""

from __future__ import annotations

import json
import os
import re
import sys

import run

#: workloads that fail at the seed commit; any failure elsewhere is new
PAIR_WORKLOADS = ("pairs-small", "pairs-large")

SWEEP_SEEDS = range(1, 101)


def failures(workloads, name: str, seed: int) -> set[tuple]:
    workload = workloads.make(name, seed, "", {})
    return run.measure(workload, 0.0).failures


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(run.BLAS_THREADS)
    workloads = run.import_program()
    classes: set[tuple] = set()
    items: dict[str, dict[str, list]] = {}
    for name in PAIR_WORKLOADS:
        items[name] = {}
        for seed in sorted({*SWEEP_SEEDS, run.DEFAULT_SEED, run.HELD_OUT_SEED}):
            found = failures(workloads, name, seed)
            classes |= {f[1:] for f in found}
            if seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                items[name][str(seed)] = sorted([i, op, reason] for i, op, _, reason in found)
        print(f"{name}: {len(classes)} failure classes so far", file=sys.stderr)
    census = {
        "sweep_seeds": [SWEEP_SEEDS.start, SWEEP_SEEDS.stop - 1],
        "classes": sorted(list(c) for c in classes),
        "items": items,
    }
    # one failure to a line: innermost lists are written flat
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + re.sub(r"\s*\n\s*", " ", m.group(1)) + "]",
                  json.dumps(census, indent=1))
    with open(workloads.Census.PATH, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
