"""Regenerate ``digests.json``: the pinned simulated statistics per seed.

    python3 perfbench/pin.py

Run it only when a change is meant to alter simulated results (a model
change, never a speed-up), and say so in that change.  One untimed call
per workload and seed, in this process.
"""

from __future__ import annotations

import json
import sys

from worker import import_program

import_program()

from repro.api.sweep import shutdown_worker_pool  # noqa: E402

from run import DIGESTS, trace_seeds  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Session, digest  # noqa: E402


def pinned_seeds(workload: str):
    """Every trace seed a run with ``--seed`` 0-15 or the default seed uses."""
    return sorted(
        trace_seed
        for seed in list(range(16)) + [DEFAULT_SEED]
        for group in trace_seeds(workload, seed)
        for trace_seed in group
    )


def main() -> int:
    pinned = {}
    try:
        for name, workload in WORKLOADS.items():
            pinned[name] = {}
            for seed in pinned_seeds(name):
                session = Session(workload, seed, Tracer(record_spans=False))
                session.setup()
                pinned[name][str(seed)] = digest(session.call())
                print(name, seed, pinned[name][str(seed)], flush=True)
    finally:
        shutdown_worker_pool()
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
