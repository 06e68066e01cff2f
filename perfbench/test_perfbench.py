"""Recording on ≡ off, at the benchmark level.

For every workload, one untraced and one traced worker process each make
one timed call on the default seed.  The traced call must produce the
same simulated statistics (and the pinned digest), pass the same output
checks, and stamp the same engines and trace passes.  The workers run
as subprocesses because tracing patches classes and modules for the
life of the process.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 2024
with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
    PINNED = {workload: seeds[str(SEED)] for workload, seeds in json.load(handle).items()}


def one_call(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True, timeout=150, check=True,
    )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(record["calls"]) == 1
    return record["calls"][0]


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traced_call_equals_untraced_call(workload):
    plain = one_call(workload, 0)
    traced = one_call(workload, 1)

    assert plain["errors"] == []
    assert traced["errors"] == []
    assert plain["digest"] == PINNED[workload]
    assert traced["digest"] == plain["digest"]
    assert traced["stamp"] == plain["stamp"]
    assert traced["layers"]["traces.passes"] == plain["stamp"]["trace_passes"]
