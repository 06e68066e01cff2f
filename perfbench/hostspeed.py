"""How fast the host runs right now: a fixed reference kernel.

The benchmark shares a few vCPUs of a host with other tenants, and the
host's speed drifts with their load: the same replay call took 0.17 s
and 0.30 s a minute apart, and a pure interpreter loop moved with it.
No statistic over one run's calls can remove a drift that lasts longer
than the run.  So every timed call is bracketed by this kernel, and the
call's host time is rescaled to a host on which the kernel takes
:data:`REFERENCE_S` seconds (see ``README.md``).

The kernel is the benchmark's own code and never touches the program,
so a change to the simulator cannot move it.  It mixes the two kinds of
work the simulator's hot paths do: interpreter-bound dict, list and
integer work, and small NumPy array operations.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds the kernel takes on the nominal host the scaled figures refer
#: to: about its time on a quiet 2-vCPU guest of a shared Xeon host.
REFERENCE_S = 0.030

_ARRAY = np.arange(4096, dtype=np.int64)


def _kernel() -> int:
    table: dict = {}
    keys = []
    total = 0
    for i in range(30000):
        key = (i * 2654435761) & 4095
        table[key] = table.get(key, 0) + i
        if i & 7 == 0:
            keys.append(key)
        total += i % 7
    keys.sort()
    for i in range(800):
        row = (_ARRAY * (i + 1)) % 1009
        total += int(row.sum()) + int(np.argmax(row[:64]))
    return total + keys[0] + len(table)


def reference_s() -> float:
    """Host seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(host_s: float, measured_reference_s: float) -> float:
    """``host_s`` as it would read on the nominal host."""
    return host_s * REFERENCE_S / measured_reference_s
