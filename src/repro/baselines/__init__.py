"""Baseline systems the paper compares against (§VI-B).

* :class:`~repro.baselines.pond.PondSystem` — standard CXL memory pooling,
  host-centric SLS, capacity-ordered placement.
* :class:`~repro.baselines.pond_pm.PondPMSystem` — Pond plus the paper's
  software page management (OS page-block migration).
* :class:`~repro.baselines.beacon.BeaconSystem` — BEACON-S: in-switch
  compute, CXL-only placement, address translation overhead, in-order
  accumulation, no on-switch buffer.
* :class:`~repro.baselines.recnmp.RecNMPSystem` — DIMM-side near-memory
  processing with a rank cache and bank-level parallelism for local rows.
* :class:`~repro.baselines.tpp.TPPSystem` — TPP-style tiered page placement
  on PIFS hardware (used as the page-swapping baseline of Fig 13 d).
* :class:`~repro.baselines.gpu_ps.GPUParameterServer` — the GPU
  parameter-server roofline used by the TCO/throughput analysis (Fig 16/17).
"""

from repro.baselines.beacon import BeaconSystem
from repro.baselines.gpu_ps import GPUParameterServer
from repro.baselines.pond import PondSystem
from repro.baselines.pond_pm import PondPMSystem
from repro.baselines.recnmp import RecNMPSystem
from repro.baselines.tpp import TPPSystem

__all__ = [
    "BeaconSystem",
    "GPUParameterServer",
    "PondSystem",
    "PondPMSystem",
    "RecNMPSystem",
    "TPPSystem",
]
