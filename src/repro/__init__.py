"""PIFS-Rec reproduction library.

A from-scratch Python reproduction of *PIFS-Rec: Process-In-Fabric-Switch
for Large-Scale Recommendation System Inferences* (MICRO 2024): a functional
simulator of CXL fabric switches with near-data processing for DLRM
embedding (SLS) operations, the baselines the paper compares against, the
page-management software architecture, and the cost/power models behind the
paper's evaluation figures.

Typical entry points — the legacy explicit pipeline:

>>> from repro import WorkloadConfig, RMC1, build_workload, PIFSRecSystem, DEFAULT_SYSTEM
>>> workload = build_workload(WorkloadConfig(model=RMC1, batch_size=4, num_batches=1))
>>> result = PIFSRecSystem(DEFAULT_SYSTEM).run(workload)
>>> result.total_ns > 0
True

and the fluent :mod:`repro.api` session façade, which owns config
derivation, system construction and workload building (``Sweep`` runs whole
parameter grids, optionally in parallel; ``python -m repro`` is the CLI):

>>> from repro import Simulation
>>> run = Simulation("pifs-rec").model("RMC1").quick().batch_size(4).run()
>>> run.total_ns > 0
True
>>> run.system
'pifs-rec'
"""

from repro.config import (
    DEFAULT_SYSTEM,
    DEFAULT_WORKLOAD,
    MODEL_CONFIGS,
    RMC1,
    RMC2,
    RMC3,
    RMC4,
    BufferConfig,
    CXLConfig,
    DRAMConfig,
    DRAMTimings,
    ModelConfig,
    PageManagementConfig,
    PIFSConfig,
    SystemConfig,
    WorkloadConfig,
    scaled_model,
)
from repro.baselines import (
    BeaconSystem,
    GPUParameterServer,
    PondPMSystem,
    PondSystem,
    RecNMPSystem,
    TPPSystem,
)
from repro.dlrm import DLRM, EmbeddingBagCollection, EmbeddingTable, QueryBatch
from repro.pifs import PIFSRuntime, PIFSSwitch
from repro.pifs.system import PIFSRecNoPM, PIFSRecSystem
from repro.sls import LatencyStats, SimResult
from repro.traces import SLSWorkload, build_workload
from repro.serve import ServeConfig, ServeResult

# Imported last: the façade's session layer builds on everything above.
from repro.api import (
    RunResult,
    Simulation,
    Sweep,
    SweepResult,
    UnknownSystemError,
    available_systems,
    create_system,
    register_system,
)
from repro.scenarios import (
    Scenario,
    TrafficSpec,
    UnknownScenarioError,
    available_scenarios,
    register_scenario,
    scenario,
)

__version__ = "1.1.0"

__all__ = [
    "DEFAULT_SYSTEM",
    "DEFAULT_WORKLOAD",
    "MODEL_CONFIGS",
    "RMC1",
    "RMC2",
    "RMC3",
    "RMC4",
    "BufferConfig",
    "CXLConfig",
    "DRAMConfig",
    "DRAMTimings",
    "ModelConfig",
    "PageManagementConfig",
    "PIFSConfig",
    "SystemConfig",
    "WorkloadConfig",
    "scaled_model",
    "BeaconSystem",
    "GPUParameterServer",
    "PondPMSystem",
    "PondSystem",
    "RecNMPSystem",
    "TPPSystem",
    "create_system",
    "RunResult",
    "Simulation",
    "Sweep",
    "SweepResult",
    "UnknownSystemError",
    "available_systems",
    "register_system",
    "DLRM",
    "EmbeddingBagCollection",
    "EmbeddingTable",
    "QueryBatch",
    "PIFSRuntime",
    "PIFSSwitch",
    "PIFSRecSystem",
    "PIFSRecNoPM",
    "LatencyStats",
    "ServeConfig",
    "ServeResult",
    "SimResult",
    "SLSWorkload",
    "build_workload",
    "Scenario",
    "TrafficSpec",
    "UnknownScenarioError",
    "available_scenarios",
    "register_scenario",
    "scenario",
    "__version__",
]
