"""The benchmark's four workloads: what each runs, times and checks.

Every workload uses the default evaluation scale with 64-query batches,
the ``meta`` trace distribution and the vector engine.  The workload seed
is the only input the benchmark chooses; it feeds
``EvaluationScale.seed`` (the trace) and ``ServeConfig.seed`` (the
arrivals).  See ``README.md`` for why each workload exists.

A :class:`Session` builds the workload's inputs and system once (the
set-up the benchmark reports as ``setup_s``) and then makes one timed
call per :meth:`Session.call`.  Timed calls drive ``build_workload``,
``build_system``, ``SLSSystem.run``, ``serve`` and ``Fleet.run``
directly, so ``Simulation.run``'s result cache is never consulted.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.api.session import RunSpec, build_system, build_workload, clear_cache
from repro.config import WorkloadConfig
from repro.experiments.common import DEFAULT_SCALE
from repro.fleet.executor import Fleet
from repro.serve.server import ServeConfig, serve
from repro.traces.meta import iter_meta_like_trace
from repro.traces.synthetic import TraceDistribution

from spans import Tracer, instrument_system, system_stamp

#: The seed whose simulated statistics ``digests.json`` pins by default.
DEFAULT_SEED = 2024
BATCH_SIZE = 64
DISTRIBUTION = "meta"
ENGINE = "vector"
SERVE_QPS = 300_000.0
SERVE_MAX_BATCH = 8
FLEET_SHARDS = 8
FLEET_WORKERS = 2
FLEET_ROUTER = "table-affinity"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "replay", "serve" or "fleet"
    system: str
    model: str
    stream: bool
    num_batches: int
    #: Whether the vector engine must be the one that executed.  Streamed
    #: serving falls back to the scalar path today; that is recorded, not
    #: asserted, so a fix shows as a changed stamp.
    requires_vector: bool

    def scale(self, seed: int, num_batches: Optional[int] = None):
        return replace(
            DEFAULT_SCALE,
            batch_size=BATCH_SIZE,
            num_batches=self.num_batches if num_batches is None else num_batches,
            seed=seed,
        )

    def spec(self, seed: int, num_batches: Optional[int] = None) -> RunSpec:
        return RunSpec(
            system=self.system,
            model=self.model,
            scale=self.scale(seed, num_batches),
            distribution=DISTRIBUTION,
            engine=ENGINE,
            stream=self.stream,
            fleet_shards=FLEET_SHARDS if self.kind == "fleet" else 0,
            fleet_router=FLEET_ROUTER,
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("replay-pifs", "replay", "pifs-rec", "RMC2", False, 16, True),
        Workload("serve-pond", "serve", "pond", "RMC1", False, 8, True),
        Workload("serve-pond-stream", "serve", "pond", "RMC1", True, 8, False),
        Workload("fleet-pifs-stream", "fleet", "pifs-rec", "RMC2", True, 16, True),
    )
}


def digest(result: Any) -> str:
    """Hash of every simulated statistic the result's ``to_dict`` carries."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def trace_totals(workload: Workload, seed: int) -> Tuple[int, int]:
    """Requests (non-empty bags) and lookups of the generated trace.

    Counted straight from the seeded batch generator, independently of
    the program's flattening, for the conservation checks.
    """
    scale = workload.scale(seed)
    config = WorkloadConfig(
        model=scale.model(workload.model),
        batch_size=scale.batch_size,
        pooling_factor=scale.pooling_factor,
        num_batches=scale.num_batches,
        distribution=DISTRIBUTION,
        seed=scale.seed,
    )
    requests = lookups = 0
    for batch in iter_meta_like_trace(config, TraceDistribution.from_name(DISTRIBUTION)):
        for table in range(batch.num_tables):
            offsets = [int(offset) for offset in batch.offsets_per_table[table]]
            size = len(batch.indices_per_table[table])
            bounds = offsets + [size]
            requests += sum(1 for lo, hi in zip(bounds, bounds[1:]) if hi > lo)
            lookups += size
    return requests, lookups


class Session:
    """One workload's set-up and its repeatable timed call."""

    def __init__(self, workload: Workload, seed: int, tracer: Tracer) -> None:
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.spec = workload.spec(seed)
        self.config = ServeConfig(qps=SERVE_QPS, max_batch_size=SERVE_MAX_BATCH, seed=seed)
        self.trace = None
        self.system = None
        self.fleet: Optional[Fleet] = None

    # ------------------------------------------------------------------
    def setup(self, warm: bool = True) -> None:
        """Eager trace build, system construction, pool start and warm-up.

        ``warm=False`` skips the fleet's warm-up, for a further session in
        a process whose pool another session has already warmed.
        """
        kind = self.workload.kind
        if kind == "fleet":
            if warm:
                self.warm_up()
            self.fleet = Fleet(self.spec)
            self.tracer.wrap_fleet(self.fleet)
            return
        if not self.workload.stream:
            with self.tracer.span("traces.build"):
                self.trace = build_workload(self.spec)
        self.system = build_system(self.spec)
        if self.tracer.record_spans:
            instrument_system(self.tracer, self.system)

    def warm_up(self) -> None:
        """Start the persistent pool and run a first task in every worker.

        A one-batch fleet run, so the timed calls pay neither the fork nor
        the workers' first imports.
        """
        Fleet(self.workload.spec(self.seed, num_batches=1)).run(workers=FLEET_WORKERS)

    def call(self) -> Any:
        """The timed call: one replay, serving session or fleet run."""
        kind = self.workload.kind
        if self.workload.stream:
            # A streamed workload is a lazy handle that caches its length
            # scan, so each call builds a fresh one, as a new run would.
            clear_cache()
        if kind == "fleet":
            return self.fleet.run(workers=FLEET_WORKERS)
        trace = self.trace
        if trace is None:
            with self.tracer.span("traces.build"):
                trace = build_workload(self.spec)
        if kind == "replay":
            return self.system.run(trace)
        if self.tracer.record_spans:
            with self.tracer.span("serve.loop"):
                return serve(self.system, trace, self.config)
        return serve(self.system, trace, self.config)

    # ------------------------------------------------------------------
    def stamp(self, shard_stamps: List[Dict[str, Any]], passes: int) -> Dict[str, Any]:
        """What ran: engines, eager or streamed, shards, workers, trace passes."""
        if self.workload.kind == "fleet":
            # Each pool worker's execute_fleet_shard wrapper ships a stamp;
            # none arrive if the workers do not run the benchmark's hooks.
            engines = {json.dumps(stamp, sort_keys=True) for stamp in shard_stamps}
            if len(engines) == 1 and len(shard_stamps) == FLEET_SHARDS:
                engine = json.loads(engines.pop())
            else:
                engine = {
                    "engine_requested": ENGINE,
                    "engine_executed": f"unobserved ({len(shard_stamps)} shard stamps)",
                    "fallback_reason": sorted(engines),
                }
        else:
            engine = system_stamp(self.system)
        return dict(
            engine,
            mode="streamed" if self.workload.stream else "eager",
            shards=FLEET_SHARDS if self.workload.kind == "fleet" else 0,
            workers=FLEET_WORKERS if self.workload.kind == "fleet" else 0,
            trace_passes=passes,
        )

    def check(self, result: Any, stamp: Dict[str, Any], totals: Tuple[int, int]) -> List[str]:
        """Conservation invariants and the engine assertion; [] when all hold."""
        requests, lookups = totals
        errors: List[str] = []

        def expect(condition: bool, message: str) -> None:
            if not condition:
                errors.append(message)

        kind = self.workload.kind
        if kind == "replay":
            sim = result
            expect(math.isfinite(sim.total_ns) and sim.total_ns > 0, "replay time not finite")
        elif kind == "serve":
            sim = result.sim
            records = result.records or []
            expect(result.requests == requests, "served requests != trace requests")
            expect(len(records) == requests, "request records != trace requests")
            expect(
                len({record.request_id for record in records}) == len(records),
                "a request was served twice",
            )
            expect(
                all(
                    math.isfinite(record.complete_ns) and record.complete_ns >= record.arrival_ns
                    for record in records
                ),
                "a served request has no finite completion",
            )
        else:
            sim = result.combined
            expect(len(result.per_shard) == FLEET_SHARDS, "shard count differs")
            expect(
                sum(shard.requests for shard in result.per_shard) == sim.requests,
                "per-shard requests do not sum to the total",
            )
            expect(
                sum(shard.lookups for shard in result.per_shard) == sim.lookups,
                "per-shard lookups do not sum to the total",
            )
        expect(sim.requests == requests, f"requests {sim.requests} != trace {requests}")
        expect(sim.lookups == lookups, f"lookups {sim.lookups} != trace {lookups}")
        if self.workload.requires_vector:
            expect(
                stamp["engine_executed"] == ENGINE,
                f"engine executed {stamp['engine_executed']!r}, not {ENGINE!r}",
            )
        return errors


def simulated(result: Any) -> Any:
    """The :class:`SimResult` inside any of the three result types."""
    if hasattr(result, "combined"):
        return result.combined
    return getattr(result, "sim", None) or result
