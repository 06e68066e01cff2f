"""Fleet execution: N per-rack systems replaying shard views of one trace.

:class:`Fleet` composes ``fleet_shards`` independent
:class:`~repro.sls.system.SLSSystem` instances — one per rack, each with
its own fabric and its shard of the partitioned table space — behind one
:class:`~repro.fleet.router.Router`.  Shards are embarrassingly
parallel, so execution generalizes the sweep engine's chunking from grid
points to shards: the same persistent worker pool
(:func:`repro.api.sweep.worker_pool`), the same parent-built shared
workload shipped once per task, and the same deterministic reassembly —
results are collected in shard order, so serial and pooled execution
are byte-identical for any worker count.

A streamed base is decoded once, in the parent: before any shard runs,
:class:`~repro.fleet.shard.ShardSpool` splits it window by window into a
temporary directory of per-shard slices, and every shard — in-process or
in a pool worker — replays only its own slice from there.  Workers never
decode the trace; what crosses the pipe is the base's small stream
handle, the router and the spool's directory.  The spool is removed when
the run ends, failed shards included.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from typing import Any, ContextManager, Iterator, List, Optional, Sequence, Tuple

from repro.api.session import (
    RunSpec,
    build_system,
    build_workload,
    cached_workload,
    seed_workload_cache,
    system_label,
    workload_key,
)
from repro.fleet.result import (
    FleetResult,
    FleetServeResult,
    combine_sim_results,
    summarize_fleet_serve,
)
from repro.fleet.router import Router, make_router
from repro.fleet.shard import ShardSpool, ShardWorkload

__all__ = ["Fleet", "run_fleet", "serve_fleet"]


def _outcome(call, *args, **kwargs) -> Tuple[Optional[dict], Optional[BaseException]]:
    """``(payload, None)`` from a shard call, or ``(None, error)`` if it raised."""
    try:
        return call(*args, **kwargs), None
    except Exception as error:
        return None, error


def _shard_base(spec: RunSpec) -> RunSpec:
    """The per-shard spec: the fleet fields cleared, everything else kept.

    Each shard is an ordinary single-system run over its shard view;
    clearing the fleet fields keeps :func:`execute_fleet_shard` from
    recursing and lets shards share the base spec's workload cache key.
    """
    return replace(spec, fleet_shards=0, fleet_router="table-affinity", fleet_seed=0)


def _open_shard(
    base_spec: RunSpec,
    router: Router,
    shard: int,
    num_shards: int,
    shared_workload_key: Optional[str],
    shared_workload: Any,
    record: bool,
    spool: Optional[ShardSpool],
) -> Tuple[Any, ShardWorkload, Any, ContextManager]:
    """The set-up both shard executors share.

    Installs a parent-built shared workload into this process's cache
    first (as :func:`repro.api.session.execute_chunk` does), builds the
    shard's system and its view, and with ``record=True`` attaches a
    ``shard-<i>`` recorder.  Returns ``(system, view, recorder, phase)``;
    ``phase`` is the context the shard's session runs in.
    """
    if shared_workload_key and shared_workload is not None:
        seed_workload_cache(shared_workload_key, shared_workload)
    system = build_system(base_spec)
    workload = ShardWorkload(build_workload(base_spec), router, shard, num_shards, spool)
    if not record:
        return system, workload, None, nullcontext()
    from repro.obs.recorder import TraceRecorder

    recorder = TraceRecorder(label=f"shard-{shard}")
    set_recorder = getattr(system, "set_recorder", None)
    if set_recorder is not None:
        set_recorder(recorder)
    return system, workload, recorder, recorder.phase(f"fleet.shard-{shard}")


def execute_fleet_shard(
    base_spec: RunSpec,
    router: Router,
    shard: int,
    num_shards: int,
    shared_workload_key: Optional[str] = None,
    shared_workload: Any = None,
    record: bool = False,
    keep_records: bool = False,
    spool: Optional[ShardSpool] = None,
) -> dict:
    """Replay one shard (module-level and picklable — the pool's unit).

    With ``record=True`` the payload carries the shard's observability
    snapshot for ``shard-<i>`` attribution in the parent.  ``spool`` is
    the fleet's split of a streamed trace; the shard replays its slice.
    ``keep_records`` (in-process execution only) also returns the shard's
    system for inspection; it never crosses a pickle boundary.
    """
    system, workload, recorder, phase = _open_shard(
        base_spec, router, shard, num_shards,
        shared_workload_key, shared_workload, record, spool,
    )
    with phase:
        sim = system.run(workload)
    return {
        "sim": sim,
        "system": system if keep_records else None,
        "obs": recorder.snapshot() if recorder is not None else None,
        "pid": os.getpid(),
    }


def execute_fleet_serve_shard(
    base_spec: RunSpec,
    router: Router,
    shard: int,
    num_shards: int,
    config: Any,
    shared_workload_key: Optional[str] = None,
    shared_workload: Any = None,
    record: bool = False,
    keep_records: bool = False,
    spool: Optional[ShardSpool] = None,
) -> dict:
    """Serve one shard open-loop; ships summary + raw timing samples back.

    The per-request record list is reduced to (latency, queue_wait,
    service) triples before crossing the process boundary — enough for
    exact fleet-level percentiles without pickling the records.
    ``keep_records`` (in-process execution only) retains them for
    fingerprint-level comparisons; it never crosses a pickle boundary.
    """
    from repro.serve.server import serve as _serve

    system, workload, recorder, phase = _open_shard(
        base_spec, router, shard, num_shards,
        shared_workload_key, shared_workload, record, spool,
    )
    with phase:
        result = _serve(system, workload, config)
    samples = [
        (record_.latency_ns, record_.queue_wait_ns, record_.service_ns)
        for record_ in (result.records or [])
    ]
    if not keep_records:
        result.records = None
    return {
        "serve": result,
        "samples": samples,
        "obs": recorder.snapshot() if recorder is not None else None,
        "pid": os.getpid(),
    }


class Fleet:
    """N sharded systems behind a request router (see module docstring).

    Built from a fleet-shaped :class:`~repro.api.session.RunSpec`
    (``fleet_shards >= 1``); :meth:`run` and :meth:`serve` execute every
    shard — serially in-process with ``workers=0`` (retaining the shard
    systems on :attr:`systems` for inspection), or across the persistent
    worker pool with ``workers > 0`` — and aggregate the fleet result.
    """

    def __init__(self, spec: RunSpec) -> None:
        if spec.fleet_shards < 1:
            raise ValueError(
                "a Fleet needs fleet_shards >= 1; set it via Simulation.fleet(n)"
            )
        self.spec = spec
        self.base_spec = _shard_base(spec)
        self.num_shards = int(spec.fleet_shards)
        self.router = make_router(spec.fleet_router, seed=spec.fleet_seed)
        #: Per-shard systems of the last serial :meth:`run` (``None``
        #: after pooled execution — workers keep their systems).
        self.systems: Optional[List[Any]] = None

    @property
    def router_policy(self) -> str:
        return self.router.policy

    def shard_workloads(self) -> List[ShardWorkload]:
        """All shard views over the (cached) shared base workload."""
        base = build_workload(self.base_spec)
        return [
            ShardWorkload(base, self.router, shard, self.num_shards)
            for shard in range(self.num_shards)
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _shared_workload(self) -> Tuple[Optional[str], Any]:
        """Parent-build the shared base workload once, as the sweep engine does."""
        key = workload_key(self.base_spec)
        shared = cached_workload(key)
        if shared is None:
            shared = build_workload(self.base_spec)
        return key, shared

    def _merge_obs(self, recorder: Any, payloads: Sequence[dict]) -> None:
        for shard, payload in enumerate(payloads):
            snapshot = payload.get("obs")
            if snapshot is not None:
                recorder.merge(snapshot, process=f"shard-{shard}")

    @contextmanager
    def _spooled(self, base: Any) -> Iterator[Optional[ShardSpool]]:
        """Split a streamed base once into a temporary spool, removed on exit."""
        if not getattr(base, "streaming", False):
            yield None
            return
        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as directory:
            yield ShardSpool.write(base, self.router, self.num_shards, directory)

    def _execute(
        self, executor, extra_args: Tuple, workers: int, recorder: Optional[Any]
    ) -> List[dict]:
        """Run ``executor`` once per shard and return the payloads in shard order.

        A streamed base is decoded once, here in the parent, into a spool
        every shard reads its slice from; the spool is removed once every
        shard has finished, failed ones included.  A failing shard raises
        a ``RuntimeError`` naming it, chained to the shard's own error.
        """
        record = recorder is not None
        key, shared = self._shared_workload()
        shards = range(self.num_shards)
        with self._spooled(shared) as spool:
            if workers and workers > 0:
                from repro.api.sweep import worker_pool

                pool = worker_pool().get(min(int(workers), self.num_shards))
                pending = [
                    pool.apply_async(
                        executor,
                        (self.base_spec, self.router, shard, self.num_shards)
                        + extra_args + (key, shared, record),
                        {"spool": spool},
                    )
                    for shard in shards
                ]
                # A list: every shard has finished before the spool goes.
                outcomes = [_outcome(task.get) for task in pending]
            else:
                # In-process serial path; identical inputs per shard, so the
                # results match the pooled path byte for byte.  Records are
                # retained (keep_records) — they never cross a process
                # boundary here and ``to_dict`` excludes them, so serial and
                # pooled result dicts still compare equal.  A generator: the
                # first failing shard stops the run.
                outcomes = (
                    _outcome(
                        executor, self.base_spec, self.router, shard, self.num_shards,
                        *extra_args, None, None, record, True, spool=spool,
                    )
                    for shard in shards
                )
            payloads = []
            for shard, (payload, error) in enumerate(outcomes):
                if error is not None:
                    raise RuntimeError(
                        f"fleet shard {shard} of {self.num_shards} failed: {error!r}"
                    ) from error
                payloads.append(payload)
        if recorder is not None:
            self._merge_obs(recorder, payloads)
        return payloads

    def run(self, workers: int = 0, recorder: Optional[Any] = None) -> FleetResult:
        """Replay every shard closed-loop and aggregate the fleet result."""
        payloads = self._execute(execute_fleet_shard, (), workers, recorder)
        # Only in-process shards hand back their system (for fingerprinting).
        systems = [payload["system"] for payload in payloads]
        self.systems = None if None in systems else systems
        per_shard = [payload["sim"] for payload in payloads]
        return FleetResult(
            system=system_label(self.spec.system),
            router=self.router_policy,
            num_shards=self.num_shards,
            combined=combine_sim_results(per_shard),
            per_shard=per_shard,
        )

    def serve(
        self, config: Any, workers: int = 0, recorder: Optional[Any] = None
    ) -> FleetServeResult:
        """Serve every shard open-loop at the configured QPS, concurrently.

        Every shard sees the full arrival process for its own requests
        (same seed, its router-assigned slice), mirroring a frontend that
        fans one arrival stream out across racks.
        """
        payloads = self._execute(execute_fleet_serve_shard, (config,), workers, recorder)
        return summarize_fleet_serve(
            system=system_label(self.spec.system),
            router=self.router_policy,
            qps=config.qps,
            sla_ns=config.sla_ns,
            per_shard=[payload["serve"] for payload in payloads],
            samples=[payload["samples"] for payload in payloads],
        )


def run_fleet(
    spec: RunSpec, workers: int = 0, recorder: Optional[Any] = None
) -> FleetResult:
    """Run the fleet described by ``spec`` (see :class:`Fleet`)."""
    return Fleet(spec).run(workers=workers, recorder=recorder)


def serve_fleet(
    spec: RunSpec, config: Any, workers: int = 0, recorder: Optional[Any] = None
) -> FleetServeResult:
    """Serve the fleet described by ``spec`` open-loop (see :class:`Fleet`)."""
    return Fleet(spec).serve(config, workers=workers, recorder=recorder)
