"""Event-driven open-loop serving of an SLS workload.

The serving loop stands between the arrival processes and the simulated
systems: requests arrive open-loop (the arrival process does not wait for
completions), wait in per-host admission queues, are grouped by the dynamic
batcher, and are then serviced on the host's thread lanes by any registered
:class:`~repro.sls.engine.SLSSystem` through the engine's per-request
``service_request`` hook.  Every request's enqueue → dispatch → complete
timestamps are recorded and folded into a :class:`ServeResult`.

The whole pipeline is deterministic: arrivals are seeded, batching is a
pure function of the arrival schedule, and batches are serviced in global
``(dispatch, host, sequence)`` order so the shared device models see one
well-defined access order regardless of Python iteration details.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.serve.arrivals import arrival_process
from repro.serve.batcher import Batch, BatchPolicy, DynamicBatcher
from repro.serve.metrics import RequestRecord, ServeResult, summarize
from repro.serve.queue import AdmissionQueue
from repro.sls.engine import SLSSystem
from repro.traces.workload import SLSRequest, SLSWorkload


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serving session (picklable, usable as a sweep unit)."""

    qps: float
    arrival: str = "poisson"
    max_batch_size: int = 8
    max_wait_ns: float = 100_000.0
    seed: int = 2024
    sla_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.qps <= 0:
            raise ValueError("qps must be positive")
        if self.sla_ns is not None and self.sla_ns <= 0:
            raise ValueError("sla_ns must be positive")

    @property
    def policy(self) -> BatchPolicy:
        return BatchPolicy(max_batch_size=self.max_batch_size, max_wait_ns=self.max_wait_ns)


def _blocks(requests: List[SLSRequest], max_lookups: int) -> Iterator[List[SLSRequest]]:
    """Consecutive slices of ``requests`` of at most ``max_lookups`` lookups.

    A request with more lookups than that forms a slice of its own.
    """
    start = lookups = 0
    for index, request in enumerate(requests):
        if lookups and lookups + request.num_candidates > max_lookups:
            yield requests[start:index]
            start, lookups = index, 0
        lookups += request.num_candidates
    yield requests[start:]


def serve(system: SLSSystem, workload: SLSWorkload, config: ServeConfig) -> ServeResult:
    """Serve ``workload`` on ``system`` under ``config`` and return metrics.

    The workload's requests arrive in order at the times stamped by the
    configured arrival process; each request is admitted to its host's
    queue, batched, and serviced on that host's earliest-free thread lane
    (requests within a batch run back-to-back on one lane, matching the
    closed-loop engine's one-bag-per-thread model).

    One loop serves eager and streaming workloads alike, window by window
    (an eager workload is one window), so only the active window is
    resident.  Arrivals come from the lazy generator
    (:meth:`~repro.serve.arrivals.ArrivalProcess.iter_arrival_times_ns`).
    Emitted batches wait in a min-heap keyed ``(dispatch, host, index)``
    and dispatch once sim-time provably passes them.  The watermark is
    ``min(T, earliest open-batch deadline across hosts)`` for the current
    arrival time ``T``: a future batch either fills on an arrival
    (dispatch ≥ T), times out (dispatch = its host's deadline, and per-host
    deadlines only move forward as entries drain), or flushes at close
    (again at its deadline).  Nothing can enter the heap below the
    watermark, so popping strictly below it dispatches in the global
    ``(dispatch, host, index)`` order of the whole timeline with a
    lookahead of about ``max_wait_ns`` worth of batches.

    With an active vector context, each batch is timed by one
    :meth:`~repro.sls.engine.SLSSystem.service_batch_vector` call, and the
    loop resolves what it is about to dispatch: before each block of
    arrivals (at most ``VectorContext.NODE_WINDOW`` lookups) it loads the
    block together with every request still queued or pending into the
    context, so resolution stays O(block + lookahead).  Otherwise each
    batch chains :meth:`~repro.sls.engine.SLSSystem.service_request`.
    Both engines produce identical records, metrics and backend state.
    """
    streaming = getattr(workload, "streaming", False)
    windows = workload.iter_windows() if streaming else (workload.requests,)
    arrivals = arrival_process(config.arrival).iter_arrival_times_ns(
        None, config.qps, config.seed
    )

    num_hosts = max(1, system.system.num_hosts)
    threads_per_host = max(1, system.system.host_threads)

    system.begin_session(workload)
    vector = system._vector
    obs = system.obs
    record_obs = obs.enabled

    queues = {host: AdmissionQueue(host) for host in range(num_hosts)}
    batchers = {
        host: DynamicBatcher(config.policy, queues[host]) for host in range(num_hosts)
    }
    lanes: Dict[int, List[float]] = {
        host: [0.0] * threads_per_host for host in range(num_hosts)
    }
    pending: List = []  # heap of (dispatch_ns, host_id, index, batch)
    records: List[RequestRecord] = []

    if vector is not None:
        service = system.service_batch_vector
    else:
        service_request = system.service_request

        def service(requests: List, cursor: float, host_id: int) -> List[float]:
            completions = []
            for request in requests:
                cursor = service_request(request, cursor, host_id)
                completions.append(cursor)
            return completions

    def dispatch(batch: Batch) -> None:
        lane_times = lanes[batch.host_id]
        lane = min(range(threads_per_host), key=lambda i: (lane_times[i], i))
        dispatched = max(batch.dispatch_ns, lane_times[lane])
        completions = service(
            [entry.request for entry in batch.entries], dispatched, batch.host_id
        )
        started = dispatched
        for entry, complete_ns in zip(batch.entries, completions):
            records.append(
                RequestRecord(
                    request_id=entry.request.request_id,
                    host_id=batch.host_id,
                    lane=lane,
                    arrival_ns=entry.arrival_ns,
                    dispatch_ns=batch.dispatch_ns,
                    start_ns=started,
                    complete_ns=complete_ns,
                    lookups=entry.request.num_candidates,
                )
            )
            started = complete_ns
        lane_times[lane] = started
        if record_obs:
            obs.span(
                "batch", dispatched, started,
                track=f"host{batch.host_id}.lane{lane}", cat="serve",
                args={"size": len(batch.entries), "index": batch.index},
            )
            obs.count("serve.batches")
            for record in records[len(records) - len(batch.entries):]:
                if record.start_ns > record.arrival_ns:
                    obs.span(
                        "wait", record.arrival_ns, record.start_ns,
                        track=f"host{batch.host_id}.queue", cat="serve",
                        args={"id": record.request_id},
                    )

    with obs.phase("serve.loop"):
        for window in windows:
            blocks = (window,) if vector is None else _blocks(window, vector.NODE_WINDOW)
            for block in blocks:
                if vector is not None:
                    # Resolve everything dispatchable before the next block:
                    # its arrivals and every request still queued or pending.
                    with obs.phase("serve.resolve"):
                        vector.load_window(
                            [entry.request for queue in queues.values() for entry in queue.entries]
                            + [entry.request for *_, batch in pending for entry in batch.entries]
                            + block
                        )
                for request in block:
                    arrival_ns = int(next(arrivals))
                    host = request.host_id % num_hosts
                    for batch in batchers[host].offer(request, arrival_ns):
                        heapq.heappush(
                            pending, (batch.dispatch_ns, batch.host_id, batch.index, batch)
                        )
                    # Everything dispatching strictly below the watermark is
                    # final: another host may still hold an open batch whose
                    # wait timer already expired (it flushes at that deadline
                    # on its *next* arrival or at close), so the safe horizon
                    # is the earliest open deadline anywhere (see docstring).
                    watermark = arrival_ns
                    for batcher in batchers.values():
                        deadline = batcher.queue.deadline_ns(config.max_wait_ns)
                        if deadline is not None and deadline < watermark:
                            watermark = deadline
                    while pending and pending[0][0] < watermark:
                        dispatch(heapq.heappop(pending)[3])
        for host in range(num_hosts):
            for batch in batchers[host].close():
                heapq.heappush(pending, (batch.dispatch_ns, batch.host_id, batch.index, batch))
        while pending:
            dispatch(heapq.heappop(pending)[3])

    with obs.phase("serve.summarize"):
        records.sort(key=lambda record: record.request_id)
        total_ns = max((record.complete_ns for record in records), default=0.0)
        if record_obs:
            for host, queue in queues.items():
                if not queue.admitted:
                    continue
                for time_ns, depth in queue.timeline:
                    obs.counter(f"queue.host{host}", time_ns, depth)
    sim = system.finish_session(total_ns)

    # Mean queue depth averages over hosts that actually admitted work: a
    # host whose queue stayed empty must not drag the mean toward zero, and
    # a session where *no* host admitted anything (empty workload) reports
    # 0.0 instead of dividing by zero.
    active_queues = {h: q for h, q in queues.items() if q.admitted}
    mean_depth = (
        sum(queue.mean_depth() for queue in active_queues.values()) / len(active_queues)
        if active_queues
        else 0.0
    )
    return summarize(
        system.name,
        records,
        qps=config.qps,
        arrival=config.arrival,
        max_batch_size=config.max_batch_size,
        max_wait_ns=config.max_wait_ns,
        seed=config.seed,
        sla_ns=config.sla_ns,
        batches=sum(batcher.dispatched for batcher in batchers.values()),
        queue_depth_timelines={h: q.timeline for h, q in active_queues.items()},
        mean_queue_depth=mean_depth,
        max_queue_depth=max((q.max_depth for q in active_queues.values()), default=0),
        sim=sim,
    )


__all__ = ["ServeConfig", "serve"]
