"""Outside-in host-time instrumentation of the simulator's layers.

Nothing under ``src/`` knows about this module.  It installs wrappers
around each layer's public entry points — class attributes
(``BatchStream.windows``, the workload window iterators), module
attributes (``repro.sls.vector.VectorContext``,
``repro.fleet.executor.execute_fleet_shard``, ``build_system``,
``combine_sim_results``) and the attributes of the system instances the
benchmark or a fleet worker builds (``system.maintenance``,
``system.build_placement``, ...).

Two levels:

* Stamps, always on.  Count passes over the synthetic trace and record
  which engine each fleet shard executed.  They cost one call per trace
  pass and per shard, never per request, so the untraced timing runs
  carry them.
* Spans, in the traced run only (``Tracer(record_spans=True)``).  A span
  (id, parent, name, start, end) around every layer call, per request
  for the timing kernels.  Spans stay in memory; :func:`write_spans`
  writes them out when the run ends.

Fleet shards run in forked pool workers.  The workers inherit the
patched attributes, record into their own copy of the :class:`Tracer`,
and ship their spans and counts back inside the shard payload, which the
parent harvests in :meth:`Tracer.wrap_fleet`.  ``time.perf_counter`` is
the system-wide monotonic clock on Linux, so worker spans share the
parent's time axis.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

perf = time.perf_counter

#: Span names that are not a layer: the benchmark's own root span around a
#: timed call, and the parent's wait for pool results.
NON_LAYER_SPANS = frozenset({"call", "fleet.execute"})

Span = Tuple[int, int, str, float, float]


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self, record_spans: bool) -> None:
        self.record_spans = record_spans
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        #: ``(pid, spans, counts)`` shipped back by fleet pool workers.
        self.remote: List[Tuple[int, List[Span], Dict[str, int]]] = []
        #: Per-shard stamps shipped back by fleet pool workers.
        self.shard_stamps: List[Dict[str, Any]] = []
        self._next_id = 0
        self._last_system: Any = None

    def reset(self) -> None:
        """Forget everything (a forked worker starts each shard clean)."""
        # In place: the installed wrappers hold references to these.
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.remote.clear()
        self.shard_stamps.clear()

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        token = self._enter()
        start = perf()
        try:
            yield
        finally:
            self._exit(token, name, start)

    def _enter(self) -> Tuple[int, int]:
        stack = self.stack
        parent = stack[-1] if stack else -1
        span_id = self._next_id
        self._next_id = span_id + 1
        stack.append(span_id)
        return span_id, parent

    def _exit(self, token: Tuple[int, int], name: str, start: float) -> None:
        end = perf()
        self.stack.pop()
        self.spans.append((token[0], token[1], name, start, end))

    def wrap(self, fn: Callable, name: str, count: Optional[str] = None) -> Callable:
        """``fn`` inside a span named ``name``; ``count`` tallies the calls."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            token = self._enter()
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(token, name, start)

        return wrapper

    def wrap_iter(
        self, fn: Callable, name: str, count: Optional[str] = None,
        item_count: Optional[str] = None,
    ) -> Callable:
        """Time the call that makes an iterator and each of its ``next``s.

        Time the consumer spends between items is not this layer's, so
        each ``next`` is its own span under whatever span is open when
        the consumer asks for the item.
        """
        counts = self.counts
        tracer = self

        def timed(iterator):
            while True:
                token = tracer._enter()
                start = perf()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._exit(token, name, start)
                if item_count is not None:
                    counts[item_count] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            token = tracer._enter()
            start = perf()
            try:
                iterator = iter(fn(*args, **kwargs))
            finally:
                tracer._exit(token, name, start)
            return timed(iterator)

        return wrapper

    # ------------------------------------------------------------------
    # Fleet: worker side and parent side
    # ------------------------------------------------------------------
    def wrap_shard(self, fn: Callable) -> Callable:
        """Worker-side wrapper of ``execute_fleet_shard``.

        Runs in the pool worker: starts the shard's record clean, runs the
        shard, and adds the stamp (and, traced, the spans and counts) to
        the payload dict the parent receives.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.reset()
            tracer._last_system = None
            if tracer.record_spans:
                with tracer.span("fleet.shard"):
                    payload = fn(*args, **kwargs)
            else:
                payload = fn(*args, **kwargs)
            payload["perfbench"] = {
                "pid": os.getpid(),
                "stamp": system_stamp(tracer._last_system),
                "counts": dict(tracer.counts),
                "spans": list(tracer.spans),
            }
            tracer._last_system = None
            return payload

        return wrapper

    def wrap_fleet(self, fleet: Any) -> None:
        """Parent side: harvest what each worker put in its shard payload."""
        original = fleet._execute
        tracer = self

        @functools.wraps(original)
        def execute(*args, **kwargs):
            with tracer.span("fleet.execute"):
                payloads = original(*args, **kwargs)
            for payload in payloads:
                shipped = payload.pop("perfbench", None)
                if shipped is None:
                    continue
                tracer.shard_stamps.append(shipped["stamp"])
                tracer.remote.append((shipped["pid"], shipped["spans"], shipped["counts"]))
            return payloads

        fleet._execute = execute

    def remember_system(self, build: Callable) -> Callable:
        """Wrap a system factory so the worker knows the system it ran."""
        tracer = self

        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            system = build(*args, **kwargs)
            tracer._last_system = system
            if tracer.record_spans:
                instrument_system(tracer, system)
            return system

        return wrapper

    def total_counts(self) -> Counter:
        """This process's counts plus every harvested worker's."""
        total = Counter(self.counts)
        for _, _, counts in self.remote:
            total.update(counts)
        return total


def system_stamp(system: Any) -> Dict[str, Any]:
    """Which engine a system was asked for and which one it executed."""
    if system is None:
        return {"engine_requested": None, "engine_executed": None, "fallback_reason": None}
    return {
        "engine_requested": getattr(system, "engine", None),
        "engine_executed": "vector" if getattr(system, "_vector", None) is not None else "scalar",
        "fallback_reason": getattr(system, "_vector_fallback_reason", None),
    }


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Patch classes and modules: the stamp hooks, and spans if recording.

    Instances are instrumented where they are built: the benchmark's own
    system in ``workloads.Session`` and each shard's system through the
    patched ``build_system`` in the fleet workers.
    """
    import repro.fleet.executor as executor
    import repro.sls.vector as vector
    from repro.fleet.shard import ShardWorkload
    from repro.traces.stream import BatchStream, SyntheticBatchStream
    from repro.traces.workload import StreamingWorkload

    executor.build_system = tracer.remember_system(executor.build_system)
    executor.execute_fleet_shard = tracer.wrap_shard(executor.execute_fleet_shard)
    iterate = SyntheticBatchStream.__iter__
    if not tracer.record_spans:
        counts = tracer.counts

        @functools.wraps(iterate)
        def counted(self):
            counts["traces.passes"] += 1
            return iterate(self)

        SyntheticBatchStream.__iter__ = counted
        return

    SyntheticBatchStream.__iter__ = tracer.wrap_iter(
        iterate, "traces.decode", count="traces.passes"
    )
    BatchStream.windows = tracer.wrap_iter(
        BatchStream.windows, "traces.decode", item_count="traces.windows"
    )
    for cls in (StreamingWorkload, ShardWorkload):
        cls.iter_windows = tracer.wrap_iter(cls.iter_windows, "traces.flatten")
        cls.iter_address_arrays = tracer.wrap_iter(cls.iter_address_arrays, "traces.flatten")

    make_context = vector.VectorContext

    @functools.wraps(make_context)
    def vector_context(*args, **kwargs):
        with tracer.span("sls.vector_context"):
            context = make_context(*args, **kwargs)
        context.load_window = tracer.wrap(context.load_window, "sls.vector_context")
        return context

    vector.VectorContext = vector_context
    executor.combine_sim_results = tracer.wrap(executor.combine_sim_results, "fleet.aggregate")


#: System instance attribute -> (span name, call counter or None).
SYSTEM_LAYERS = {
    "run": ("sls.replay_loop", None),
    "begin_session": ("sls.begin_session", None),
    "finish_session": ("sls.finish_session", None),
    "build_placement": ("memsys.placement", "memsys.placement_calls"),
    "process_request": ("sls.process", "sls.process_calls"),
    "process_request_vector": ("sls.process", "sls.process_calls"),
    "maintenance": ("pagemgmt.maintenance", "pagemgmt.maintenance_calls"),
    "service_request": ("serve.service", None),
}


def instrument_system(tracer: Tracer, system: Any) -> None:
    """Shadow a system's layer methods with traced instance attributes."""
    for attribute, (name, count) in SYSTEM_LAYERS.items():
        setattr(system, attribute, tracer.wrap(getattr(system, attribute), name, count))
    batch = system.service_batch_vector
    counts = tracer.counts

    @functools.wraps(batch)
    def service_batch_vector(requests, *args, **kwargs):
        counts["sls.batch_calls"] += 1
        counts["serve.vector_requests"] += len(requests)
        return batch(requests, *args, **kwargs)

    system.service_batch_vector = tracer.wrap(service_batch_vector, "serve.service")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per span name: duration minus the time its child spans cover.

    Spans of one process nest strictly (every wrapper is synchronous), so
    the children's summed durations are exactly the covered time.
    """
    covered: Dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        covered[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in spans:
        out[name] += (end - start) - covered[span_id]
    return out


def union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def write_spans(path: str, processes: List[Tuple[int, List[Span]]]) -> None:
    """Write every recorded span, one JSON array per line, tagged with its pid."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for pid, spans in processes:
            for span_id, parent, name, start, end in spans:
                handle.write(json.dumps([pid, span_id, parent, name, start, end]) + "\n")
