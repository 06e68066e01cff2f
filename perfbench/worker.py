"""One benchmark process: set up one workload, time calls, check outputs.

Run by ``run.py`` in a fresh interpreter per set-up, so each process's
import time counts in ``setup_s`` and its peak RSS belongs to one
workload.  Given ``--seed`` more than once, it sets up every seed's
session and its timed calls cycle over them.  Every call is bracketed by
the reference kernel of ``hostspeed.py``.  Prints one JSON record as its
last line of standard output.

    python3 perfbench/worker.py --workload serve-pond --seed 2024 --seconds 4 --trace 0
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")


def import_program() -> None:
    """Put the checkout's own ``src/`` first on the path, or fail."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {SOURCE}")
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SOURCE}")


def call_layers(workload, result, local_spans, remote, counts, wall: float) -> dict:
    """Per-layer metrics of one traced call (see README.md for each)."""
    from spans import NON_LAYER_SPANS, self_times, union_length
    from workloads import FLEET_WORKERS, simulated

    selfs: dict = {}
    intervals = []
    call_start, call_end = local_spans[-1][3], local_spans[-1][4]
    for spans in [local_spans] + [spans for _, spans, _ in remote]:
        for name, value in self_times(spans).items():
            selfs[name] = selfs.get(name, 0.0) + value
        intervals.extend(
            (max(start, call_start), min(end, call_end))
            for _, _, name, start, end in spans
            if name not in NON_LAYER_SPANS and end > call_start and start < call_end
        )
    sim = simulated(result)
    metrics = {
        "traces.build_s": selfs.get("traces.build", 0.0),
        "traces.decode_s": selfs.get("traces.decode", 0.0),
        "traces.flatten_s": selfs.get("traces.flatten", 0.0),
        "traces.passes": counts.get("traces.passes", 0),
        "traces.windows": counts.get("traces.windows", 0),
        "memsys.placement_s": selfs.get("memsys.placement", 0.0),
        "memsys.placement_calls": counts.get("memsys.placement_calls", 0),
        "sls.begin_session_s": selfs.get("sls.begin_session", 0.0),
        "sls.vector_context_s": selfs.get("sls.vector_context", 0.0),
        "sls.replay_loop_s": selfs.get("sls.replay_loop", 0.0),
        "sls.process_s": selfs.get("sls.process", 0.0),
        "sls.process_calls": counts.get("sls.process_calls", 0),
        "sls.batch_calls": counts.get("sls.batch_calls", 0),
        "sls.finish_session_s": selfs.get("sls.finish_session", 0.0),
        "pagemgmt.maintenance_s": selfs.get("pagemgmt.maintenance", 0.0),
        "pagemgmt.maintenance_calls": counts.get("pagemgmt.maintenance_calls", 0),
        "serve.loop_s": selfs.get("serve.loop", 0.0),
        "serve.service_s": selfs.get("serve.service", 0.0),
        "serve.batches": getattr(result, "batches", 0),
        "serve.vector_share": (
            counts.get("serve.vector_requests", 0) / result.requests
            if workload.kind == "serve" else 0.0
        ),
        "fleet.shard_s_sum": 0.0,
        "fleet.shard_s_max": 0.0,
        "fleet.imbalance": 0.0,
        "fleet.idle_share": 0.0,
        "fleet.aggregate_s": selfs.get("fleet.aggregate", 0.0),
        "obs.unattributed_share": 1.0 - union_length(intervals) / wall,
        "pifs.buffer_hits": sim.buffer_hits,
        "pifs.buffer_misses": sim.buffer_misses,
        "pifs.buffer_hit_ratio": sim.buffer_hit_ratio,
        "pagemgmt.migrations": sim.migrations,
    }
    shards = [
        end - start
        for _, spans, _ in remote
        for _, _, name, start, end in spans
        if name == "fleet.shard"
    ]
    if shards:
        execute = [end - start for _, _, name, start, end in local_spans if name == "fleet.execute"]
        metrics["fleet.shard_s_sum"] = sum(shards)
        metrics["fleet.shard_s_max"] = max(shards)
        metrics["fleet.imbalance"] = max(shards) / (sum(shards) / len(shards))
        metrics["fleet.idle_share"] = 1.0 - sum(shards) / (FLEET_WORKERS * sum(execute))
    metrics["_self_times"] = selfs
    return metrics


def first_call_peak_mib(session) -> float:
    """Peak resident memory of set-up plus the first call, in MiB.

    Later calls would raise it: pool workers' heaps grow over their first
    few shard tasks.  The fleet's pool is shut down to read its workers'
    peak (the largest worker's, as ``getrusage`` reports reaped children)
    and started again, with its warm-up, before the next timed call.
    """
    from repro.api.sweep import shutdown_worker_pool

    children_kib = 0
    if session.fleet is not None:
        shutdown_worker_pool()
        children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        session.warm_up()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kib) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, required=True, action="append",
        help="a trace seed; given more than once, the timed calls cycle over the seeds",
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None, help="write the traced spans here")
    args = parser.parse_args(argv)

    import_program()
    from repro.api.sweep import shutdown_worker_pool
    from spans import Tracer, install, write_spans
    from workloads import WORKLOADS, Session, digest, simulated, trace_totals

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    tracer = Tracer(record_spans=traced)
    install(tracer)
    sessions = [Session(workload, seed, tracer) for seed in args.seed]
    records = []
    layer_spans = []
    try:
        with tracer.span("setup"):
            for index, session in enumerate(sessions):
                session.setup(warm=index == 0)
        setup_s = time.perf_counter() - STARTED
        # Imported after set-up, so it adds nothing to set-up time.
        from hostspeed import reference_s

        setup_reference_s = statistics.median(reference_s() for _ in range(3))
        build_s = sum(
            end - start for _, _, name, start, end in tracer.spans if name == "traces.build"
        )
        totals = {seed: trace_totals(workload, seed) for seed in args.seed}
        tracer.reset()
        timed_start = time.perf_counter()
        before = reference_s()
        while len(records) < len(sessions) or time.perf_counter() - timed_start < args.seconds:
            session = sessions[len(records) % len(sessions)]
            with tracer.span("call"):
                start = time.perf_counter()
                result = session.call()
                wall = time.perf_counter() - start
            after = reference_s()
            counts = tracer.total_counts()
            stamp = session.stamp(tracer.shard_stamps, counts["traces.passes"])
            record = {
                "seed": session.seed,
                "wall_s": wall,
                # The host's speed around the call: the reference kernel
                # just before and just after it.
                "reference_s": (before + after) / 2.0,
                "requests": result.requests,
                "lookups": simulated(result).lookups,
                "digest": digest(result),
                "errors": session.check(result, stamp, totals[session.seed]),
                "stamp": stamp,
            }
            if traced:
                record["layers"] = call_layers(
                    workload, result, list(tracer.spans), list(tracer.remote), counts, wall
                )
                layer_spans = [(os.getpid(), list(tracer.spans))] + [
                    (pid, spans) for pid, spans, _ in tracer.remote
                ]
            records.append(record)
            before = after
            del result
            if len(records) == 1:
                peak_rss_mib = first_call_peak_mib(session)
            tracer.reset()
    finally:
        shutdown_worker_pool()
    if traced and args.spans_out:
        write_spans(args.spans_out, layer_spans)
    print(json.dumps({
        "workload": workload.name,
        "seeds": args.seed,
        "traced": traced,
        "setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "traces_build_s": build_s,
        "peak_rss_mib": peak_rss_mib,
        "calls": records,
        "median_wall_s": statistics.median(record["wall_s"] for record in records),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
