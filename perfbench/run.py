"""Host-time benchmark of the PIFS-Rec simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload replay-pifs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each run starts fresh worker processes (``worker.py``), so import time
counts in ``setup_s`` and peak memory belongs to one workload:

* ``--trace 0``: ``PROCESSES_PER_RUN`` untraced processes, one after
  another, sharing ``--seconds`` of timed calls; each times calls on one
  trace seed, or cycles over several (``trace_seeds``).  Host times are
  rescaled to a nominal host by a reference kernel timed around them
  (``hostspeed.py``).  ``lookups_per_s`` is the mean over the trace seeds
  of each one's median call, ``peak_rss_mib`` the mean of the processes'
  peaks through their first call and ``setup_s`` the median of their
  set-ups.
* ``--trace 1``: one untraced process, then one traced process; prints a
  per-layer self-time table and reports the per-layer metrics (medians
  over the traced calls) with ``obs.trace_overhead`` = traced over
  untraced median call wall.

Every call's simulated statistics must agree with every other call's, and
with ``digests.json`` when the seed is pinned there; every call must pass
the conservation checks.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` (requests) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

from hostspeed import scale
from spans import NON_LAYER_SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("replay-pifs", "serve-pond", "serve-pond-stream", "fleet-pifs-stream")
#: Fresh processes in an untraced run; their set-ups give the ``setup_s``
#: median.
PROCESSES_PER_RUN = 4
#: Trace seeds each process cycles its timed calls over.  ``--seed s``
#: runs the traces of seeds ``s``, ``s + 1000``, ``s + 2000``, ...  A seed
#: draws each table's pooling factor, which moves a trace's lookup count
#: by about 9%; averaging over several traces keeps that from swamping the
#: timing.  The fleet's speed also follows its trace's shard balance, one
#: trace running up to 50% faster than another, so it averages over more.
SEEDS_PER_PROCESS = {"fleet-pifs-stream": 4}
TRACE_SEED_STEP = 1000
#: A worker that has not finished by then has hung.
WORKER_TIMEOUT_S = 150.0
END_TO_END_UNITS = {"lookups_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "traces.build_s": "s",
    "traces.decode_s": "s",
    "traces.flatten_s": "s",
    "traces.passes": "count",
    "traces.windows": "count",
    "memsys.placement_s": "s",
    "memsys.placement_calls": "count",
    "sls.begin_session_s": "s",
    "sls.vector_context_s": "s",
    "sls.replay_loop_s": "s",
    "sls.process_s": "s",
    "sls.process_calls": "count",
    "sls.batch_calls": "count",
    "sls.finish_session_s": "s",
    "pagemgmt.maintenance_s": "s",
    "pagemgmt.maintenance_calls": "count",
    "serve.loop_s": "s",
    "serve.service_s": "s",
    "serve.batches": "count",
    "serve.vector_share": "ratio",
    "fleet.shard_s_sum": "s",
    "fleet.shard_s_max": "s",
    "fleet.imbalance": "ratio",
    "fleet.idle_share": "ratio",
    "fleet.aggregate_s": "s",
    "obs.trace_overhead": "ratio",
    "obs.unattributed_share": "ratio",
    "pifs.buffer_hits": "count",
    "pifs.buffer_misses": "count",
    "pifs.buffer_hit_ratio": "ratio",
    "pagemgmt.migrations": "count",
    "host.reference_s": "s",
}


def trace_seeds(workload: str, seed: int) -> List[List[int]]:
    """The trace seeds of each process of an untraced run."""
    count = SEEDS_PER_PROCESS.get(workload, 1)
    return [
        [seed + TRACE_SEED_STEP * (process * count + index) for index in range(count)]
        for process in range(PROCESSES_PER_RUN)
    ]


class BenchmarkError(RuntimeError):
    """A worker failed to produce a record."""


def run_worker(workload: str, seeds: List[int], seconds: float, trace: int) -> dict:
    command = [sys.executable, WORKER, "--workload", workload]
    for seed in seeds:
        command += ["--seed", str(seed)]
    command += ["--seconds", repr(seconds), "--trace", str(trace)]
    if trace:
        name = f"spans-{workload}-seed{seeds[0]}.jsonl"
        command += ["--spans-out", os.path.join(SPANS_DIR, name)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S,
            universal_newlines=True, check=False,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{workload}: worker timed out after {error.timeout} s") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def judge(workload: str, workers: List[dict]) -> dict:
    """Correctness over every call of every process of one run.

    Calls on one seed must agree with each other (traced or not) and with
    the pinned digest of that seed, if ``digests.json`` has one.
    """
    with open(DIGESTS, encoding="utf-8") as handle:
        pinned = json.load(handle).get(workload, {})
    expected: Dict[int, str] = {}
    attempted = failed = 0
    problems = []
    for worker in workers:
        for call in worker["calls"]:
            seed = call["seed"]
            want = expected.setdefault(seed, pinned.get(str(seed), call["digest"]))
            errors = list(call["errors"])
            if call["digest"] != want:
                errors.append(
                    f"seed {seed}: simulated statistics digest {call['digest']} != {want}"
                )
            attempted += call["requests"]
            if errors:
                failed += call["requests"]
                problems.extend(errors)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
    }


def describe(workers: List[dict]) -> None:
    """Human-readable lines: what ran, and each process's figures."""
    stamps = {json.dumps(call["stamp"], sort_keys=True) for w in workers for call in w["calls"]}
    for stamp in sorted(stamps):
        print(f"ran: {stamp}")
    for worker in workers:
        walls = [call["wall_s"] for call in worker["calls"]]
        reference = statistics.median(call["reference_s"] for call in worker["calls"])
        print(
            f"process: traced={worker['traced']} setup {worker['setup_s']:.3f} s, "
            f"{len(walls)} calls, median {statistics.median(walls):.4f} s, "
            f"reference kernel {reference:.4f} s, peak {worker['peak_rss_mib']:.1f} MiB"
        )


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    groups = trace_seeds(workload, seed)
    workers = [run_worker(workload, group, seconds / len(groups), 0) for group in groups]
    describe(workers)
    # Host times are rescaled to the nominal host by the reference kernel
    # timed around them (hostspeed.py), so drift in the host's speed
    # between runs cancels.
    per_seed: Dict[int, List[float]] = {}
    for worker in workers:
        for call in worker["calls"]:
            per_seed.setdefault(call["seed"], []).append(
                call["lookups"] / scale(call["wall_s"], call["reference_s"])
            )
    values = {
        "lookups_per_s": statistics.mean(statistics.median(v) for v in per_seed.values()),
        "setup_s": statistics.median(
            scale(worker["setup_s"], worker["setup_reference_s"]) for worker in workers
        ),
        "peak_rss_mib": statistics.mean(worker["peak_rss_mib"] for worker in workers),
    }
    return dict(judge(workload, workers), metrics={
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()
    })


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    plain = run_worker(workload, [seed], seconds / 3.0, 0)
    traced = run_worker(workload, [seed], 2.0 * seconds / 3.0, 1)
    describe([plain, traced])
    verdict = judge(workload, [plain, traced])
    layers = [call["layers"] for call in traced["calls"]]
    values: Dict[str, float] = {}
    for name, unit in PER_LAYER_UNITS.items():
        samples = [layer[name] for layer in layers if name in layer]
        if samples:
            middle = statistics.median_low if unit == "count" else statistics.median
            values[name] = middle(samples)
    values["traces.build_s"] = traced["traces_build_s"] + values.pop("traces.build_s", 0.0)
    values["obs.trace_overhead"] = traced["median_wall_s"] / plain["median_wall_s"]
    values["host.reference_s"] = statistics.median(
        call["reference_s"] for worker in (plain, traced) for call in worker["calls"]
    )
    self_times: Dict[str, List[float]] = {}
    for layer in layers:
        for name, value in layer["_self_times"].items():
            self_times.setdefault(name, []).append(value)
    wall = traced["median_wall_s"]
    print(f"per-layer self time, median of {len(layers)} traced calls (wall {wall:.4f} s):")
    for name, samples in sorted(self_times.items(), key=lambda item: -statistics.median(item[1])):
        if name in NON_LAYER_SPANS:
            continue
        value = statistics.median(samples)
        print(f"  {name:<24} {value:10.4f} s  {100.0 * value / wall:6.1f}% of wall")
    return dict(verdict, metrics={
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    outcomes = {}
    try:
        for name in names:
            print(f"== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
            outcomes[name] = measure(name, args.seed, args.seconds)
            for problem in outcomes[name]["problems"]:
                print(f"check failed: {problem}")
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if args.workload != "all":
        outcome = outcomes[args.workload]
        metrics = outcome["metrics"]
    else:
        print(f"{'workload':<20}" + "".join(f"{m:>24}" for m in outcomes[names[0]]["metrics"]))
        for name, outcome in outcomes.items():
            print(f"{name:<20}" + "".join(
                f"{entry['value']:>17.6g} {entry['unit']:<6}"
                for entry in outcome["metrics"].values()
            ))
        metrics = {
            f"{name}.{metric}": entry
            for name, outcome in outcomes.items()
            for metric, entry in outcome["metrics"].items()
        }
    print(json.dumps({
        "correct": all(outcome["correct"] for outcome in outcomes.values()),
        "attempted": sum(outcome["attempted"] for outcome in outcomes.values()),
        "failed": sum(outcome["failed"] for outcome in outcomes.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
