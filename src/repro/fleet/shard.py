"""Shard views: one shard's slice of a shared workload.

:class:`ShardWorkload` wraps a base workload (eager
:class:`~repro.traces.workload.SLSWorkload` or out-of-core
:class:`~repro.traces.workload.StreamingWorkload`) and exposes only the
requests a :class:`~repro.fleet.router.Router` assigns to one shard —
duck-type compatible with the engine/serve workload contract, so a
plain :class:`~repro.sls.system.SLSSystem` replays a shard with no
fleet-specific code.

Two invariants make fleet results trustworthy:

* **Global request ids.**  A shard view filters, never renumbers: the
  surviving requests carry the same ids, hosts, rows and addresses the
  base workload would produce, so a 1-shard fleet replays a stream
  bit-identical to the plain single-system run, and the union of all
  shards' requests is exactly the base workload — no dupes, no gaps.
* **O(window) residency.**  A streamed trace is decoded in one pass by
  :func:`split_windows`, which routes every bag once and cuts each
  window into per-shard :class:`ShardWindow` slices: compact decoded
  arrays (rows, bag offsets, and per block its table, first global
  request id and first sample), never request objects.  Only the active
  window is ever resident.

A fleet writes the split to a :class:`ShardSpool` (one ``.npz`` per
(shard, window)) before it replays any shard; each shard view then
reads and flattens only its own slice, window by window, and knows its
request and lookup counts from the split.  A spooled view pickles as the
base's small stream handle, the router and the spool's directory (a few
hundred bytes — workers never receive trace bytes through the pipe).  A
standalone view (no spool) takes its own part from the same split
generator.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.fleet.router import Router, TablePartition
from repro.traces.workload import SLSRequest, flatten_table_bags

__all__ = ["ShardSpool", "ShardWindow", "ShardWorkload", "shard_views", "split_windows"]

#: Columns of :attr:`ShardWindow.blocks`.
BLOCK_FIELDS = ("table", "first_id", "first_sample", "bags", "lookups")


@dataclass
class ShardWindow:
    """One shard's part of one trace window, as compact decoded arrays.

    A *block* is a run of consecutive bags of one (batch, table) that all
    route to this shard — the whole (batch, table) under table affinity.
    Its non-empty bags carry consecutive global request ids, so a block
    flattens through :func:`~repro.traces.workload.flatten_table_bags`
    from its first id and first sample.  ``blocks`` holds one
    :data:`BLOCK_FIELDS` row per block; ``indices`` and ``offsets`` hold
    the blocks' rows and bag offsets back to back, each block's offsets
    relative to its own first row.
    """

    blocks: np.ndarray
    indices: np.ndarray
    offsets: np.ndarray
    num_requests: int

    @property
    def num_lookups(self) -> int:
        return int(self.indices.size)

    def iter_blocks(self) -> Iterator[Tuple[int, int, int, np.ndarray, np.ndarray]]:
        """``(table, first_id, first_sample, indices, offsets)`` per block."""
        row = bag = 0
        for table, first_id, first_sample, bags, lookups in self.blocks.tolist():
            yield (
                table, first_id, first_sample,
                self.indices[row:row + lookups], self.offsets[bag:bag + bags],
            )
            row += lookups
            bag += bags

    def save(self, path: str) -> None:
        np.savez(
            path, blocks=self.blocks, indices=self.indices, offsets=self.offsets,
            requests=np.int64(self.num_requests),
        )

    @classmethod
    def pack(cls, blocks: List[tuple]) -> "ShardWindow":
        """Pack ``(table, first_id, first_sample, requests, indices, offsets)`` blocks."""
        if not blocks:
            empty = np.zeros(0, dtype=np.int64)
            return cls(empty.reshape(0, len(BLOCK_FIELDS)), empty, empty, 0)
        tables, first_ids, first_samples, requests, indices, offsets = zip(*blocks)
        columns = (
            tables, first_ids, first_samples,
            [len(bags) for bags in offsets], [len(rows) for rows in indices],
        )
        return cls(
            np.array(columns, dtype=np.int64).T, np.concatenate(indices),
            np.concatenate(offsets), sum(requests),
        )

    @classmethod
    def load(cls, path: str) -> "ShardWindow":
        with np.load(path) as archive:
            return cls(
                archive["blocks"], archive["indices"], archive["offsets"],
                int(archive["requests"]),
            )


def _bag_runs(bound, table: int, indices: np.ndarray, bounds: np.ndarray) -> List[Tuple[int, int, int]]:
    """``(shard, first bag, end bag)`` runs of one (batch, table)'s bags.

    Every non-empty bag is routed once, in stream order (the order a
    stateful policy's loads must see); an empty bag has no request and
    joins the run it sits in.
    """
    runs: List[List[int]] = []
    starts = bounds[:-1].tolist()
    ends = bounds[1:].tolist()
    rows = indices.tolist()
    for sample, (start, end) in enumerate(zip(starts, ends)):
        if end == start:
            continue
        shard = bound.route_bag(table, sample, end - start, rows[start], rows[end - 1])
        if not runs:
            runs.append([shard, 0, 0])
        elif runs[-1][0] != shard:
            runs[-1][2] = sample
            runs.append([shard, sample, 0])
    if runs:
        runs[-1][2] = len(starts)
    return [tuple(run) for run in runs]


def split_windows(base, router: Router, num_shards: int) -> Iterator[List[ShardWindow]]:
    """One pass over a streamed base: every shard's :class:`ShardWindow`, per window.

    Decodes each window of ``base.stream`` once and routes each non-empty
    bag once, with one router binding for the whole pass (the order a
    stateful policy needs).  Table-affinity routers skip per-bag routing:
    a (batch, table) goes whole to the shard owning the table.  Global
    request ids count every non-empty bag of the base, so each block's
    first id is the one the base flattening gives it.
    """
    bound = router.bind(num_shards, base.address_space.num_tables)
    affine = router.table_affine
    request_id = 0
    for window in base.stream.windows(base.window_batches):
        parts: List[List[tuple]] = [[] for _ in range(num_shards)]
        for batch in window:
            for table in range(batch.num_tables):
                indices = np.asarray(batch.indices_per_table[table], dtype=np.int64)
                offsets = np.asarray(batch.offsets_per_table[table], dtype=np.int64)
                bounds = np.append(offsets, len(indices))
                # ids[s]: non-empty bags before bag s, i.e. the id offset
                # of the first request at or after s.
                ids = np.concatenate([[0], np.cumsum(np.diff(bounds) > 0)]).tolist()
                if affine:
                    runs = [(bound.partition.shard_of_table(table), 0, len(offsets))]
                else:
                    runs = _bag_runs(bound, table, indices, bounds)
                for shard, first, end in runs:
                    row = int(bounds[first])
                    parts[shard].append((
                        table, request_id + ids[first], first, ids[end] - ids[first],
                        indices[row:int(bounds[end])], offsets[first:end] - row,
                    ))
                request_id += ids[-1]
        yield [ShardWindow.pack(part) for part in parts]


def _spool_path(directory: str, shard: int, window: int) -> str:
    return os.path.join(directory, f"shard{shard}-window{window}.npz")


@dataclass(frozen=True)
class ShardSpool:
    """A fleet pass's split trace: one ``.npz`` per (shard, window).

    :meth:`write` makes the one pass over the base stream; shard views
    read their slices back window by window.  ``counts`` holds each
    shard's ``(requests, lookups)`` as recorded at split time.  The owner
    of ``directory`` removes it (the fleet uses a temporary directory).
    """

    directory: str
    num_windows: int
    counts: Tuple[Tuple[int, int], ...]

    def read(self, shard: int) -> Iterator[ShardWindow]:
        for window in range(self.num_windows):
            yield ShardWindow.load(_spool_path(self.directory, shard, window))

    @classmethod
    def write(cls, base, router: Router, num_shards: int, directory: str) -> "ShardSpool":
        counts = [[0, 0] for _ in range(num_shards)]
        num_windows = 0
        for windows in split_windows(base, router, num_shards):
            for shard, window in enumerate(windows):
                window.save(_spool_path(directory, shard, num_windows))
                counts[shard][0] += window.num_requests
                counts[shard][1] += window.num_lookups
            num_windows += 1
        return cls(directory, num_windows, tuple(tuple(count) for count in counts))


class ShardWorkload:
    """One shard's view of a shared base workload (see module docstring).

    ``router`` decides membership.  Over a streamed base the view replays
    the slices of ``spool`` when a fleet has split the trace, or else
    takes its part from its own :func:`split_windows` pass.
    """

    def __init__(
        self, base, router: Router, shard: int, num_shards: int,
        spool: Optional[ShardSpool] = None,
    ) -> None:
        num_shards = int(num_shards)
        shard = int(shard)
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if not 0 <= shard < num_shards:
            raise ValueError(f"shard {shard} out of range [0, {num_shards})")
        if not isinstance(router, Router):
            raise TypeError(f"expected a repro.fleet Router, got {router!r}")
        if spool is not None and len(spool.counts) != num_shards:
            raise ValueError(f"spool holds {len(spool.counts)} shards, not {num_shards}")
        self.base = base
        self.router = router
        self.shard = shard
        self.num_shards = num_shards
        self.spool = spool
        self._scan: Optional[dict] = None
        self._requests: Optional[List[SLSRequest]] = None

    # ------------------------------------------------------------------
    # Base pass-throughs (the engine's workload contract)
    # ------------------------------------------------------------------
    @property
    def streaming(self) -> bool:
        return bool(getattr(self.base, "streaming", False))

    @property
    def model(self):
        return self.base.model

    @property
    def address_space(self):
        return self.base.address_space

    @property
    def distribution(self) -> str:
        return self.base.distribution

    @property
    def batch_size(self) -> int:
        return self.base.batch_size

    @property
    def num_batches(self) -> int:
        return self.base.num_batches

    @property
    def working_set_bytes(self) -> int:
        return self.base.working_set_bytes

    @property
    def table_range(self):
        """This shard's owned table range under the fleet's partition."""
        partition = TablePartition(self.address_space.num_tables, self.num_shards)
        return partition.range_of(self.shard)

    # ------------------------------------------------------------------
    # Request access
    # ------------------------------------------------------------------
    @property
    def requests(self) -> List[SLSRequest]:
        """The shard's materialized request list (eager bases only).

        Mirrors the base contract: a streaming base raises
        ``AttributeError`` here exactly like
        :class:`~repro.traces.workload.StreamingWorkload` does, which is
        what routes the engine and serve loop onto their windowed paths.
        """
        if self.streaming:
            raise AttributeError(
                "streaming shard views hold no materialized request list; "
                "iterate the view (or iter_windows()) instead"
            )
        if self._requests is None:
            bound = self.router.bind(self.num_shards, self.address_space.num_tables)
            self._requests = [
                request for request in self.base.requests
                if bound.route(request) == self.shard
            ]
        return self._requests

    def _shard_windows(self) -> Iterator[ShardWindow]:
        """This shard's decoded slices, from the spool or a split pass."""
        if self.spool is not None:
            return self.spool.read(self.shard)
        return (
            windows[self.shard]
            for windows in split_windows(self.base, self.router, self.num_shards)
        )

    def iter_windows(self) -> Iterator[List[SLSRequest]]:
        """Yield this shard's requests window by window (one window resident).

        A complete pass of a standalone view records the shard's counts,
        so a later ``len()`` does not split the trace again.
        """
        if not self.streaming:
            yield list(self.requests)
            return
        space = self.address_space
        row_bytes = self.model.embedding_row_bytes
        host_of_sample = self.base._host_of_sample()
        num_requests = lookups = 0
        for window in self._shard_windows():
            requests: List[SLSRequest] = []
            for table, first_id, first_sample, indices, offsets in window.iter_blocks():
                flatten_table_bags(
                    requests, first_id, table, indices, offsets,
                    space.row_addresses(table, indices), row_bytes, host_of_sample,
                    first_sample,
                )
            num_requests += len(requests)
            lookups += window.num_lookups
            yield requests
        if self._scan is None:
            self._scan = {"num_requests": num_requests, "total_lookups": lookups}

    def __iter__(self) -> Iterator[SLSRequest]:
        if self.streaming:
            return chain.from_iterable(self.iter_windows())
        return iter(self.requests)

    def iter_address_arrays(self) -> Iterator[np.ndarray]:
        """Resolved address arrays of this shard, in request order.

        The streaming hotness-profiling pass consumes these.  A streamed
        view yields one array per block, resolved straight from the
        slice's rows with no request objects; concatenated they equal
        the eager shard's per-request addresses, so the profile is
        bit-identical (same counts, same first-occurrence order).
        """
        if not self.streaming:
            for request in self.requests:
                yield request.addresses
            return
        space = self.address_space
        for window in self._shard_windows():
            for table, _, _, indices, _ in window.iter_blocks():
                yield space.row_addresses(table, indices)

    # ------------------------------------------------------------------
    # Whole-shard aggregates (from the split, cached)
    # ------------------------------------------------------------------
    def _scanned(self) -> dict:
        if self.spool is not None:
            num_requests, lookups = self.spool.counts[self.shard]
            return {"num_requests": num_requests, "total_lookups": lookups}
        if self._scan is None:
            if not self.streaming:
                kept = self.requests
                self._scan = {
                    "num_requests": len(kept),
                    "total_lookups": int(sum(r.num_candidates for r in kept)),
                }
            else:
                num_requests = lookups = 0
                for window in self._shard_windows():
                    num_requests += window.num_requests
                    lookups += window.num_lookups
                self._scan = {"num_requests": num_requests, "total_lookups": lookups}
        return self._scan

    @property
    def num_requests(self) -> int:
        return self._scanned()["num_requests"]

    def __len__(self) -> int:
        return self.num_requests

    @property
    def total_lookups(self) -> int:
        return self._scanned()["total_lookups"]

    @property
    def total_bytes(self) -> int:
        return self.total_lookups * self.model.embedding_row_bytes

    def unique_pages(self) -> int:
        page_size = self.address_space.page_size
        pages: set = set()
        for addresses in self.iter_address_arrays():
            pages.update((addresses // page_size).tolist())
        return len(pages)

    # ------------------------------------------------------------------
    # Pickling: ship the handle, never the cache
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Drop the derived caches so a shipped view is only the handle.

        The filtered request list (eager bases) is views into the base's
        arrays in memory but would materialize copies across a pickle
        boundary, and the count cache is cheap to rebuild.
        """
        state = self.__dict__.copy()
        state["_scan"] = None
        state["_requests"] = None
        return state


def shard_views(base, router: Router, num_shards: int) -> List[ShardWorkload]:
    """All ``num_shards`` shard views of ``base`` under one router."""
    return [ShardWorkload(base, router, shard, num_shards) for shard in range(num_shards)]
