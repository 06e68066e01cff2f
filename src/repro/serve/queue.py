"""Per-host admission queue for the online serving loop.

Requests wait here between arrival and batch dispatch.  The queue records a
depth timeline — one ``(time_ns, depth)`` sample per transition — which is
how the serving metrics expose queueing behaviour (queue growth under
overload is the leading indicator of a saturated host).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.traces.workload import SLSRequest


@dataclass(frozen=True)
class QueuedRequest:
    """One admitted request plus its arrival stamp."""

    request: SLSRequest
    arrival_ns: int


class AdmissionQueue:
    """FIFO admission queue of one serving host."""

    def __init__(self, host_id: int) -> None:
        self.host_id = host_id
        self._pending: Deque[QueuedRequest] = deque()
        #: ``(time_ns, depth)`` after every push/pop transition.
        self.timeline: List[Tuple[int, int]] = []
        self.max_depth = 0
        self.admitted = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def depth(self) -> int:
        return len(self._pending)

    @property
    def entries(self) -> Deque[QueuedRequest]:
        """The queued requests, oldest first."""
        return self._pending

    @property
    def oldest_arrival_ns(self) -> Optional[int]:
        return self._pending[0].arrival_ns if self._pending else None

    def deadline_ns(self, max_wait_ns: float) -> Optional[float]:
        """When the batcher's timer fires for the oldest queued request."""
        oldest = self.oldest_arrival_ns
        return None if oldest is None else oldest + max_wait_ns

    def push(self, request: SLSRequest, now_ns: int) -> None:
        self._pending.append(QueuedRequest(request, now_ns))
        self.admitted += 1
        self.max_depth = max(self.max_depth, len(self._pending))
        self._sample(now_ns)

    def pop_batch(self, count: int, now_ns: float) -> List[QueuedRequest]:
        """Dequeue up to ``count`` requests in FIFO order."""
        taken = [self._pending.popleft() for _ in range(min(count, len(self._pending)))]
        if taken:
            self._sample(int(now_ns))
        return taken

    def _sample(self, now_ns: int) -> None:
        depth = len(self._pending)
        if self.timeline and self.timeline[-1][0] == now_ns:
            self.timeline[-1] = (now_ns, depth)
        else:
            self.timeline.append((now_ns, depth))

    def mean_depth(self) -> float:
        """Time-weighted mean queue depth over the recorded timeline."""
        if len(self.timeline) < 2:
            return float(self.timeline[0][1]) if self.timeline else 0.0
        weighted = 0.0
        for (t0, depth), (t1, _) in zip(self.timeline, self.timeline[1:]):
            weighted += depth * (t1 - t0)
        span = self.timeline[-1][0] - self.timeline[0][0]
        return weighted / span if span > 0 else float(self.timeline[-1][1])


__all__ = ["AdmissionQueue", "QueuedRequest"]
