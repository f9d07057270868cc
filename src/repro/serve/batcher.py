"""Dynamic micro-batcher: coalesce requests, say when a batch is due.

The batcher is a *pure* policy — no threads, no wall clock of its own.
The server's serve loop drives it with explicit timestamps, which is
also what makes the policy unit-testable with a fake clock:

* :meth:`MicroBatcher.add` queues a pending request.  There is one queue:
  the cross-problem megabatched cost kernels price any mix of problems in
  a single pass, so every batch becomes one mixed evaluation cohort (see
  :mod:`repro.serve.cohort`).
* :meth:`MicroBatcher.due` names the trigger that makes the queue due
  now, or ``None``: ``"priority"`` while a high-priority request waits
  (latency beats batching), ``"size"`` once ``max_batch`` requests wait,
  ``"deadline"`` once the oldest request has waited
  ``max_wait_s`` on a server idle for ``max_wait_s`` (so a lone request
  is never stuck behind a batch that isn't filling, and the requests a
  batch just answered get one window to return and join the queue).
* :meth:`MicroBatcher.next_deadline` tells the loop how long it may
  sleep.
* :meth:`MicroBatcher.take` hands over up to ``max_batch`` requests in
  ``(priority, arrival)`` order, so high-priority requests go first both
  across batches and inside their cohort.
* :meth:`MicroBatcher.promote` moves a waiting request to the
  high-priority lane (a HIGH duplicate collapsing onto it).
"""

from __future__ import annotations

import enum
import itertools
from concurrent.futures import Future
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Hashable, List, Optional

from repro.engine.engine import MappingRequest


class Priority(enum.IntEnum):
    """Request lanes; lower values are served sooner."""

    HIGH = 0
    NORMAL = 1


_SEQUENCE = itertools.count()


@dataclass(order=False)
class PendingRequest:
    """One enqueued request: the work item the batcher and server share."""

    request: MappingRequest
    future: "Future"
    priority: Priority = Priority.NORMAL
    enqueued_at: float = 0.0
    #: Collapse identity (``codec.request_key``); ``None`` when not collapsible.
    key: Optional[Hashable] = None
    #: The request's :class:`repro.obs.trace.TraceHandle` (``None`` when
    #: tracing is off).  Typed loosely so the batcher stays a pure data
    #: structure with no observability dependency.
    trace: Optional[object] = None
    seq: int = field(default_factory=lambda: next(_SEQUENCE))

    def order_key(self):
        return (int(self.priority), self.seq)


@dataclass
class Batch:
    """Requests taken from the batcher together, ready to run."""

    items: List[PendingRequest]
    trigger: str  # "size" | "deadline" | "priority" | "drain"
    taken_at: float

    def __len__(self) -> int:
        return len(self.items)


class MicroBatcher:
    """Size, priority or deadline request coalescing over one queue."""

    def __init__(self, max_batch: int = 32, max_wait_s: float = 0.005) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        #: Waiting requests in arrival order.
        self._items: List[PendingRequest] = []

    @property
    def depth(self) -> int:
        """Pending requests currently waiting in the batcher."""
        return len(self._items)

    def add(self, pending: PendingRequest, now: float) -> None:
        """Queue ``pending``, stamped with its arrival time ``now``."""
        pending.enqueued_at = now
        self._items.append(pending)

    def due(self, now: float, idle_since: float) -> Optional[str]:
        """The trigger that makes the queue due at ``now``, or ``None``;
        the first that holds of priority, size and deadline.

        ``idle_since`` is when the server last finished a batch
        (``-inf`` before the first).
        """
        if any(item.priority == Priority.HIGH for item in self._items):
            return "priority"
        if len(self._items) >= self.max_batch:
            return "size"
        deadline = self.next_deadline(idle_since)
        if deadline is not None and now >= deadline:
            return "deadline"
        return None

    def next_deadline(self, idle_since: float) -> Optional[float]:
        """Instant the deadline trigger fires, or ``None`` when empty."""
        if not self._items:
            return None
        return max(self._items[0].enqueued_at, idle_since) + self.max_wait_s

    def take(self, trigger: str, now: float) -> Batch:
        """Hand over up to ``max_batch`` requests, HIGH first, then oldest."""
        ranked = sorted(self._items, key=PendingRequest.order_key)
        items = ranked[: self.max_batch]
        self._items = sorted(ranked[self.max_batch:], key=attrgetter("seq"))
        return Batch(items=items, trigger=trigger, taken_at=now)

    def promote(self, key: Hashable) -> None:
        """Move the waiting request with collapse identity ``key`` (if any)
        to the high-priority lane."""
        for item in self._items:
            if item.key == key:
                item.priority = Priority.HIGH


__all__ = [
    "Batch",
    "MicroBatcher",
    "PendingRequest",
    "Priority",
]
