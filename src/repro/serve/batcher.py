"""Dynamic micro-batcher: coalesce requests, flush on size or deadline.

The batcher is a *pure* data structure — no threads, no wall clock of its
own.  The server's dispatcher drives it with explicit timestamps, which is
also what makes the flush policy unit-testable with a fake clock:

* :meth:`MicroBatcher.add` queues a pending request (one queue: the
  cross-problem megabatched cost kernels price any mix of problems in a
  single pass, so every flushed batch becomes one mixed evaluation
  cohort, see :mod:`repro.serve.cohort`) and returns a flushed
  :class:`Batch` immediately when the queue hits ``max_batch`` (size
  trigger) or the request is high-priority (priority lane: latency beats
  batching).
* :meth:`MicroBatcher.poll` flushes the queue once its oldest member has
  waited ``max_wait_s`` (deadline trigger), so a lone request is never
  stuck behind a batch that isn't filling.
* :meth:`MicroBatcher.next_deadline` tells the dispatcher how long it may
  sleep.

Within a flushed batch, items are ordered by ``(priority, arrival)`` so
high-priority requests are also served first inside their cohort.
"""

from __future__ import annotations

import enum
import itertools
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Hashable, List, Optional

from repro.engine.engine import MappingRequest


class Priority(enum.IntEnum):
    """Request lanes; lower values are served (and flushed) sooner."""

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
    """A flushed set of pending requests, ready for a worker."""

    items: List[PendingRequest]
    trigger: str  # "size" | "deadline" | "priority" | "drain"
    flushed_at: float

    def __len__(self) -> int:
        return len(self.items)

    @property
    def priority(self) -> Priority:
        return min((item.priority for item in self.items), default=Priority.NORMAL)

    def order_key(self):
        return (int(self.priority), min(item.seq for item in self.items))


class MicroBatcher:
    """Size-or-deadline request coalescing over one queue."""

    def __init__(self, max_batch: int = 32, max_wait_s: float = 0.005) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self._items: List[PendingRequest] = []

    @property
    def depth(self) -> int:
        """Pending requests currently waiting in the batcher."""
        return len(self._items)

    def add(self, pending: PendingRequest, now: float) -> Optional[Batch]:
        """Queue ``pending``; return a batch when the queue must flush now.

        Size trigger: the queue reached ``max_batch``.  Priority lane: a
        high-priority arrival flushes the queue immediately — it still
        rides with whatever requests were already waiting, but never waits
        out ``max_wait_s`` itself.
        """
        pending.enqueued_at = now
        self._items.append(pending)
        if len(self._items) >= self.max_batch:
            return self.flush("size", now)
        if pending.priority == Priority.HIGH:
            return self.flush("priority", now)
        return None

    def poll(self, now: float) -> List[Batch]:
        """Flush the queue if its oldest member hit the deadline."""
        deadline = self.next_deadline()
        if deadline is None or now < deadline:
            return []
        return [self.flush("deadline", now)]

    def next_deadline(self) -> Optional[float]:
        """Instant the queue becomes due, or ``None`` when empty."""
        if not self._items:
            return None
        return self._items[0].enqueued_at + self.max_wait_s

    def flush_all(self, now: float) -> List[Batch]:
        """Flush everything regardless of size/age (drain path)."""
        return [self.flush("drain", now)] if self._items else []

    def holds(self, key: Hashable) -> bool:
        """True when a queued request has collapse identity ``key`` (lets
        the server flush only when the in-flight leader it cares about is
        actually still waiting here)."""
        return any(item.key == key for item in self._items)

    def flush(self, trigger: str, now: float) -> Batch:
        """Hand over every queued request as one batch."""
        items, self._items = self._items, []
        items.sort(key=PendingRequest.order_key)
        return Batch(items=items, trigger=trigger, flushed_at=now)


__all__ = [
    "Batch",
    "MicroBatcher",
    "PendingRequest",
    "Priority",
]
