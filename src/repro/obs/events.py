"""Bounded ring buffer of structured operational events.

Metrics answer "how much"; traces answer "where did this request go";
events answer "what *happened*" — the discrete state changes an operator
greps for first: a surrogate swap published, a gate rejection, a shard
respawn, a failover hop, a 429.  Each event is a small dict with a
monotonic sequence number, an injected-clock timestamp, a ``kind`` tag,
and free-form fields; the buffer is bounded so an event storm can never
grow memory.

Emitters across the stack write to the **process-default log** (one per
OS process — each cluster shard has its own; the router merges them via
the ``events`` RPC op).  Every server and router in a process shares it,
which is sound because every shipped entry point runs one front door per
process (``python -m repro.serve``, each shard, the ``python -m
repro.cluster`` router).  Tests, which run many front doors in one
process, swap the default with :func:`set_default_log` to observe
emissions in isolation.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.obs.trace import Clock, MonotonicClock

#: Event kinds emitted by the stack (docs/OBSERVABILITY.md catalogs them).
KNOWN_KINDS = (
    "failover",
    "gate_rejected",
    "overloaded",
    "shard_down",
    "shard_respawned",
    "slo_page",
    "slo_recovered",
    "slo_warning",
    "swap_published",
)


class EventLog:
    """Thread-safe bounded event buffer (newest ``capacity`` retained)."""

    def __init__(self, capacity: int = 512,
                 clock: Optional[Clock] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        self._events: Deque[Dict[str, object]] = deque(maxlen=self.capacity)

    def emit(self, kind: str, **fields: object) -> Dict[str, object]:
        if kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; the catalog in KNOWN_KINDS "
                f"and the emitters must not drift apart"
            )
        event: Dict[str, object] = {
            "seq": next(self._seq),
            "ts_s": self.clock(),
            "kind": str(kind),
            "fields": fields,
        }
        with self._lock:
            self._events.append(event)
        return event

    def snapshot(self, kind: Optional[str] = None,
                 limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Oldest-first copies of retained events, optionally filtered by
        ``kind`` and truncated to the newest ``limit``."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e["kind"] == kind]
        if limit is not None and limit >= 0:
            events = events[len(events) - min(limit, len(events)):]
        return [dict(e, fields=dict(e["fields"])) for e in events]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


_DEFAULT_LOG = EventLog()


def default_log() -> EventLog:
    return _DEFAULT_LOG


def set_default_log(log: EventLog) -> EventLog:
    """Replace the process-default log (tests); returns the previous one."""
    global _DEFAULT_LOG
    previous = _DEFAULT_LOG
    _DEFAULT_LOG = log
    return previous


def emit(kind: str, **fields: object) -> Dict[str, object]:
    """Emit to the process-default log."""
    return _DEFAULT_LOG.emit(kind, **fields)


def snapshot(kind: Optional[str] = None,
             limit: Optional[int] = None) -> List[Dict[str, object]]:
    """Snapshot the process-default log."""
    return _DEFAULT_LOG.snapshot(kind=kind, limit=limit)


__all__ = [
    "EventLog",
    "KNOWN_KINDS",
    "default_log",
    "emit",
    "set_default_log",
    "snapshot",
]
