"""The closed-loop load generator: one thread, K requests in flight.

The calling thread submits requests from a stream until K are in flight,
then blocks until one completes and submits the next.  Completion is
stamped in the future's done-callback, on the thread that resolved it, so
a latency sample never includes the generator's own wake-up delay.
Response-cache hits resolve inside ``submit``; their callback runs on the
generator thread before ``submit`` returns.

The timed phase starts with nothing in flight and ends by draining: after
``seconds`` the generator stops submitting and waits for what is in
flight.  Throughput is completions over the time from the first submit to
the last completion, so a run always counts whole cohorts and never a
fraction of one cut by the clock.

Woken by a completion, the generator gathers the rest of its wave (until
``LINGER_S`` passes without one) before refilling.  A serving cohort
resolves its futures one by one; refilling while they resolve spreads the
refill past the batcher's 5 ms deadline, which flushes it as two cohorts
that then run at once on both workers — a mode that sustains itself and
halves throughput (12 vs 26 rps for all-distinct K=32 traffic in one
run of ten).  Gathered, a wave of 32 refills in about 2 ms and stays one
cohort.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.engine import MappingRequest, MappingResponse

#: Quiet time that ends a wave of completions.
LINGER_S = 0.002
#: How long the drain waits for any one completion before it gives up and
#: counts what is still in flight as failed.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """One request of the timed phase."""

    index: int
    request: MappingRequest
    submitted: float
    done: Optional[float] = None
    future: Optional[Future] = None
    response: Optional[MappingResponse] = None
    error: Optional[BaseException] = None

    @property
    def latency(self) -> float:
        return self.done - self.submitted


@dataclass
class Phase:
    """What one timed phase sent and got back."""

    started: float
    ended: float
    outcomes: List[Outcome] = field(default_factory=list)

    @property
    def served(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.response is not None]

    @property
    def failed(self) -> int:
        return len(self.outcomes) - len(self.served)


def run_closed_loop(
    submit: Callable[[MappingRequest], "Future[MappingResponse]"],
    stream,
    concurrency: int,
    seconds: float,
    min_requests: int = 0,
    start_index: int = 0,
) -> Phase:
    """Drive ``submit`` with ``concurrency`` requests in flight.

    Submits at least ``min_requests`` (the quality panel must complete
    even on a slow machine), stops submitting after ``seconds``, then
    drains.  Rejections at submit and failed futures count as failures;
    so does anything still in flight after ``DRAIN_TIMEOUT_S``.
    """
    completions: "queue.SimpleQueue[Outcome]" = queue.SimpleQueue()
    outcomes: List[Outcome] = []

    def on_done(outcome: Outcome) -> None:
        outcome.done = time.perf_counter()
        completions.put(outcome)

    started = time.perf_counter()
    deadline = started + seconds
    in_flight = 0
    index = start_index
    while True:
        while True:
            try:
                completions.get_nowait()
            except queue.Empty:
                break
            in_flight -= 1
        if in_flight < concurrency and (
            time.perf_counter() < deadline or index - start_index < min_requests
        ):
            request = stream[index]
            outcome = Outcome(
                index=index, request=request, submitted=time.perf_counter()
            )
            outcomes.append(outcome)
            index += 1
            try:
                future = submit(request)
            except Exception as error:  # rejected at the door: a failure
                outcome.done = time.perf_counter()
                outcome.error = error
                continue
            in_flight += 1
            future.add_done_callback(lambda _, outcome=outcome: on_done(outcome))
            outcome.future = future
            continue
        if in_flight == 0:
            break
        try:
            completions.get(timeout=DRAIN_TIMEOUT_S)
        except queue.Empty:
            break
        in_flight -= 1
        while in_flight:
            try:
                completions.get(timeout=LINGER_S)
            except queue.Empty:
                break
            in_flight -= 1
    for outcome in outcomes:
        if outcome.future is None:
            continue
        if outcome.done is None:
            outcome.error = TimeoutError("still in flight after drain")
            continue
        try:
            outcome.response = outcome.future.result(timeout=0)
        except Exception as error:
            outcome.error = error
    served_done = [o.done for o in outcomes if o.done is not None]
    ended = max(served_done) if served_done else time.perf_counter()
    return Phase(started=started, ended=ended, outcomes=outcomes)
