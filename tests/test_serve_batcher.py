"""MicroBatcher flush policy under a fake clock: size, deadline, priority."""

from concurrent.futures import Future

import pytest

from repro.engine import MappingRequest
from repro.serve import MicroBatcher, PendingRequest, Priority
from repro.workloads import make_conv1d

PROBLEM_A = make_conv1d("batcher_a", w=32, r=3)
PROBLEM_B = make_conv1d("batcher_b", w=48, r=5)


def _pending(problem=PROBLEM_A, priority=Priority.NORMAL, seed=0):
    request = MappingRequest(problem, searcher="random", iterations=10, seed=seed)
    return PendingRequest(request=request, future=Future(), priority=priority)


class TestSizeTrigger:
    def test_flushes_exactly_at_max_batch(self):
        batcher = MicroBatcher(max_batch=3, max_wait_s=10.0)
        assert batcher.add(_pending(seed=0), now=0.0) is None
        assert batcher.add(_pending(seed=1), now=0.1) is None
        batch = batcher.add(_pending(seed=2), now=0.2)
        assert batch is not None
        assert batch.trigger == "size"
        assert len(batch) == 3
        assert batcher.depth == 0

    def test_default_group_mixes_problems(self):
        """The batcher queues across problems: the megabatched kernels
        price a mixed union in one pass, so a cross-problem pair fills
        (and flushes) the one queue."""
        batcher = MicroBatcher(max_batch=2, max_wait_s=10.0)
        assert batcher.add(_pending(PROBLEM_A, seed=0), now=0.0) is None
        batch = batcher.add(_pending(PROBLEM_B, seed=1), now=0.0)
        assert batch is not None
        assert batch.trigger == "size"
        assert {p.request.problem.name for p in batch.items} == {
            PROBLEM_A.name,
            PROBLEM_B.name,
        }
        assert batcher.depth == 0

class TestDeadlineTrigger:
    def test_poll_respects_max_wait(self):
        batcher = MicroBatcher(max_batch=100, max_wait_s=0.5)
        batcher.add(_pending(seed=0), now=10.0)
        assert batcher.poll(now=10.4) == []
        flushed = batcher.poll(now=10.5)
        assert len(flushed) == 1
        assert flushed[0].trigger == "deadline"

    def test_deadline_set_by_oldest_member(self):
        batcher = MicroBatcher(max_batch=100, max_wait_s=0.5)
        batcher.add(_pending(seed=0), now=0.0)
        batcher.add(_pending(seed=1), now=0.4)  # newer
        assert batcher.next_deadline() == pytest.approx(0.5)
        flushed = batcher.poll(now=0.5)
        assert len(flushed) == 1
        assert len(flushed[0]) == 2

    def test_next_deadline_empty(self):
        assert MicroBatcher().next_deadline() is None

    def test_lone_request_not_stuck(self):
        """A request in a queue that never fills still ships at deadline."""
        batcher = MicroBatcher(max_batch=64, max_wait_s=0.01)
        batcher.add(_pending(seed=0), now=0.0)
        assert [len(b) for b in batcher.poll(now=0.011)] == [1]


class TestPriorityLane:
    def test_high_priority_flushes_group_immediately(self):
        batcher = MicroBatcher(max_batch=100, max_wait_s=10.0)
        batcher.add(_pending(seed=0), now=0.0)
        batch = batcher.add(_pending(priority=Priority.HIGH, seed=1), now=0.1)
        assert batch is not None
        assert batch.trigger == "priority"
        # Rides with the compatible request that was already waiting.
        assert len(batch) == 2

    def test_items_ordered_high_first(self):
        batcher = MicroBatcher(max_batch=3, max_wait_s=10.0)
        batcher.add(_pending(seed=0), now=0.0)
        batcher.add(_pending(seed=1, priority=Priority.HIGH), now=0.0)
        # HIGH arrival flushed the queue of two already; refill:
        batcher = MicroBatcher(max_batch=3, max_wait_s=10.0)
        normal = _pending(seed=0)
        high = _pending(seed=1, priority=Priority.HIGH)
        batcher.add(normal, now=0.0)
        batch = batcher.add(high, now=0.0)
        assert [item.priority for item in batch.items] == [
            Priority.HIGH, Priority.NORMAL,
        ]
        assert batch.priority == Priority.HIGH


class TestDrain:
    def test_flush_all_empties_the_queue(self):
        batcher = MicroBatcher(max_batch=100, max_wait_s=10.0)
        assert batcher.flush_all(now=0.0) == []
        batcher.add(_pending(PROBLEM_A, seed=0), now=0.0)
        batcher.add(_pending(PROBLEM_B, seed=1), now=0.0)
        [batch] = batcher.flush_all(now=0.0)
        assert len(batch) == 2 and batch.trigger == "drain"
        assert batcher.depth == 0
        assert batcher.next_deadline() is None

    def test_holds_finds_a_waiting_key_until_flushed(self):
        batcher = MicroBatcher(max_batch=100, max_wait_s=10.0)
        pending = _pending(seed=0)
        pending.key = "leader"
        batcher.add(pending, now=0.0)
        assert batcher.holds("leader") and not batcher.holds("other")
        batch = batcher.flush("priority", now=0.1)
        assert batch.items == [pending] and batch.trigger == "priority"
        assert not batcher.holds("leader")


class TestValidation:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_wait_s=-1.0)
