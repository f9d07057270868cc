"""MicroBatcher policy under a fake clock: size, deadline, priority, take."""

from concurrent.futures import Future

import pytest

from repro.engine import MappingRequest
from repro.serve import MicroBatcher, PendingRequest, Priority
from repro.workloads import make_conv1d

PROBLEM_A = make_conv1d("batcher_a", w=32, r=3)
PROBLEM_B = make_conv1d("batcher_b", w=48, r=5)

NEVER_BUSY = float("-inf")


def _pending(problem=PROBLEM_A, priority=Priority.NORMAL, seed=0):
    request = MappingRequest(problem, searcher="random", iterations=10, seed=seed)
    return PendingRequest(request=request, future=Future(), priority=priority)


class TestSizeTrigger:
    def test_due_exactly_at_max_batch(self):
        batcher = MicroBatcher(max_batch=3, max_wait_s=10.0)
        batcher.add(_pending(seed=0), now=0.0)
        batcher.add(_pending(seed=1), now=0.1)
        assert batcher.due(0.2, NEVER_BUSY) is None
        batcher.add(_pending(seed=2), now=0.2)
        assert batcher.due(0.2, NEVER_BUSY) == "size"
        batch = batcher.take("size", now=0.2)
        assert batch.trigger == "size" and batch.taken_at == 0.2
        assert len(batch) == 3
        assert batcher.depth == 0

    def test_default_group_mixes_problems(self):
        """The batcher queues across problems: the megabatched kernels
        price a mixed union in one pass, so a cross-problem pair fills
        the one queue."""
        batcher = MicroBatcher(max_batch=2, max_wait_s=10.0)
        batcher.add(_pending(PROBLEM_A, seed=0), now=0.0)
        batcher.add(_pending(PROBLEM_B, seed=1), now=0.0)
        assert batcher.due(0.0, NEVER_BUSY) == "size"
        batch = batcher.take("size", now=0.0)
        assert {p.request.problem.name for p in batch.items} == {
            PROBLEM_A.name,
            PROBLEM_B.name,
        }
        assert batcher.depth == 0

    def test_take_caps_at_max_batch_and_keeps_the_rest(self):
        """A queue that grew past ``max_batch`` while a batch ran is
        handed over ``max_batch`` at a time, oldest first."""
        batcher = MicroBatcher(max_batch=2, max_wait_s=10.0)
        pendings = [_pending(seed=s) for s in range(5)]
        for i, pending in enumerate(pendings):
            batcher.add(pending, now=float(i))
        assert batcher.take("size", now=5.0).items == pendings[:2]
        assert batcher.depth == 3
        assert batcher.next_deadline(NEVER_BUSY) == pytest.approx(12.0)
        assert batcher.take("size", now=5.0).items == pendings[2:4]
        assert batcher.due(5.0, NEVER_BUSY) is None


class TestDeadlineTrigger:
    def test_due_respects_max_wait(self):
        batcher = MicroBatcher(max_batch=100, max_wait_s=0.5)
        batcher.add(_pending(seed=0), now=10.0)
        assert batcher.due(10.4, NEVER_BUSY) is None
        assert batcher.due(10.5, NEVER_BUSY) == "deadline"

    def test_deadline_set_by_oldest_member(self):
        batcher = MicroBatcher(max_batch=100, max_wait_s=0.5)
        batcher.add(_pending(seed=0), now=0.0)
        batcher.add(_pending(seed=1), now=0.4)  # newer
        assert batcher.next_deadline(NEVER_BUSY) == pytest.approx(0.5)
        assert batcher.due(0.5, NEVER_BUSY) == "deadline"
        assert len(batcher.take("deadline", now=0.5)) == 2

    def test_deadline_waits_for_an_idle_window(self):
        """A request that came due while a batch ran waits ``max_wait_s``
        more after that batch ends, so the requests it answered can
        return and join."""
        batcher = MicroBatcher(max_batch=100, max_wait_s=0.5)
        batcher.add(_pending(seed=0), now=0.0)
        assert batcher.next_deadline(idle_since=2.0) == pytest.approx(2.5)
        assert batcher.due(2.4, idle_since=2.0) is None
        assert batcher.due(2.5, idle_since=2.0) == "deadline"

    def test_next_deadline_empty(self):
        assert MicroBatcher().next_deadline(NEVER_BUSY) is None
        assert MicroBatcher().due(0.0, NEVER_BUSY) is None

    def test_lone_request_not_stuck(self):
        """A request in a queue that never fills still ships at deadline."""
        batcher = MicroBatcher(max_batch=64, max_wait_s=0.01)
        batcher.add(_pending(seed=0), now=0.0)
        assert batcher.due(0.011, NEVER_BUSY) == "deadline"
        assert len(batcher.take("deadline", now=0.011)) == 1


class TestPriorityLane:
    def test_high_priority_makes_the_queue_due(self):
        batcher = MicroBatcher(max_batch=100, max_wait_s=10.0)
        batcher.add(_pending(seed=0), now=0.0)
        batcher.add(_pending(priority=Priority.HIGH, seed=1), now=0.1)
        assert batcher.due(0.1, NEVER_BUSY) == "priority"
        # Rides with the request that was already waiting.
        assert len(batcher.take("priority", now=0.1)) == 2

    def test_items_ordered_high_first(self):
        batcher = MicroBatcher(max_batch=3, max_wait_s=10.0)
        normal = _pending(seed=0)
        high = _pending(seed=1, priority=Priority.HIGH)
        batcher.add(normal, now=0.0)
        batcher.add(high, now=0.0)
        batch = batcher.take("priority", now=0.0)
        assert batch.items == [high, normal]

    def test_high_requests_jump_an_overfull_queue(self):
        batcher = MicroBatcher(max_batch=2, max_wait_s=10.0)
        normals = [_pending(seed=s) for s in range(3)]
        high = _pending(seed=9, priority=Priority.HIGH)
        for pending in normals + [high]:
            batcher.add(pending, now=0.0)
        assert batcher.take("size", now=0.0).items == [high, normals[0]]
        assert batcher.take("size", now=0.0).items == normals[1:]

    def test_promote_moves_a_waiting_key_to_the_high_lane(self):
        batcher = MicroBatcher(max_batch=100, max_wait_s=10.0)
        other = _pending(seed=0)
        leader = _pending(seed=1)
        leader.key = "leader"
        batcher.add(other, now=0.0)
        batcher.add(leader, now=0.0)
        batcher.promote("absent")  # nothing waits under that key
        assert batcher.due(0.0, NEVER_BUSY) is None
        batcher.promote("leader")
        assert batcher.due(0.0, NEVER_BUSY) == "priority"
        assert batcher.take("priority", now=0.0).items == [leader, other]


class TestValidation:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_wait_s=-1.0)
