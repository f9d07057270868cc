"""MappingServer: determinism, collapsing, backpressure, priority, drain."""

import json
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel.accelerator import small_accelerator
from repro.engine import EngineConfig, MappingEngine, MappingRequest
from repro.serve import (
    MappingServer,
    Priority,
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
)
from repro.serve.codec import BadRequest
from repro.serve.cohort import serve_batch
from repro.serve.http import HTTP_STATUS
from repro.serve.server import FAILURE_KINDS, failure_from_reply, failure_reply
from repro.workloads import make_conv1d

PROBLEM_A = make_conv1d("serve_a", w=32, r=5)
PROBLEM_B = make_conv1d("serve_b", w=48, r=3)


@pytest.fixture()
def engine():
    return MappingEngine(small_accelerator(), EngineConfig())


def _request(problem=PROBLEM_A, searcher="random", seed=0, tag="", iterations=15):
    return MappingRequest(
        problem, searcher=searcher, iterations=iterations, seed=seed, tag=tag
    )


class _GatedRunner:
    """Stub runner that blocks until released and records execution order."""

    def __init__(self):
        self.gate = threading.Event()
        self.order = []
        self.lock = threading.Lock()

    def __call__(self, engine, requests):
        self.gate.wait(timeout=10.0)
        with self.lock:
            self.order.extend(request.tag for request in requests)
        return [None] * len(requests)


class TestDeterminism:
    def test_batched_serving_bit_identical_to_solo(self, engine):
        """Acceptance: solo map, map_batch, and server-coalesced serving
        produce bit-identical responses per seed."""
        requests = [
            _request(problem, searcher, seed, tag=f"{searcher}/{seed}")
            for problem in (PROBLEM_A, PROBLEM_B)
            for searcher in ("random", "annealing")
            for seed in range(3)
        ]
        solo = [engine.map(request) for request in requests]
        via_batch = engine.map_batch(requests)
        with MappingServer(
            engine, ServeConfig(max_batch=16, max_wait_s=0.05)
        ) as server:
            futures = [server.submit(request) for request in requests]
            via_server = [future.result(timeout=60) for future in futures]
        for a, b, c in zip(solo, via_batch, via_server):
            assert a.mapping == b.mapping == c.mapping
            assert a.stats == b.stats == c.stats
            assert (
                a.result.objective_values
                == b.result.objective_values
                == c.result.objective_values
            )

    def test_batches_actually_formed(self, engine):
        with MappingServer(
            engine, ServeConfig(max_batch=8, max_wait_s=0.1)
        ) as server:
            futures = [
                server.submit(_request(seed=seed)) for seed in range(8)
            ]
            for future in futures:
                future.result(timeout=60)
            snapshot = server.metrics_snapshot()
        assert snapshot["counters"]["served"] == 8
        # Eight same-problem requests submitted together ride few batches.
        assert snapshot["batch_size"]["count"] <= 3
        assert snapshot["latency"]["p50_ms"] is not None


class TestCollapsing:
    def test_duplicate_inflight_requests_collapse(self, engine):
        config = ServeConfig(
            max_batch=16, max_wait_s=0.05, response_cache_size=0
        )
        with MappingServer(engine, config) as server:
            first = server.submit(_request(seed=7, tag="original"))
            duplicate = server.submit(_request(seed=7, tag="duplicate"))
            distinct = server.submit(_request(seed=8, tag="distinct"))
            a = first.result(timeout=60)
            b = duplicate.result(timeout=60)
            c = distinct.result(timeout=60)
            snapshot = server.metrics_snapshot()
        assert snapshot["counters"]["collapsed"] == 1
        assert a.tag == "original" and b.tag == "duplicate"
        assert a.mapping == b.mapping and a.stats == b.stats
        assert c.mapping != a.mapping or c.stats != a.stats

    def test_response_cache_hits_across_time(self, engine):
        with MappingServer(
            engine, ServeConfig(max_batch=4, max_wait_s=0.01)
        ) as server:
            cold = server.submit(_request(seed=3, tag="cold")).result(timeout=60)
            warm = server.submit(_request(seed=3, tag="warm")).result(timeout=60)
            snapshot = server.metrics_snapshot()
        assert snapshot["counters"]["response_cache_hits"] == 1
        assert warm.tag == "warm"
        assert warm.mapping == cold.mapping

    def test_high_priority_duplicate_flushes_the_waiting_leader(self, engine):
        """A HIGH request collapsing onto a NORMAL in-flight duplicate must
        not wait out the batching delay: the leader's group ships now."""
        with MappingServer(
            engine,
            # Leader would otherwise sit for the full 10s deadline.
            ServeConfig(max_batch=64, max_wait_s=10.0),
        ) as server:
            started = time.monotonic()
            leader = server.submit(_request(seed=7, tag="leader"))
            urgent = server.submit(
                _request(seed=7, tag="urgent"), priority=Priority.HIGH
            )
            a = leader.result(timeout=30)
            b = urgent.result(timeout=30)
            elapsed = time.monotonic() - started
            snapshot = server.metrics_snapshot()
        assert elapsed < 5.0, "HIGH duplicate waited out the batching deadline"
        assert snapshot["counters"]["collapsed"] == 1
        assert a.mapping == b.mapping
        assert b.tag == "urgent"

    def test_unseeded_requests_never_collapse(self, engine):
        with MappingServer(
            engine, ServeConfig(max_batch=4, max_wait_s=0.01)
        ) as server:
            futures = [
                server.submit(_request(seed=None, iterations=5))
                for _ in range(3)
            ]
            for future in futures:
                future.result(timeout=60)
            snapshot = server.metrics_snapshot()
        assert snapshot["counters"]["collapsed"] == 0
        assert snapshot["counters"]["response_cache_hits"] == 0


class TestBackpressure:
    def test_overload_rejects_with_retry_hint(self, engine):
        runner = _GatedRunner()
        server = MappingServer(
            engine,
            ServeConfig(max_batch=1, max_wait_s=0.0, max_queue=2,
                        response_cache_size=0),
            runner=runner,
        )
        try:
            server.submit(_request(seed=0, tag="a"))
            server.submit(_request(seed=1, tag="b"))
            deadline = time.monotonic() + 5.0
            rejected = None
            while time.monotonic() < deadline:
                try:
                    server.submit(_request(seed=99, tag="overflow"))
                except ServerOverloaded as error:
                    rejected = error
                    break
                time.sleep(0.005)
            assert rejected is not None, "queue never filled"
            assert rejected.retry_after_s > 0
            assert server.metrics_snapshot()["counters"]["rejected"] >= 1
        finally:
            runner.gate.set()
            server.shutdown(timeout=10.0)

    def test_collapsed_followers_count_against_admission(self, engine):
        """A duplicate-request storm can't grow follower state without
        bound: followers occupy queue slots and overflow is rejected."""
        gate = threading.Event()

        def gated_real_runner(engine_, reqs):
            gate.wait(timeout=10.0)
            return serve_batch(engine_, reqs)

        server = MappingServer(
            engine,
            ServeConfig(max_batch=1, max_wait_s=0.0, max_queue=3,
                        response_cache_size=0),
            runner=gated_real_runner,
        )
        try:
            leader = server.submit(_request(seed=5, tag="leader"))
            deadline = time.monotonic() + 5.0
            rejected = None
            collapsed = 0
            while time.monotonic() < deadline and rejected is None:
                try:
                    server.submit(_request(seed=5, tag=f"dup{collapsed}"))
                    collapsed += 1
                except ServerOverloaded as error:
                    rejected = error
            assert rejected is not None, "follower growth was never bounded"
            assert collapsed <= 3  # max_queue, not arrival count, is the cap
            gate.set()
            assert leader.result(timeout=30).tag == "leader"
        finally:
            gate.set()
            server.shutdown(timeout=10.0)

    def test_priority_served_before_backlog(self, engine):
        runner = _GatedRunner()
        server = MappingServer(
            engine,
            ServeConfig(max_batch=1, max_wait_s=0.0, max_queue=64,
                        response_cache_size=0),
            runner=runner,
        )
        try:
            futures = [
                server.submit(_request(seed=i, tag=f"normal-{i}"))
                for i in range(4)
            ]
            futures.append(
                server.submit(
                    _request(seed=99, tag="urgent"), priority=Priority.HIGH
                )
            )
            runner.gate.set()
            for future in futures:
                future.result(timeout=30)
        finally:
            server.shutdown(timeout=10.0)
        # At most one normal batch was already running when "urgent"
        # arrived; everything else queued behind it must yield to HIGH.
        assert runner.order.index("urgent") <= 1


    def test_high_duplicate_promotes_the_waiting_leader(self, engine):
        """If the leader waits behind a running batch, a HIGH duplicate
        moves it ahead of the NORMAL backlog."""
        gate = threading.Event()
        order = []

        def gated_recording_runner(engine_, reqs):
            gate.wait(timeout=10.0)
            order.extend(r.tag for r in reqs)
            return serve_batch(engine_, reqs)

        server = MappingServer(
            engine,
            ServeConfig(max_batch=1, max_wait_s=0.0, max_queue=64,
                        response_cache_size=0),
            runner=gated_recording_runner,
        )
        try:
            blocker = server.submit(_request(seed=0, tag="blocker"))
            backlog = [
                server.submit(_request(seed=10 + i, tag=f"normal-{i}"))
                for i in range(3)
            ]
            leader = server.submit(_request(seed=5, tag="leader"))
            urgent = server.submit(
                _request(seed=5, tag="urgent"), priority=Priority.HIGH
            )
            gate.set()
            assert urgent.result(timeout=30).tag == "urgent"
            for future in [blocker, leader] + backlog:
                future.result(timeout=30)
        finally:
            gate.set()
            server.shutdown(timeout=10.0)
        # Leader (carrying the HIGH follower) ran right after the batch
        # that was already in flight, ahead of the earlier NORMAL backlog.
        assert order.index("leader") <= 1


class _BatchRecorder:
    """Stub runner recording each batch's tags as it starts; the first
    batch blocks until released."""

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.batches = []

    def __call__(self, engine, requests):
        self.batches.append([request.tag for request in requests])
        if len(self.batches) == 1:
            self.started.set()
            self.gate.wait(timeout=10.0)
        return [None] * len(requests)


def _loop_server(engine, runner, max_batch=64, max_wait_s=0.01):
    return MappingServer(
        engine,
        ServeConfig(max_batch=max_batch, max_wait_s=max_wait_s,
                    response_cache_size=0),
        runner=runner,
    )


class TestServeLoop:
    def test_runs_exactly_one_serving_thread(self, engine):
        """A started server adds one serving thread (beside the telemetry
        sampler), and every batch runs on it."""
        ran_on = []

        def runner(engine_, requests):
            ran_on.append(threading.current_thread().name)
            return [None] * len(requests)

        before = set(threading.enumerate())
        with _loop_server(engine, runner, max_batch=2) as server:
            for future in [server.submit(_request(seed=s)) for s in range(5)]:
                future.result(timeout=30)
            started = sorted(thread.name for thread in threading.enumerate()
                             if thread not in before)
        assert started == ["obs-sampler", "serve-loop"]
        assert ran_on and set(ran_on) == {"serve-loop"}

    def test_due_group_waits_for_the_running_batch(self, engine):
        """A deadline-due group never starts beside a running batch: it
        keeps coalescing until the server is idle."""
        runner = _BatchRecorder()
        server = _loop_server(engine, runner)
        try:
            first = server.submit(_request(seed=0, tag="first"))
            assert runner.started.wait(timeout=10.0)
            late = [server.submit(_request(seed=s, tag=f"late-{s}"))
                    for s in (1, 2)]
            time.sleep(0.1)  # ten deadlines pass while "first" runs
            assert runner.batches == [["first"]]
            runner.gate.set()
            for future in [first] + late:
                future.result(timeout=30)
        finally:
            runner.gate.set()
            server.shutdown(timeout=10.0)
        assert runner.batches == [["first"], ["late-1", "late-2"]]

    def test_held_group_merges_with_requests_answered_meanwhile(self, engine):
        """Once idle, the server waits ``max_wait_s`` before running a
        held group, so a closed-loop client's next request joins it."""
        runner = _BatchRecorder()
        server = _loop_server(engine, runner, max_wait_s=0.2)
        try:
            first = server.submit(_request(seed=0, tag="first"))
            assert runner.started.wait(timeout=10.0)
            held = server.submit(_request(seed=1, tag="held"))
            time.sleep(0.3)  # "held" is past its deadline
            runner.gate.set()
            first.result(timeout=30)
            time.sleep(0.05)  # a client's think time, inside the window
            again = server.submit(_request(seed=2, tag="again"))
            held.result(timeout=30)
            again.result(timeout=30)
        finally:
            runner.gate.set()
            server.shutdown(timeout=10.0)
        assert runner.batches == [["first"], ["held", "again"]]

    def test_full_batch_waits_for_the_running_batch(self, engine):
        """A full queue goes as soon as the running batch ends, not beside
        it."""
        runner = _BatchRecorder()
        server = _loop_server(engine, runner, max_batch=2, max_wait_s=10.0)
        try:
            futures = [server.submit(_request(seed=s, tag=f"r{s}"))
                       for s in range(2)]
            assert runner.started.wait(timeout=10.0)
            futures += [server.submit(_request(seed=s, tag=f"r{s}"))
                        for s in (2, 3)]
            time.sleep(0.05)
            assert runner.batches == [["r0", "r1"]]
            runner.gate.set()
            for future in futures:
                future.result(timeout=30)
        finally:
            runner.gate.set()
            server.shutdown(timeout=10.0)
        assert runner.batches == [["r0", "r1"], ["r2", "r3"]]

    def test_batches_never_overlap_under_stress(self, engine):
        """Eight submitting threads, a tiny switch interval, every tenth
        request HIGH and ``max_batch=7``, then a lone request: size,
        priority and deadline triggers all fire, no two batches ever run
        at once, none exceeds ``max_batch``, and every request is served
        exactly once."""
        lock = threading.Lock()
        active = [0, 0]  # running now, most ever running at once
        sizes = []
        served = []

        def runner(engine_, requests):
            with lock:
                active[0] += 1
                active[1] = max(active)
                sizes.append(len(requests))
            time.sleep(0.001)
            with lock:
                active[0] -= 1
                served.extend(request.tag for request in requests)
            return [None] * len(requests)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        server = MappingServer(
            engine,
            ServeConfig(max_batch=7, max_wait_s=0.001, max_queue=1000,
                        response_cache_size=0, trace_capacity=1000),
            runner=runner,
        )
        futures = []

        def submit_many(first):
            for seed in range(first, first + 50):
                priority = Priority.HIGH if seed % 10 == 0 else Priority.NORMAL
                futures.append(server.submit(
                    _request(seed=seed, tag=str(seed)), priority=priority
                ))

        try:
            threads = [threading.Thread(target=submit_many, args=(50 * i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            for future in futures:
                future.result(timeout=30)
            server.map(_request(seed=400, tag="400"), timeout=30)
            triggers = {
                span["attrs"]["trigger"]
                for trace_id in server.tracer.trace_ids()
                for span in server.trace_snapshot(trace_id)["spans"]
                if span["name"] == "admission"
            }
        finally:
            sys.setswitchinterval(interval)
            server.shutdown(timeout=10.0)
        assert triggers == {"size", "priority", "deadline"}
        assert active[1] == 1
        assert max(sizes) <= 7 and sum(sizes) == 401
        assert sorted(served, key=int) == [str(seed) for seed in range(401)]


@pytest.fixture(scope="module")
def shared_engine():
    return MappingEngine(small_accelerator(), EngineConfig())


class _OverlapRecorder:
    """Real runner, wrapped to record each batch's size and the most
    batches ever running at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.active = 0
        self.most_active = 0
        self.sizes = []

    def __call__(self, engine, requests):
        with self.lock:
            self.active += 1
            self.most_active = max(self.most_active, self.active)
            self.sizes.append(len(requests))
        try:
            return serve_batch(engine, requests)
        finally:
            with self.lock:
                self.active -= 1


#: (seed, lane, poison) per arrival.  Four seeds make some requests
#: collapse and some hit the response cache; lane 0 (1 in 5) is HIGH;
#: poison 0 (1 in 6) carries a config that fails in prepare.
_ARRIVALS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 5)),
    min_size=8, max_size=24,
)


class TestConservation:
    @settings(max_examples=30, deadline=None)
    @given(arrivals=_ARRIVALS, max_batch=st.integers(1, 5),
           max_queue=st.integers(2, 8))
    def test_every_admitted_request_ends_exactly_once(
        self, shared_engine, arrivals, max_batch, max_queue
    ):
        """After ``drain`` every admitted future is done, the counters
        balance (a lost request or a double resolution breaks the sum),
        nothing is left queued or following, and batches never exceed
        ``max_batch`` or overlap."""
        runner = _OverlapRecorder()
        server = MappingServer(
            shared_engine,
            ServeConfig(max_batch=max_batch, max_wait_s=0.001,
                        max_queue=max_queue),
            runner=runner,
        )
        admitted = []
        try:
            for seed, lane, poison in arrivals:
                request = MappingRequest(
                    (PROBLEM_A, PROBLEM_B)[seed % 2], searcher="random",
                    iterations=5, seed=seed,
                    searcher_config={"bogus_knob": 1} if poison == 0 else {},
                )
                priority = Priority.HIGH if lane == 0 else Priority.NORMAL
                try:
                    admitted.append(server.submit(request, priority=priority))
                except ServerOverloaded:
                    pass
            assert server.drain(timeout=30.0)
            counters = server.metrics_snapshot()["counters"]
            assert all(future.done() for future in admitted)
            assert counters["submitted"] == len(arrivals)
            assert counters["rejected"] == len(arrivals) - len(admitted)
            assert counters["submitted"] == (
                counters["served"] + counters["errors"] + counters["rejected"]
            )
            assert server.queue_depth == 0
            assert server._inflight == {}
            assert max(runner.sizes, default=0) <= max_batch
            assert runner.most_active <= 1
        finally:
            server.shutdown(timeout=10.0)


class TestFailureReplies:
    """``failure_reply``/``failure_from_reply``: the one exception <-> kind
    table a shard replies with, a router raises from and a gateway answers."""

    @pytest.mark.parametrize(
        "error, kind",
        [
            (BadRequest("bad request: 'problem'"), "bad_request"),
            (ServerOverloaded(retry_after_s=0.25, depth=7), "overloaded"),
            (ServerClosed("server is draining"), "closed"),
            (TypeError("unexpected keyword 'nope'"), "error"),
        ],
        ids=["bad_request", "overloaded", "closed", "error"],
    )
    def test_kind_round_trips_through_a_json_reply(self, error, kind):
        reply = json.loads(json.dumps(failure_reply(error)))
        assert reply["ok"] is False
        assert reply["kind"] == kind
        raised = failure_from_reply(reply, "shard 2")
        assert type(raised) is FAILURE_KINDS.get(kind, RuntimeError)
        if kind == "overloaded":
            assert (reply["retry_after_s"], reply["depth"]) == (0.25, 7)
            assert (raised.retry_after_s, raised.depth) == (0.25, 7)
            assert str(raised) == str(error)
        else:
            assert "retry_after_s" not in reply and "depth" not in reply
            assert str(raised) == f"shard 2: {reply['error']}"
        if kind == "error":
            assert reply["error"] == "TypeError: unexpected keyword 'nope'"

    def test_plain_value_error_is_the_error_kind(self):
        # Only a refused payload is the client's fault; a search that
        # raises ValueError is a server failure.
        assert failure_reply(ValueError("boom"))["kind"] == "error"

    def test_every_kind_has_an_http_status(self):
        assert set(HTTP_STATUS) == set(FAILURE_KINDS) | {"error"}
        assert HTTP_STATUS == {"bad_request": 400, "overloaded": 429,
                               "closed": 503, "error": 500}


class TestLifecycle:
    def test_drain_serves_admitted_then_closes(self, engine):
        server = MappingServer(
            engine, ServeConfig(max_batch=8, max_wait_s=5.0)
        )
        futures = [server.submit(_request(seed=seed)) for seed in range(3)]
        # max_wait is long: requests are still sitting in the batcher.
        assert server.drain(timeout=60.0)
        for future in futures:
            assert future.done()
            assert future.result().stats.edp > 0
        with pytest.raises(ServerClosed):
            server.submit(_request(seed=9))
        server.shutdown(timeout=10.0)

    def test_context_manager_shuts_down(self, engine):
        with MappingServer(engine, ServeConfig()) as server:
            response = server.map(_request(seed=1), timeout=60)
            assert response.stats.edp > 0
        with pytest.raises(ServerClosed):
            server.submit(_request(seed=2))

    def test_metrics_report_the_engine_oracle_from_the_start(self, engine):
        """``oracle_cache`` in the metrics is the engine oracle's counters,
        present before the first request and in step after it."""
        def oracle_view(stats):
            return {"hits": stats.hits, "misses": stats.misses,
                    "prewarmed": stats.prewarmed, "hit_rate": stats.hit_rate,
                    "size": stats.size}

        with MappingServer(engine, ServeConfig()) as server:
            assert server.metrics_snapshot()["oracle_cache"] == {
                "hits": 0, "misses": 0, "prewarmed": 0, "hit_rate": 0.0,
                "size": 0,
            }
            server.map(_request(seed=3), timeout=60)
            snapshot = server.metrics_snapshot()["oracle_cache"]
            assert snapshot == oracle_view(engine.oracle_stats())
            assert snapshot["misses"] > 0

    def test_unknown_searcher_rejected_at_admission(self, engine):
        """A bad searcher name is refused at submit, before it can be
        coalesced into (and poison) a batch of innocent requests."""
        with MappingServer(
            engine, ServeConfig(max_batch=1, max_wait_s=0.0)
        ) as server:
            with pytest.raises(KeyError, match="no-such-searcher"):
                server.submit(
                    MappingRequest(PROBLEM_A, searcher="no-such-searcher",
                                   iterations=5, seed=0)
                )

    def test_one_poisoned_request_does_not_fail_its_batchmates(self, engine):
        """A request that passes admission but fails during preparation
        (bogus searcher config) errors alone; everything coalesced with it
        is re-run solo and succeeds."""
        with MappingServer(
            engine,
            ServeConfig(max_batch=8, max_wait_s=0.05, response_cache_size=0),
        ) as server:
            good = [server.submit(_request(seed=seed)) for seed in range(3)]
            bad = server.submit(
                MappingRequest(PROBLEM_A, searcher="random", iterations=5,
                               seed=9, searcher_config={"bogus_knob": 1})
            )
            for future in good:
                assert future.result(timeout=60).stats.edp > 0
            with pytest.raises(Exception, match="bogus_knob"):
                bad.result(timeout=60)
            snapshot = server.metrics_snapshot()
        assert snapshot["counters"]["errors"] == 1
        assert snapshot["counters"]["served"] == 3

    def test_poisoned_gradient_member_fails_alone(self):
        """Three gradient requests share a batch and its shared decode; one
        carries a surrogate clone with a NaN weight.  Its NaN rows make the
        shared decode raise for the whole round, so the batch is re-run
        solo: that future fails with ``ValueError`` and the other two
        equal solo ``engine.map``."""
        from repro.core import MindMappingsConfig, TrainingConfig

        engine = MappingEngine(small_accelerator(), EngineConfig(
            mm_config=MindMappingsConfig(
                dataset_samples=600, n_problems=2,
                training=TrainingConfig(hidden_layers=(16, 16), epochs=3),
            ),
            training_problems={"conv1d": (make_conv1d("poison_a", w=48, r=3),
                                          make_conv1d("poison_b", w=64, r=5))},
        ))
        poisoned = engine.surrogate_for("conv1d").clone()
        # A NaN input weight of a tile column: every prediction and that
        # column's gradient turn NaN, so the stepped rows cannot decode.
        tile_column = poisoned.encoder.layout.tile_slice.start
        poisoned.network.parameters()[0].data[tile_column, 0] = float("nan")
        requests = [
            _request(PROBLEM_A, "gradient", seed=1, iterations=25),
            MappingRequest(PROBLEM_B, searcher="gradient", iterations=25, seed=2,
                           searcher_config={"surrogate": poisoned}),
            _request(PROBLEM_B, "gradient", seed=3, iterations=25),
        ]
        with MappingServer(
            engine, ServeConfig(max_batch=8, max_wait_s=0.2)
        ) as server:
            futures = [server.submit(request) for request in requests]
            with pytest.raises(ValueError, match="not finite"):
                futures[1].result(timeout=60)
            good = [futures[0].result(timeout=60), futures[2].result(timeout=60)]
            snapshot = server.metrics_snapshot()
        assert snapshot["batch_size"]["buckets"] == {"<=4": 1}
        for request, response in zip(requests[::2], good):
            solo = engine.map(request)
            assert response.mapping == solo.mapping
            assert response.stats.edp == solo.stats.edp
            assert response.result.objective_values == solo.result.objective_values
            assert response.result.mappings == solo.result.mappings

    def test_cancelled_future_does_not_kill_the_worker(self, engine):
        """cancel() on a queued request must not crash the worker thread,
        strand its batchmates, or wedge shutdown."""
        runner = _GatedRunner()
        server = MappingServer(
            engine,
            ServeConfig(max_batch=1, max_wait_s=0.0, max_queue=64,
                        response_cache_size=0),
            runner=runner,
        )
        try:
            blocker = server.submit(_request(seed=0, tag="blocker"))
            doomed = server.submit(_request(seed=1, tag="doomed"))
            survivor = server.submit(_request(seed=2, tag="survivor"))
            assert doomed.cancel()  # still queued behind the gated batch
            runner.gate.set()
            blocker.result(timeout=30)
            # The worker survived the cancelled future and kept serving.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and "survivor" not in runner.order:
                time.sleep(0.01)
            assert "survivor" in runner.order
        finally:
            assert server.shutdown(timeout=10.0)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ServeConfig(max_queue=0)
        with pytest.raises(ValueError):
            ServeConfig(response_cache_size=-1)
