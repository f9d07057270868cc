"""Fleet views without processes: the router's pure merges fed hand-built
shard views, its one fan-out over fake pools, the shard's view table, and
the map call's failure kinds across shard, router and gateway."""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request

import pytest

from repro.cluster.router import (
    ClusterConfig,
    ClusterRouter,
    NoLiveShards,
    merge_events,
    merge_health,
    merge_metrics,
    merge_profile,
    merge_slo,
)
from repro.cluster.shard import ShardService
from repro.costmodel.accelerator import small_accelerator
from repro.engine import MappingRequest
from repro.serve import ServeConfig, request_to_dict, response_to_dict, start_gateway
from repro.serve.http import HTTP_STATUS
from repro.serve.server import ServerClosed, ServerOverloaded, failure_reply
from repro.workloads import make_conv1d

UNREACHABLE = {"status": "unreachable"}


def _slo_view(worst_state, **states):
    return {
        "slos": [{"name": name, "state": state}
                 for name, state in states.items()],
        "worst_state": worst_state,
    }


class TestMergeSlo:
    def test_burning_shards_and_worst_state(self):
        router_view = _slo_view("ok", latency_p99="ok", error_rate="ok")
        views = {
            "0": _slo_view("page", latency_p99="page", error_rate="ok"),
            "1": _slo_view("ok", latency_p99="ok", error_rate="ok"),
            "2": None,
        }
        merged = merge_slo(router_view, views)
        assert merged["router"] is router_view
        assert merged["shards"] == {"0": views["0"], "1": views["1"],
                                    "2": UNREACHABLE}
        assert merged["fleet"]["burning_shards"] == ["0"]
        assert merged["worst_state"] == "page"
        assert merged["fleet"]["by_slo"]["latency_p99"] == {
            "per_shard": {"0": "page", "1": "ok"},
            "router": "ok",
            "worst_state": "page",
        }
        assert merged["fleet"]["by_slo"]["error_rate"]["worst_state"] == "ok"

    def test_router_burn_counts_without_a_burning_shard(self):
        merged = merge_slo(_slo_view("warning", error_rate="warning"),
                           {"0": _slo_view("ok", error_rate="ok")})
        assert merged["fleet"]["by_slo"]["error_rate"]["worst_state"] == (
            "warning"
        )
        assert merged["fleet"]["burning_shards"] == []
        assert merged["worst_state"] == "warning"

    def test_objective_only_a_shard_reports(self):
        merged = merge_slo(
            _slo_view("ok", latency_p99="ok"),
            {"0": _slo_view("warning", shard_latency="warning"),
             "1": _slo_view("ok", shard_latency="ok")},
        )
        by_slo = merged["fleet"]["by_slo"]
        assert list(by_slo) == ["latency_p99", "shard_latency"]
        assert by_slo["shard_latency"] == {
            "per_shard": {"0": "warning", "1": "ok"},
            "worst_state": "warning",
        }
        assert by_slo["latency_p99"]["per_shard"] == {}

    def test_every_shard_unreachable(self):
        merged = merge_slo(_slo_view("ok"), {"0": None, "1": None})
        assert merged["worst_state"] == "ok"
        assert merged["fleet"] == {"by_slo": {}, "burning_shards": []}
        assert merged["shards"] == {"0": UNREACHABLE, "1": UNREACHABLE}


def _event(kind, seq):
    return {"seq": seq, "ts_s": float(seq), "kind": kind, "fields": {}}


class TestMergeEvents:
    ROUTER = [_event("overloaded", 1), _event("failover", 2)]
    VIEWS = {
        "0": [_event("swap_published", 1), _event("overloaded", 2)],
        "1": None,
        "2": [_event("overloaded", 7)],
    }

    def _order(self, events):
        return [(event["source"], event["seq"]) for event in events]

    def test_sources_are_stamped_and_grouped(self):
        merged = merge_events(self.ROUTER, self.VIEWS)
        assert self._order(merged) == [
            ("router", 1), ("router", 2),
            ("shard-0", 1), ("shard-0", 2), ("shard-2", 7),
        ]
        assert "source" not in self.ROUTER[0]  # inputs are not mutated

    def test_kind_filter_applies_to_every_source(self):
        merged = merge_events(self.ROUTER, self.VIEWS, kind="overloaded")
        assert self._order(merged) == [
            ("router", 1), ("shard-0", 2), ("shard-2", 7),
        ]

    @pytest.mark.parametrize("limit, kept", [(None, 5), (0, 0), (2, 2),
                                             (99, 5)])
    def test_limit_keeps_the_newest(self, limit, kept):
        full = merge_events(self.ROUTER, self.VIEWS)
        merged = merge_events(self.ROUTER, self.VIEWS, limit=limit)
        assert merged == full[len(full) - kept:]


def _health(worst_state="ok", pid=100, versions=None):
    return {
        "status": "ok", "queue_depth": 3, "shard_id": 0, "pid": pid,
        "surrogate_versions": versions or {},
        "slo": {"worst_state": worst_state, "alerting": []},
    }


class TestMergeHealth:
    def _merge(self, views, router_states=None, accepting=True):
        return merge_health(views, router_states or {}, accepting=accepting,
                            queue_depth=4)

    def test_ok_when_every_shard_answers(self):
        merged = self._merge({"0": _health(), "1": _health(pid=101)})
        assert merged["status"] == "ok"
        assert (merged["shards_live"], merged["shards_total"]) == (2, 2)
        assert merged["queue_depth"] == 4
        assert merged["shards"]["1"] == {
            "status": "ok", "queue_depth": 3, "pid": 101,
            "slo": {"worst_state": "ok", "alerting": []},
        }

    def test_degraded_when_a_shard_is_unreachable(self):
        merged = self._merge({"0": _health(), "1": None})
        assert merged["status"] == "degraded"
        assert merged["shards_live"] == 1
        assert merged["shards"]["1"] == UNREACHABLE

    def test_down_when_no_shard_answers(self):
        merged = self._merge({"0": None, "1": None})
        assert merged["status"] == "down"
        assert merged["shards_live"] == 0

    def test_draining_once_the_router_stops_admitting(self):
        merged = self._merge({"0": _health(), "1": None}, accepting=False)
        assert merged["status"] == "draining"

    def test_burning_shards_and_router_states(self):
        merged = self._merge({"0": _health("page"), "1": _health()},
                             {"availability": "warning"})
        assert merged["slo"] == {
            "worst_state": "page",
            "router": {"availability": "warning"},
            "burning_shards": ["0"],
        }
        calm = self._merge({"0": _health()}, {"availability": "warning"})
        assert calm["slo"]["worst_state"] == "warning"
        assert calm["slo"]["burning_shards"] == []

    def test_surrogate_versions_per_shard(self):
        merged = self._merge({
            "0": _health(versions={"conv1d": {"version": 3}}),
            "1": _health(versions={"conv1d": {"version": 4}}),
            "2": None,
        })
        assert merged["surrogate_versions"] == {"conv1d": {"0": 3, "1": 4}}


class TestMergeMetrics:
    def test_fleet_counters_sum_over_reachable_shards(self):
        views = {
            "0": {"counters": {"served": 3, "errors": 1}},
            "1": {"counters": {"served": 4}},
            "2": None,
        }
        merged = merge_metrics(views)
        assert merged["fleet"]["counters"] == {"served": 7, "errors": 1}
        assert merged["shards"] == {"0": views["0"], "1": views["1"],
                                    "2": UNREACHABLE}

    def test_converged_when_every_reachable_shard_agrees(self):
        views = {
            "0": {"counters": {}, "surrogate_versions": {
                "conv1d": {"version": 2}, "gemm": {"version": 1}}},
            "1": {"counters": {}, "surrogate_versions": {
                "conv1d": {"version": 2}, "gemm": {"version": 2}}},
            "2": None,
        }
        versions = merge_metrics(views)["fleet"]["surrogate_versions"]
        assert versions["conv1d"] == {"per_shard": {"0": 2, "1": 2},
                                      "converged": True}
        assert versions["gemm"] == {"per_shard": {"0": 1, "1": 2},
                                    "converged": False}


class TestMergeProfile:
    ROUTER = {"enabled": False, "hotspots": [{"span": "cluster.request"}]}

    def test_enabled_when_any_shard_profiles(self):
        merged = merge_profile(self.ROUTER, {
            "0": {"enabled": False}, "1": {"enabled": True}, "2": None,
        })
        assert merged["enabled"] is True
        assert merged["hotspots"] == self.ROUTER["hotspots"]
        assert merged["shards"]["2"] == UNREACHABLE

    def test_disabled_when_no_shard_profiles(self):
        merged = merge_profile(self.ROUTER,
                               {"0": {"enabled": False}, "1": None})
        assert merged["enabled"] is False


class _FakePool:
    """Stands in for a shard's connection pool: canned replies per op."""

    def __init__(self, replies):
        self.replies = replies
        self.calls = []

    def call(self, payload, timeout_s):
        self.calls.append(dict(payload))
        reply = self.replies.get(payload["op"])
        if isinstance(reply, Exception):
            raise reply
        return reply

    def close(self):
        pass


@pytest.fixture
def router():
    """An unstarted three-shard router: no shard process is spawned."""
    router = ClusterRouter(ClusterConfig(num_shards=3))
    yield router
    router.shutdown(timeout=5.0)


def _attach(router, shard_id, replies):
    pool = _FakePool(replies)
    router._handles[shard_id].pool = pool
    router._handles[shard_id].live = True
    return pool


class TestFanOut:
    def test_each_shard_view_or_none(self, router):
        view = _slo_view("ok")
        _attach(router, 0, {"slo": {"ok": True, "shard_id": 0, "slo": view}})
        _attach(router, 1, {"slo": ConnectionError("shard died mid-call")})
        # Shard 2 is down: no pool, not live.
        assert router._fan_out("slo") == {"0": view, "1": None, "2": None}
        _attach(router, 1, {"slo": {"ok": False, "kind": "error",
                                    "error": "boom"}})
        assert router._fan_out("slo")["1"] is None

    def test_fields_ride_along_with_the_op(self, router):
        pool = _attach(router, 0, {"profile": {
            "ok": True, "shard_id": 0, "profile": {"enabled": True},
        }})
        profile = router.profile_snapshot(limit=7)
        assert pool.calls == [{"op": "profile", "limit": 7}]
        assert profile["enabled"] is True
        assert profile["shards"]["1"] == UNREACHABLE

    def test_health_view_goes_through_the_fan_out(self, router):
        _attach(router, 0, {"health": {"ok": True, "shard_id": 0,
                                       "health": _health()}})
        health = router.health_snapshot()
        assert health["shards_live"] == 1
        assert health["shards"]["0"]["pid"] == 100
        assert health["status"] == "draining"  # never started


def test_shard_views_share_one_reply_layout():
    service = ShardService(5, ClusterConfig(accelerator=small_accelerator()))
    try:
        for op in ("metrics", "health", "events", "slo", "profile"):
            reply = service.handle({"op": op})
            assert set(reply) == {"ok", "shard_id", op}, op
            assert reply["ok"] is True and reply["shard_id"] == 5
        for op in ("metrics", "health"):
            view = service.handle({"op": op})[op]
            assert (view["shard_id"], view["pid"]) == (5, os.getpid())
        for op in ("timeseries", "drain"):
            reply = service.handle({"op": op})
            assert reply["ok"] is False and reply["kind"] == "bad_request"
        # The router's ``limit`` passes through unchanged: ``None`` (the
        # fleet view asked for every row) must not become a default cut.
        limits = []
        profile_snapshot = service.server.profile_snapshot
        service.server.profile_snapshot = lambda limit=50: (
            limits.append(limit) or profile_snapshot(limit=limit)
        )
        for limit in (None, 7):
            assert service.handle({"op": "profile", "limit": limit})["ok"]
        assert limits == [None, 7]
    finally:
        service.close()


def _post(url, payload):
    """POST ``payload``; ``(status, Retry-After header, JSON body)`` for a
    success and an HTTP error alike."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as reply:
            return reply.status, reply.headers.get("Retry-After"), json.loads(
                reply.read()
            )
    except urllib.error.HTTPError as error:
        with error:
            return error.code, error.headers.get("Retry-After"), json.loads(
                error.read()
            )


def test_failure_kinds_agree_across_shard_router_and_gateway():
    """Each failure kind a shard's map call can reply with reads the same
    at every hop: the shard's reply, the exception a router raises from
    that reply (a ``closed`` shard fails over instead), and the status and
    ``Retry-After`` of a gateway in front of the shard's server and of one
    in front of the router.  An overloaded shard's own depth reaches the
    router's exception and the 429."""
    problem = make_conv1d("failure_kinds", w=32, r=5)

    def payload(seed, **fields):
        request = MappingRequest(problem, searcher="random", iterations=5,
                                 seed=seed, **fields)
        return {"request": request_to_dict(request)}

    # Two NORMAL requests never make a batch due before the minute-long
    # deadline, so one admitted request holds the one-slot queue; a HIGH
    # request is due at once.
    service = ShardService(0, ClusterConfig(
        accelerator=small_accelerator(),
        serve=ServeConfig(max_batch=2, max_wait_s=60.0, max_queue=1,
                          response_cache_size=0),
    ))
    router = ClusterRouter(ClusterConfig(num_shards=2))
    routed = MappingRequest(problem, searcher="random", iterations=5, seed=9)
    owner = router.shard_for(routed)
    owner_pool = _attach(router, owner, {})
    backup_pool = _attach(router, 1 - owner, {"map": {
        "ok": True, "response": response_to_dict(service.engine.map(routed)),
    }})
    router._accepting = True
    shard_gateway = start_gateway(service.server)
    router_gateway = start_gateway(router)
    unregistered = payload(1)
    unregistered["request"]["searcher"] = "no-such-searcher"
    bad_config = dict(payload(2, searcher_config={"no_such_knob": 1}),
                      priority="high")
    holder = None
    try:
        for kind, sent in (("bad_request", unregistered),
                           ("error", bad_config),
                           ("overloaded", payload(3)),
                           ("closed", payload(4))):
            if kind == "overloaded":
                holder = service.server.submit(
                    MappingRequest(problem, searcher="random", iterations=5,
                                   seed=5)
                )
            if kind == "closed":
                service.server.begin_drain()
            reply = service.handle(dict(sent, op="map"))
            assert (reply["ok"], reply["kind"]) == (False, kind)
            status, retry_after, body = _post(
                f"{shard_gateway.address}/v1/map", sent
            )
            assert status == HTTP_STATUS[kind]
            assert body["error"]
            if kind == "overloaded":
                assert reply["depth"] == 1
                assert reply["retry_after_s"] > 0
                assert retry_after == f"{max(1, round(reply['retry_after_s']))}"
                assert body["retry_after_s"] == reply["retry_after_s"]
            else:
                assert retry_after is None
            owner_pool.replies["map"] = reply
            failovers = router.counters["failovers"].value
            future = router.submit(routed)
            if kind == "closed":
                assert future.result(timeout=60).mapping is not None
                assert router.counters["failovers"].value == failovers + 1
            else:
                error = future.exception(timeout=60)
                assert failure_reply(error)["kind"] == kind
                if kind == "overloaded":
                    assert error.depth == reply["depth"]
                    assert error.retry_after_s == reply["retry_after_s"]
            status, routed_retry_after, body = _post(
                f"{router_gateway.address}/v1/map",
                {"request": request_to_dict(routed)},
            )
            assert status == (200 if kind == "closed" else HTTP_STATUS[kind])
            assert routed_retry_after == retry_after
            if kind == "overloaded":
                assert "(1 requests in flight)" in body["error"]
        assert len(backup_pool.calls) == 2  # the two closed-kind failovers
    finally:
        for gateway in (shard_gateway, router_gateway):
            gateway.shutdown()
            gateway.server_close()
        router._accepting = False
        router.shutdown(timeout=5.0)
        service.close()
    assert holder is not None and holder.result(timeout=30).mapping is not None


def test_fleet_of_draining_shards_answers_closed():
    """When every shard of a request's chain answers ``closed``, the router
    raises that ``ServerClosed`` and a gateway in front of it answers 503,
    as one in front of a draining server does; a chain where no shard
    answered at all still raises ``NoLiveShards``.  Both count as errors,
    so submitted = served + rejected + errors holds."""
    request = MappingRequest(make_conv1d("all_closed", w=32, r=5),
                             searcher="random", iterations=5, seed=0)
    draining = failure_reply(
        ServerClosed("server is draining; not accepting requests")
    )
    router = ClusterRouter(ClusterConfig(num_shards=2))
    pools = [_attach(router, shard_id, {"map": draining})
             for shard_id in range(2)]
    router._accepting = True
    gateway = start_gateway(router)
    counters = router.counters
    try:
        error = router.submit(request).exception(timeout=60)
        assert isinstance(error, ServerClosed)
        assert "draining" in str(error)
        status, retry_after, body = _post(
            f"{gateway.address}/v1/map", {"request": request_to_dict(request)}
        )
        assert status == HTTP_STATUS["closed"] == 503
        assert retry_after is None and "draining" in body["error"]
        assert [len(pool.calls) for pool in pools] == [2, 2]
        assert counters["errors"].value == 2
        for shard_id in range(2):
            _attach(router, shard_id, {"map": ConnectionError("shard died")})
        error = router.submit(request).exception(timeout=60)
        assert isinstance(error, NoLiveShards)
        assert counters["errors"].value == 3
        assert counters["submitted"].value == (
            counters["served"].value + counters["rejected"].value
            + counters["errors"].value
        )
    finally:
        gateway.shutdown()
        gateway.server_close()
        router._accepting = False
        router.shutdown(timeout=5.0)


_DRAINING = failure_reply(
    ServerClosed("server is draining; not accepting requests")
)


@pytest.mark.parametrize(
    "owner_reply, backup_reply, expected",
    [
        (_DRAINING, ConnectionError("shard died"), ServerClosed),
        (ConnectionError("shard died"), _DRAINING, ServerClosed),
        (_DRAINING, failure_reply(ValueError("boom")), RuntimeError),
        (_DRAINING, failure_reply(ServerOverloaded(0.5, 3)), ServerOverloaded),
    ],
    ids=["closed_then_dead", "dead_then_closed", "closed_then_error",
         "closed_then_overloaded"],
)
def test_chain_past_a_draining_shard_raises_what_answered(
    owner_reply, backup_reply, expected
):
    """A draining shard hands its request on down the chain.  A shard that
    does not answer leaves the fleet closed; any other failure the next
    shard answers is the request's failure.  Either way the request counts
    once, in ``errors``."""
    request = MappingRequest(make_conv1d("chain_kinds", w=32, r=5),
                             searcher="random", iterations=5, seed=0)
    router = ClusterRouter(ClusterConfig(num_shards=2))
    owner = router.shard_for(request)
    owner_pool = _attach(router, owner, {"map": owner_reply})
    backup_pool = _attach(router, 1 - owner, {"map": backup_reply})
    router._accepting = True
    counters = router.counters
    try:
        error = router.submit(request).exception(timeout=60)
        assert type(error) is expected
        if expected is ServerOverloaded:
            assert (error.retry_after_s, error.depth) == (0.5, 3)
        if expected is RuntimeError:
            assert str(error) == f"shard {1 - owner}: ValueError: boom"
        assert (len(owner_pool.calls), len(backup_pool.calls)) == (1, 1)
        assert (counters["submitted"].value, counters["served"].value,
                counters["errors"].value) == (1, 0, 1)
    finally:
        router._accepting = False
        router.shutdown(timeout=5.0)


def test_undecodable_shard_reply_counts_one_error():
    """An ``ok`` reply whose response does not decode fails the request and
    counts in ``errors`` only, so submitted = served + rejected + errors."""
    request = MappingRequest(make_conv1d("undecodable", w=32, r=5),
                             searcher="random", iterations=5, seed=0)
    router = ClusterRouter(ClusterConfig(num_shards=1))
    _attach(router, 0, {"map": {"ok": True, "response": {"tag": "x"}}})
    router._accepting = True
    counters = router.counters
    try:
        assert isinstance(router.submit(request).exception(timeout=60),
                          KeyError)
        assert (counters["submitted"].value, counters["served"].value,
                counters["errors"].value) == (1, 0, 1)
    finally:
        router._accepting = False
        router.shutdown(timeout=5.0)
