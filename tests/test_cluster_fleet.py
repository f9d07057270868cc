"""Fleet views without processes: the router's pure merges fed hand-built
shard views, its one fan-out over fake pools, and the shard's view table."""

from __future__ import annotations

import os

import pytest

from repro.cluster.router import (
    ClusterConfig,
    ClusterRouter,
    merge_events,
    merge_health,
    merge_metrics,
    merge_profile,
    merge_slo,
)
from repro.cluster.shard import ShardService, ShardSpec
from repro.costmodel.accelerator import small_accelerator

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
    service = ShardService(ShardSpec(shard_id=5,
                                     accelerator=small_accelerator()))
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
