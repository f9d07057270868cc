"""HTTP gateway: smoke (the CI fast-lane serving check), observability
views, errors, backpressure."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest
from test_obs_propagation import _well_nested

from repro.costmodel.accelerator import small_accelerator
from repro.engine import EngineConfig, MappingEngine, MappingRequest, MappingResponse
from repro.obs.slo import SLOSpec
from repro.serve import MappingServer, ServeConfig, request_to_dict, start_gateway
from repro.workloads import make_conv1d

PROBLEM = make_conv1d("http_target", w=32, r=5)


def _post(url, payload, timeout=60):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as reply:
        return reply.status, json.loads(reply.read())


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as reply:
        return reply.status, json.loads(reply.read())


def _http_error(call, *args, **kwargs):
    """Run ``call``, which must fail with an HTTP error status; return
    ``(code, headers, body)`` with the error's response closed."""
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call(*args, **kwargs)
    with excinfo.value as error:
        return error.code, error.headers, error.read()


@pytest.fixture()
def stack():
    engine = MappingEngine(small_accelerator(), EngineConfig())
    server = MappingServer(
        engine, ServeConfig(max_batch=8, max_wait_s=0.01)
    )
    gateway = start_gateway(server)
    yield engine, server, gateway
    gateway.shutdown()
    gateway.server_close()
    server.shutdown(timeout=30.0)


class TestSmoke:
    def test_post_map_returns_valid_response(self, stack):
        """The fast-lane serving smoke: start server, POST one request,
        assert 200 + a response that decodes and matches solo serving."""
        engine, _server, gateway = stack
        request = MappingRequest(
            PROBLEM, searcher="random", iterations=15, seed=1, tag="smoke"
        )
        status, payload = _post(
            f"{gateway.address}/v1/map",
            {"request": request_to_dict(request), "include_trace": True},
        )
        assert status == 200
        response = MappingResponse.from_dict(payload["response"])
        assert response.tag == "smoke"
        solo = engine.map(request)
        assert response.mapping == solo.mapping
        assert response.stats.edp == solo.stats.edp
        assert response.result.objective_values == solo.result.objective_values
        _status, trace = _get(f"{gateway.address}/v1/trace/{response.trace_id}")
        assert _well_nested(trace)
        assert trace["stages"] == payload["response"]["stages"]

    def test_healthz_and_metrics(self, stack):
        _engine, _server, gateway = stack
        status, health = _get(f"{gateway.address}/healthz")
        assert status == 200 and health["status"] == "ok"
        request = MappingRequest(PROBLEM, searcher="random", iterations=10, seed=2)
        _post(f"{gateway.address}/v1/map", {"request": request_to_dict(request)})
        status, metrics = _get(f"{gateway.address}/v1/metrics")
        assert status == 200
        assert metrics["counters"]["served"] >= 1
        assert "buckets" in metrics["batch_size"]
        assert "p99_ms" in metrics["latency"]
        assert metrics["oracle_cache"]["hits"] >= 0
        with urllib.request.urlopen(
            f"{gateway.address}/v1/metrics?format=prom", timeout=10
        ) as reply:
            assert "repro_served_total " in reply.read().decode("utf-8")

    def test_high_priority_accepted(self, stack):
        _engine, _server, gateway = stack
        request = MappingRequest(PROBLEM, searcher="random", iterations=5, seed=3)
        status, _payload = _post(
            f"{gateway.address}/v1/map",
            {"request": request_to_dict(request), "priority": "high"},
        )
        assert status == 200


class TestObservabilityEndpoints:
    def _serve_one(self, gateway, seed=11):
        request = MappingRequest(
            PROBLEM, searcher="random", iterations=10, seed=seed, tag="obs"
        )
        _post(f"{gateway.address}/v1/map", {"request": request_to_dict(request)})

    def test_slo_snapshot_smoke(self, stack):
        _engine, _server, gateway = stack
        self._serve_one(gateway)
        status, snap = _get(f"{gateway.address}/v1/slo")
        assert status == 200
        assert snap["worst_state"] in ("ok", "warning", "page")
        names = {entry["name"] for entry in snap["slos"]}
        assert names  # the default SLO set is attached
        for entry in snap["slos"]:
            assert {"state", "burn_fast", "burn_slow",
                    "budget_remaining"} <= set(entry)

    def test_timeseries_projection_matches_counters(self, stack):
        _engine, _server, gateway = stack
        self._serve_one(gateway)
        status, snap = _get(
            f"{gateway.address}/v1/timeseries?metric=counters.served"
        )
        assert status == 200
        _status, metrics = _get(f"{gateway.address}/v1/metrics")
        total = sum(point["value"] for point in snap["series"])
        assert total == pytest.approx(metrics["counters"]["served"])

    def test_timeseries_bad_metric_is_400(self, stack):
        _engine, _server, gateway = stack
        self._serve_one(gateway)
        code, _headers, _body = _http_error(
            _get, f"{gateway.address}/v1/timeseries?metric=bogus.path"
        )
        assert code == 400
        code, _headers, _body = _http_error(
            _get, f"{gateway.address}/v1/timeseries?windows=soon"
        )
        assert code == 400

    def test_profile_reports_disabled_but_serves_hotspots(self, stack):
        _engine, _server, gateway = stack
        self._serve_one(gateway)
        status, snap = _get(f"{gateway.address}/v1/profile")
        assert status == 200
        assert snap["enabled"] is False  # profiling is opt-in
        assert "profiler" not in snap
        assert isinstance(snap["hotspots"], list) and snap["hotspots"]
        assert {"name", "problem", "self_s", "count"} <= set(snap["hotspots"][0])

    def test_unknown_event_kind_is_400_with_catalog(self, stack):
        from repro.obs.events import KNOWN_KINDS

        _engine, _server, gateway = stack
        code, _headers, raw = _http_error(
            _get, f"{gateway.address}/v1/events?kind=bogus"
        )
        assert code == 400
        body = json.loads(raw)
        assert "bogus" in body["error"]
        assert body["known_kinds"] == list(KNOWN_KINDS)

    def test_slo_burn_walk_events_and_profile(self):
        """Under a 100 ns objective every real search is bad and every
        response-cache hit good: cache hits, then real searches, walk the
        SLO ok -> warning -> page at /v1/slo; slo_warning precedes
        slo_page at /v1/events; /v1/profile's collapsed stacks catch the
        megabatch kernel."""
        spec = SLOSpec(
            name="burn_walk_latency", objective=0.9, threshold_s=1e-7,
            window_s=60.0, fast_window_s=0.5, slow_window_s=30.0,
            warning_burn=1.5, page_burn=5.0, clear_evals=3,
        )
        # A quiet background sampler: the /v1/slo reads drive every
        # evaluation, so the walk observed is the whole state path.
        server = MappingServer(
            MappingEngine(small_accelerator(), EngineConfig()),
            ServeConfig(max_batch=8, max_wait_s=0.01, slos=(spec,),
                        sample_interval_s=60.0, profiling=True,
                        profile_interval_s=0.002),
        )
        gateway = start_gateway(server)

        def serve(seed):
            request = MappingRequest(PROBLEM, searcher="random",
                                     iterations=10, seed=seed)
            _post(f"{gateway.address}/v1/map",
                  {"request": request_to_dict(request)})

        def slo_state():
            return _get(f"{gateway.address}/v1/slo")[1]["slos"][0]["state"]

        try:
            for _ in range(31):
                serve(seed=7)
            states = [slo_state()]
            for seed in range(100, 300):
                serve(seed)
                state = slo_state()
                if state != states[-1]:
                    states.append(state)
                if state == "page":
                    break
            assert states == ["ok", "warning", "page"]
            _status, body = _get(f"{gateway.address}/v1/events")
            seqs = {}
            for event in body["events"]:
                if event["fields"].get("slo") == spec.name:
                    seqs.setdefault(event["kind"], event["seq"])
            assert seqs["slo_warning"] < seqs["slo_page"]

            # The cross-problem kernel runs only when one batch spans
            # distinct problems, and sampling is statistical: retry.
            problems = (PROBLEM, make_conv1d("http_target_b", w=48, r=7))
            for attempt in range(20):
                futures = [
                    server.submit(MappingRequest(
                        problems[i % 2], searcher="random", iterations=400,
                        seed=1000 + 8 * attempt + i,
                    ))
                    for i in range(4)
                ]
                for future in futures:
                    future.result(timeout=120)
                _status, profile = _get(f"{gateway.address}/v1/profile?limit=200")
                stacks = [row["stack"] for row in profile["profiler"]["collapsed"]]
                if any("evaluate_megabatch" in stack for stack in stacks):
                    break
            else:
                pytest.fail("no collapsed stack reached evaluate_megabatch")
            assert "megabatch.kernel" in {row["name"] for row in profile["hotspots"]}
        finally:
            gateway.shutdown()
            gateway.server_close()
            server.shutdown(timeout=30.0)

    def test_known_event_kind_filters_cleanly(self, stack):
        _engine, _server, gateway = stack
        self._serve_one(gateway)
        status, body = _get(f"{gateway.address}/v1/events?kind=slo_page")
        assert status == 200
        assert body["events"] == []  # healthy server: nothing paged


class TestErrors:
    def test_invalid_json_is_400(self, stack):
        _engine, _server, gateway = stack
        request = urllib.request.Request(
            f"{gateway.address}/v1/map",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        code, _headers, _body = _http_error(
            urllib.request.urlopen, request, timeout=10
        )
        assert code == 400

    def test_missing_request_field_is_400(self, stack):
        _engine, _server, gateway = stack
        code, _headers, _body = _http_error(
            _post, f"{gateway.address}/v1/map", {"nope": 1}
        )
        assert code == 400

    def test_unknown_searcher_is_400(self, stack):
        _engine, _server, gateway = stack
        request = MappingRequest(PROBLEM, searcher="random", iterations=5, seed=0)
        payload = {"request": request_to_dict(request)}
        payload["request"]["searcher"] = "definitely-not-registered"
        code, _headers, body = _http_error(
            _post, f"{gateway.address}/v1/map", payload
        )
        assert code == 400
        assert "definitely-not-registered" in json.loads(body)["error"]

    def test_unknown_path_is_404(self, stack):
        _engine, _server, gateway = stack
        code, _headers, _body = _http_error(
            _get, f"{gateway.address}/v1/unknown"
        )
        assert code == 404

    def test_keep_alive_survives_early_reply_with_body(self, stack):
        """A 404'd POST must drain its body so the next request on the
        same persistent connection still parses."""
        import http.client

        _engine, _server, gateway = stack
        host, port = gateway.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            body = json.dumps({"request": {"junk": True}})
            connection.request("POST", "/nope", body=body,
                               headers={"Content-Type": "application/json"})
            first = connection.getresponse()
            assert first.status == 404
            first.read()
            # Same socket: framing must be intact.
            connection.request("GET", "/v1/healthz")
            second = connection.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["status"] == "ok"
        finally:
            connection.close()

    def test_overload_maps_to_429_with_retry_after(self):
        gate = threading.Event()

        def gated_runner(engine, requests):
            gate.wait(timeout=10.0)
            from repro.serve.cohort import serve_batch

            return serve_batch(engine, requests)

        engine = MappingEngine(small_accelerator(), EngineConfig())
        server = MappingServer(
            engine,
            ServeConfig(max_batch=1, max_wait_s=0.0, max_queue=1,
                        response_cache_size=0),
            runner=gated_runner,
        )
        gateway = start_gateway(server)
        try:
            first = MappingRequest(PROBLEM, searcher="random", iterations=5, seed=0)
            background = threading.Thread(
                target=lambda: _post(
                    f"{gateway.address}/v1/map",
                    {"request": request_to_dict(first)},
                ),
                daemon=True,
            )
            background.start()
            # Wait until the gated request occupies the whole queue ...
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and server.queue_depth < 1:
                time.sleep(0.01)
            assert server.queue_depth >= 1, "gated request never admitted"
            # ... then the next request must bounce with a retry hint.
            code, headers, body = _http_error(
                _post,
                f"{gateway.address}/v1/map",
                {"request": request_to_dict(
                    MappingRequest(PROBLEM, searcher="random",
                                   iterations=5, seed=1)
                )},
                timeout=10,
            )
            assert code == 429
            assert int(headers.get("Retry-After")) >= 1
            assert json.loads(body)["retry_after_s"] > 0
            _status, events = _get(f"{gateway.address}/v1/events?kind=overloaded")
            assert events["events"]
        finally:
            gate.set()
            background.join(timeout=30)
            gateway.shutdown()
            gateway.server_close()
            server.shutdown(timeout=30.0)
