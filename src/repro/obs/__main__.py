"""Observability entry point: ``python -m repro.obs --selftest`` is the
CI smoke gate for tracing + telemetry.

Part 1 drives one traced request through a real HTTP gateway and checks
the contract end to end: the response carries a ``trace_id``, ``GET
/v1/trace/<id>`` returns a complete well-nested span tree whose stage
breakdown sums (within slack) to the root span's wall time, ``GET
/v1/metrics?format=prom`` renders Prometheus text exposition, and
flooding a ``max_queue=1`` server surfaces ``overloaded`` events at
``GET /v1/events``.

Part 2 brings up a real 2-shard cluster (separate processes, socket
RPC) and checks cross-process propagation: a routed request's merged
tree nests ``cluster.request`` -> ``shard.rpc`` -> ``serve.request`` ->
``search`` -> ``megabatch.kernel``, with the shard's spans carrying
the shard process's pid.  It then skews all traffic onto one shard under
an unmeetable latency SLO and checks the fleet ``/v1/slo`` view (through
a real gateway) attributes the burn to exactly that shard, with the
shard annotated in ``health_snapshot()``.

Part 3 is the SLO/time-series/profiler gate on a single server behind a
real gateway: good traffic (response-cache hits) followed by a stream of
threshold-breaching requests must drive the burn-rate state machine
``ok -> warning -> page`` with matching ``slo_warning``/``slo_page``
events at ``/v1/events``; ``/v1/timeseries`` per-window counter deltas
must sum to the cumulative counters; ``/v1/profile`` collapsed stacks
must contain the megabatch kernel frame; and an unknown ``?kind=`` must
be a 400 carrying the ``KNOWN_KINDS`` catalog.

``python -m repro.obs --profile`` runs a seeded workload under the
sampling profiler and prints the top-k span hotspots plus collapsed
stacks (flamegraph-ready).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.error
import urllib.request

from repro.costmodel.accelerator import small_accelerator
from repro.engine.engine import EngineConfig, MappingEngine, MappingRequest
from repro.obs.events import KNOWN_KINDS
from repro.obs.slo import SLOSpec
from repro.serve.codec import request_to_dict
from repro.serve.http import start_gateway
from repro.serve.server import MappingServer, ServeConfig, ServerOverloaded
from repro.utils.smoke import check as _check, get_json as _get, post_json as _post
from repro.workloads.conv1d import make_conv1d


def _get_text(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as reply:
        return reply.read().decode("utf-8")


def _assert_well_nested(snapshot: dict) -> None:
    """Every non-root span's parent exists; same-pid children sit inside
    their parent's interval (cross-pid clocks are not comparable)."""
    spans = {s["span_id"]: s for s in snapshot["spans"]}
    for s in snapshot["spans"]:
        parent_id = s["parent_id"]
        if parent_id is None:
            continue
        _check(parent_id in spans, f"orphan span {s['name']}")
        parent = spans[parent_id]
        if parent["pid"] != s["pid"]:
            continue
        _check(s["start"] >= parent["start"] - 1e-9,
               f"span {s['name']} starts before its parent")
        if s["end"] is not None and parent["end"] is not None:
            _check(s["end"] <= parent["end"] + 1e-9,
                   f"span {s['name']} outlives its parent")


def _tree_path(node: dict, names: list) -> bool:
    """True when some root-to-leaf walk visits ``names`` in order (gaps
    allowed: intermediate spans may sit between the named ones)."""
    if not names:
        return True
    remaining = names[1:] if node["span"]["name"] == names[0] else names
    if not remaining:
        return True
    return any(_tree_path(child, remaining) for child in node["children"])


def _selftest_server(say) -> None:
    engine = MappingEngine(small_accelerator(), EngineConfig())
    problem = make_conv1d("obs_selftest", w=32, r=5)
    server = MappingServer(
        engine, ServeConfig(max_batch=8, max_wait_s=0.02)
    )
    gateway = start_gateway(server)
    say(f"gateway listening at {gateway.address}")
    try:
        request = MappingRequest(
            problem, searcher="random", iterations=40, seed=1, tag="traced"
        )
        reply = _post(
            f"{gateway.address}/v1/map", {"request": request_to_dict(request)}
        )
        response = reply["response"]
        trace_id = response.get("trace_id", "")
        _check(bool(trace_id), "served response carries no trace_id")

        trace = _get(f"{gateway.address}/v1/trace/{trace_id}")
        names = [s["name"] for s in trace["spans"]]
        _check(names[0] == "serve.request", f"root span is {names[0]}")
        for expected in ("admission", "megabatch.kernel", "finalize"):
            _check(expected in names, f"no {expected} span in {names}")
        _assert_well_nested(trace)
        root = trace["spans"][0]
        wall = root["end"] - root["start"]
        total = sum(trace["stages"].values())
        slack = max(0.25 * wall, 0.05)
        _check(abs(total - wall) <= slack,
               f"stage sum {total:.4f}s vs root wall {wall:.4f}s "
               f"(slack {slack:.4f}s)")
        _check(trace["stages"] == response["stages"],
               "trace stages != response stages")
        say(f"traced request: {len(names)} spans, well nested; "
            f"stages sum {total * 1e3:.1f}ms vs wall {wall * 1e3:.1f}ms")

        prom_text = _get_text(f"{gateway.address}/v1/metrics?format=prom")
        _check("# TYPE repro_served_total counter" in prom_text,
               "prometheus exposition missing repro_served_total TYPE line")
        _check("repro_served_total 1" in prom_text,
               "repro_served_total sample not rendered")
        say("prometheus exposition renders "
            f"({len(prom_text.splitlines())} lines)")

        # Flood a max_queue=1 server (its runner parked on an event) until
        # admission rejects; the rejection must surface as an event.
        release = threading.Event()

        def parked_runner(engine_, requests):
            release.wait(timeout=30)
            from repro.serve.cohort import serve_batch
            return serve_batch(engine_, requests)

        tiny = MappingServer(
            engine,
            ServeConfig(max_batch=1, max_wait_s=0.0, max_queue=1, workers=1,
                        collapse_duplicates=False, response_cache_size=0),
            runner=parked_runner,
        )
        rejections = 0
        futures = []
        try:
            for seed in range(8):
                probe = MappingRequest(
                    problem, searcher="random", iterations=10, seed=seed,
                    tag=f"flood/{seed}",
                )
                try:
                    futures.append(tiny.submit(probe))
                except ServerOverloaded:
                    rejections += 1
        finally:
            release.set()
            tiny.shutdown(timeout=30.0)
        _check(rejections >= 1, "flood produced no ServerOverloaded")
        events = _get(f"{gateway.address}/v1/events?kind=overloaded")
        _check(len(events["events"]) >= rejections,
               f"{rejections} rejections but "
               f"{len(events['events'])} overloaded events")
        say(f"backpressure: {rejections} rejections surfaced at /v1/events")
    finally:
        gateway.shutdown()
        gateway.server_close()
        _check(server.shutdown(timeout=30.0), "drain timed out")


def _selftest_cluster(say) -> None:
    from repro.cluster.router import ClusterConfig, ClusterRouter

    # Every shard runs under an unmeetable latency objective (100ns) so
    # the shard that receives traffic burns its budget immediately; the
    # idle shard must stay ``ok`` — that asymmetry is the attribution
    # the fleet /v1/slo view has to get right.
    burn_spec = SLOSpec(
        name="shard_latency",
        kind="latency",
        objective=0.9,
        threshold_s=1e-7,
        window_s=60.0,
        fast_window_s=1.0,
        slow_window_s=10.0,
        warning_burn=1.5,
        page_burn=5.0,
        clear_evals=5,
    )
    config = ClusterConfig(
        num_shards=2,
        accelerator=small_accelerator(),
        engine=EngineConfig(),
        serve=ServeConfig(max_batch=8, max_wait_s=0.02,
                          slos=(burn_spec,), sample_interval_s=0.2),
        health_interval_s=0.2,
    )
    router = ClusterRouter(config)
    spawn_started = time.perf_counter()  # repro: ignore[RPR105] -- CLI progress timing, not traced state
    router.start()
    say(f"2 shards up in {time.perf_counter() - spawn_started:.1f}s")  # repro: ignore[RPR105] -- CLI progress timing, not traced state
    try:
        problem = make_conv1d("obs_selftest_cluster", w=24, r=3)
        request = MappingRequest(
            problem, searcher="random", iterations=40, seed=2, tag="routed"
        )
        response = router.submit(request).result(timeout=120)
        _check(bool(response.trace_id), "routed response carries no trace_id")
        _check("router_overhead_s" in response.stages,
               "merged stages miss router_overhead_s")
        _check("kernel_s" in response.stages,
               "shard stages (kernel_s) did not propagate to the router")

        trace = router.trace_snapshot(response.trace_id)
        _check(trace is not None, "router kept no trace for the response")
        _assert_well_nested(trace)
        [tree] = trace["tree"]
        _check(
            _tree_path(tree, ["cluster.request", "shard.rpc",
                              "serve.request", "search",
                              "megabatch.kernel"]),
            "merged tree does not nest cluster.request -> shard.rpc -> "
            "serve.request -> search -> megabatch.kernel",
        )
        pids = {s["pid"] for s in trace["spans"]}
        _check(len(pids) == 2,
               f"expected router + shard pids in one tree, got {pids}")
        say(f"routed trace merged across {len(pids)} processes: "
            f"{len(trace['spans'])} spans nest "
            "cluster.request -> shard.rpc -> serve.request -> "
            "search -> megabatch.kernel")

        kinds = {e["kind"] for e in router.events_snapshot()}
        say(f"fleet event log reachable ({sorted(kinds) or 'empty'})")

        # Fleet SLO attribution: drive more traffic at the same problem
        # (consistent hashing pins it to one shard) and read the fleet
        # /v1/slo view through a real gateway until the burn is pinned on
        # exactly that shard.
        target = str(router.shard_for(request))
        gateway = start_gateway(router)
        try:
            snap: dict = {}
            for attempt in range(30):
                probe = MappingRequest(
                    problem, searcher="random", iterations=20,
                    seed=50 + attempt, tag=f"burn/{attempt}",
                )
                router.submit(probe).result(timeout=120)
                snap = _get(f"{gateway.address}/v1/slo")
                if target in snap["fleet"]["burning_shards"]:
                    break
            _check(snap["fleet"]["burning_shards"] == [target],
                   f"burn attributed to {snap['fleet']['burning_shards']}, "
                   f"expected exactly [{target!r}]")
            per_shard = snap["fleet"]["by_slo"]["shard_latency"]["per_shard"]
            _check(per_shard.get(target) in ("warning", "page"),
                   f"offending shard {target} reads {per_shard.get(target)}")
            _check(all(state == "ok" for shard_id, state in per_shard.items()
                       if shard_id != target),
                   f"idle shard not ok: {per_shard}")
            _check(snap["worst_state"] != "ok",
                   "fleet worst_state ignores a burning shard")
            health = _get(f"{gateway.address}/v1/healthz")
            _check(target in health["slo"]["burning_shards"],
                   "health snapshot does not annotate the burning shard")
            fleet_kinds = {e["kind"] for e in router.events_snapshot()}
            _check({"slo_warning", "slo_page"} & fleet_kinds,
                   f"no SLO transition events in the fleet log ({fleet_kinds})")
            say(f"fleet /v1/slo pins the burn on shard {target} "
                f"(state {per_shard.get(target)}); idle shard stays ok; "
                "healthz carries the burning-shard annotation")
        finally:
            gateway.shutdown()
            gateway.server_close()
    except BaseException:
        router.shutdown(timeout=10)
        raise
    _check(router.shutdown(timeout=60), "cluster drain timed out")


def _selftest_slo(say) -> None:
    """Part 3: the SLO + time-series + profiler contract on one server."""
    engine = MappingEngine(small_accelerator(), EngineConfig())
    problem = make_conv1d("obs_selftest_slo", w=32, r=5)
    # An unmeetable 100ns objective: every real search is a bad event,
    # while response-cache hits observe 0.0s and count as good — that
    # asymmetry lets the test shape the bad fraction precisely.
    spec = SLOSpec(
        name="selftest_latency",
        kind="latency",
        objective=0.9,
        threshold_s=1e-7,
        window_s=60.0,
        fast_window_s=0.5,
        slow_window_s=30.0,
        warning_burn=1.5,
        page_burn=5.0,
        clear_evals=3,
    )
    server = MappingServer(
        engine,
        ServeConfig(
            max_batch=8,
            max_wait_s=0.01,
            slos=(spec,),
            timeseries_interval_s=0.25,
            timeseries_capacity=1024,
            # Quiet the background sampler: every evaluation below is
            # driven by a /v1/slo or /v1/timeseries read, so the state
            # path the test observes is the complete state path.
            sample_interval_s=60.0,
            profiling=True,
            profile_interval_s=0.002,
        ),
    )
    gateway = start_gateway(server)
    say(f"slo gateway listening at {gateway.address}")
    try:
        # Phase 1 — good traffic.  One real request (bad), then identical
        # re-submissions served from the response cache at 0.0s observed
        # latency (good): the slow window starts ~97% good.
        leader = MappingRequest(
            problem, searcher="random", iterations=10, seed=7, tag="slo/good"
        )
        payload = {"request": request_to_dict(leader)}
        for _ in range(31):
            _post(f"{gateway.address}/v1/map", payload)
        snap = _get(f"{gateway.address}/v1/slo")
        entry = snap["slos"][0]
        _check(entry["name"] == spec.name, f"unexpected SLO {entry['name']}")
        _check(entry["state"] == "ok",
               f"expected ok after good traffic, got {entry['state']}")

        # Phase 2 — sustained breach.  Distinct seeds defeat the cache,
        # so every request is a real (bad) search; evaluating after each
        # one walks the slow-window bad fraction up smoothly, and the
        # state machine must pass through warning on its way to page.
        states_seen = ["ok"]
        for seed in range(200):
            bad = MappingRequest(
                problem, searcher="random", iterations=10,
                seed=100 + seed, tag=f"slo/bad/{seed}",
            )
            _post(f"{gateway.address}/v1/map",
                  {"request": request_to_dict(bad)})
            snap = _get(f"{gateway.address}/v1/slo")
            state = snap["slos"][0]["state"]
            if state != states_seen[-1]:
                states_seen.append(state)
            if state == "page":
                break
        _check(states_seen == ["ok", "warning", "page"],
               f"alert state path {states_seen} != ['ok', 'warning', 'page']")
        _check(snap["slos"][0]["budget_remaining"] < 1.0,
               "page state with an unspent error budget")
        say(f"burn-rate state machine walked {' -> '.join(states_seen)} "
            f"(budget remaining {snap['slos'][0]['budget_remaining']:.3f})")

        # The transitions must be in the event ring, in order.
        events = _get(f"{gateway.address}/v1/events")["events"]
        seqs = {}
        for event in events:
            if event["kind"].startswith("slo_") \
                    and event["fields"].get("slo") == spec.name:
                seqs.setdefault(event["kind"], event["seq"])
        _check("slo_warning" in seqs and "slo_page" in seqs,
               f"missing SLO transition events (got {sorted(seqs)})")
        _check(seqs["slo_warning"] < seqs["slo_page"],
               f"slo_warning (seq {seqs['slo_warning']}) did not precede "
               f"slo_page (seq {seqs['slo_page']})")
        say("slo_warning and slo_page events landed in /v1/events in order")

        # Time-series consistency: the per-window "served" deltas are
        # non-cumulative, so they must sum back to the cumulative counter.
        series = _get(
            f"{gateway.address}/v1/timeseries?metric=counters.served"
        )["series"]
        _check(len(series) >= 2,
               f"expected multiple windows, got {len(series)}")
        summed = sum(point["value"] for point in series)
        metrics = _get(f"{gateway.address}/v1/metrics")
        served = metrics["counters"]["served"]
        _check(abs(summed - served) < 1e-9,
               f"window deltas sum to {summed}, cumulative served {served}")
        say(f"/v1/timeseries window deltas over {len(series)} windows "
            f"sum to the cumulative counter ({served})")

        # Contract checks: unknown event kinds and metric paths are 400s.
        try:
            _get(f"{gateway.address}/v1/events?kind=bogus")
        except urllib.error.HTTPError as error:
            _check(error.code == 400, f"unknown kind gave {error.code}")
            body = json.loads(error.read())
            _check(body["known_kinds"] == list(KNOWN_KINDS),
                   "400 body does not carry the KNOWN_KINDS catalog")
        else:
            _check(False, "unknown event kind was not rejected")
        try:
            _get(f"{gateway.address}/v1/timeseries?metric=bogus.path")
        except urllib.error.HTTPError as error:
            _check(error.code == 400, f"unknown metric gave {error.code}")
        else:
            _check(False, "unknown metric path was not rejected")
        say("unknown ?kind= and ?metric= reject as 400 with the catalog")

        # Profiler: the cross-problem megabatch kernel only runs when one
        # flushed batch spans distinct problems, so submit concurrent
        # heavy requests over two problems and retry until the sampler
        # catches ``evaluate_megabatch`` in a collapsed stack
        # (statistically guaranteed, not per-sample deterministic).
        problems = (problem, make_conv1d("obs_selftest_slo_b", w=48, r=7))
        found = False
        for attempt in range(20):
            futures = [
                server.submit(MappingRequest(
                    problems[i % 2], searcher="random", iterations=400,
                    seed=1000 + attempt * 8 + i,
                    tag=f"slo/heavy/{attempt}/{i}",
                ))
                for i in range(4)
            ]
            for future in futures:
                future.result(timeout=300)
            profile = _get(f"{gateway.address}/v1/profile?limit=200")
            _check(profile["enabled"], "profiling enabled but not reported")
            stacks = [row["stack"] for row in profile["profiler"]["collapsed"]]
            if any("evaluate_megabatch" in stack for stack in stacks):
                found = True
                break
        _check(found, "megabatch kernel frame never appeared in "
                      "collapsed stacks")
        hotspot_names = {row["name"] for row in profile["hotspots"]}
        _check("megabatch.kernel" in hotspot_names,
               f"span hotspots miss megabatch.kernel ({hotspot_names})")
        _check(profile["profiler"]["samples"] > 0, "profiler took no samples")
        say(f"profiler caught evaluate_megabatch after {attempt + 1} "
            f"round(s) ({profile['profiler']['samples']} samples, "
            f"{profile['profiler']['distinct_stacks']} distinct stacks)")
    finally:
        gateway.shutdown()
        gateway.server_close()
        _check(server.shutdown(timeout=30.0), "slo server drain timed out")


def selftest(verbose: bool = True) -> int:
    started = time.perf_counter()  # repro: ignore[RPR105] -- CLI progress timing, not traced state

    def say(message: str) -> None:
        if verbose:
            print(f"[obs-selftest] {message}")

    _selftest_server(say)
    _selftest_cluster(say)
    _selftest_slo(say)
    say(f"PASS in {time.perf_counter() - started:.1f}s")  # repro: ignore[RPR105] -- CLI progress timing, not traced state
    return 0


def run_profile(requests: int = 6, iterations: int = 300,
                top: int = 20) -> int:
    """``--profile``: run a seeded workload under the sampling profiler
    and print the span hotspot table + collapsed stacks."""
    engine = MappingEngine(small_accelerator(), EngineConfig())
    # Two problems so concurrent batches exercise the cross-problem
    # megabatch kernel, which is exactly the frame worth profiling.
    problems = (make_conv1d("profile_demo_a", w=32, r=5),
                make_conv1d("profile_demo_b", w=48, r=7))
    server = MappingServer(
        engine,
        ServeConfig(max_batch=8, max_wait_s=0.01,
                    profiling=True, profile_interval_s=0.002),
    )
    try:
        futures = [
            server.submit(MappingRequest(
                problems[seed % 2], searcher="random", iterations=iterations,
                seed=seed, tag=f"profile/{seed}",
            ))
            for seed in range(max(requests, 1))
        ]
        for future in futures:
            future.result(timeout=300)
        snapshot = server.profile_snapshot(limit=top)
    finally:
        server.shutdown(timeout=30.0)
    profiler = snapshot.get("profiler", {})
    print(f"# sampling profiler: {profiler.get('samples', 0)} samples, "
          f"{profiler.get('distinct_stacks', 0)} distinct stacks "
          f"(interval {profiler.get('interval_s', 0.0) * 1e3:.1f}ms)")
    print("#")
    print(f"# top {top} span hotspots by self time")
    print(f"# {'self_s':>10}  {'count':>6}  name (problem)")
    for row in snapshot.get("hotspots", []):
        suffix = f" ({row['problem']})" if row.get("problem") else ""
        print(f"  {row['self_s']:>10.4f}  {row['count']:>6}  "
              f"{row['name']}{suffix}")
    print("#")
    print("# collapsed stacks (flamegraph.pl-compatible)")
    for row in profiler.get("collapsed", []):
        print(f"{row['stack']} {row['count']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Tracing + telemetry selftest for the serving stack.",
    )
    parser.add_argument("--selftest", action="store_true",
                        help="run the end-to-end tracing smoke test (CI gate)")
    parser.add_argument("--profile", action="store_true",
                        help="profile a seeded workload; print hotspot "
                             "tables + collapsed stacks")
    parser.add_argument("--requests", type=int, default=6,
                        help="--profile: number of requests to serve")
    parser.add_argument("--iterations", type=int, default=300,
                        help="--profile: search iterations per request")
    parser.add_argument("--top", type=int, default=20,
                        help="--profile: rows in the hotspot/stack tables")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    args = parser.parse_args(argv)
    if args.profile:
        return run_profile(requests=args.requests,
                           iterations=args.iterations, top=args.top)
    if not args.selftest:
        parser.print_help()
        return 2
    return selftest(verbose=not args.quiet)


if __name__ == "__main__":
    sys.exit(main())
