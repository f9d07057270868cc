#!/usr/bin/env python3
"""SLO demo: watch an error budget burn down and a page fire.

Drives the ``repro.obs`` SLO engine the way an on-call operator would
see it:

1. declare a latency SLO (90% of requests under 5ms) with multi-window
   burn-rate alerting,
2. serve healthy traffic (response-cache hits are effectively free) and
   show the tracker reporting ``ok`` with a full error budget,
3. switch to distinct, genuinely expensive requests so the budget burns
   and the alert walks ok -> warning -> page, printing each transition
   event as it lands in the catalogued event ring,
4. print the collapsed stacks the continuous sampling profiler gathered
   while the burn was running, plus the span-derived self-time hotspots.

Oracle-driven searchers only, so the demo runs in seconds.  Usage::

    python examples/slo_demo.py
"""

from repro import MappingEngine, MappingRequest, problem_by_name
from repro.obs import events as obs_events
from repro.obs.slo import SLOSpec
from repro.serve import MappingServer, ServeConfig

#: 90% of requests under 5ms.  Warning when we burn budget 1.5x too
#: fast in *both* the fast and slow windows; page at 5x.  Real searches
#: take tens of ms, so distinct requests are all "bad" — cache-hit
#: replays are ~0s and count as "good".
DEMO_SLO = SLOSpec(
    name="demo_latency", kind="latency", objective=0.9, threshold_s=0.005,
    window_s=60.0, fast_window_s=0.5, slow_window_s=20.0,
    warning_burn=1.5, page_burn=5.0, clear_evals=3,
)


def describe(snapshot) -> str:
    [entry] = [e for e in snapshot["slos"] if e["name"] == DEMO_SLO.name]
    return (
        f"state={entry['state']:<8} burn_fast={entry['burn_fast']:6.2f}  "
        f"burn_slow={entry['burn_slow']:6.2f}  "
        f"budget={entry['budget_remaining']:5.1%}"
    )


def main() -> None:
    engine = MappingEngine()
    config = ServeConfig(
        max_batch=8, max_wait_s=0.01, slos=(DEMO_SLO,),
        timeseries_interval_s=0.25, profiling=True,
    )
    problem = problem_by_name("ResNet_Conv4")
    with MappingServer(engine, config) as server:
        print("== healthy traffic (identical request -> cache hits) ==")
        warm = MappingRequest(problem, searcher="random", iterations=40,
                              seed=7, tag="demo/healthy")
        for _ in range(30):
            server.submit(warm).result(timeout=60)
        print(describe(server.slo_snapshot()))

        print("\n== burn: distinct requests, every one over threshold ==")
        seen = {"ok"}
        for seed in range(200):
            request = MappingRequest(problem, searcher="random",
                                     iterations=40, seed=100 + seed,
                                     tag=f"demo/burn/{seed}")
            server.submit(request).result(timeout=60)
            snapshot = server.slo_snapshot()
            [entry] = [e for e in snapshot["slos"]
                       if e["name"] == DEMO_SLO.name]
            if entry["state"] not in seen:
                seen.add(entry["state"])
                print(f"after {seed + 1:3d} slow requests: "
                      f"{describe(snapshot)}")
            if entry["state"] == "page":
                break

        print("\n== alert transitions (catalogued events) ==")
        for event in obs_events.default_log().snapshot():
            if event["kind"].startswith("slo_"):
                fields = event["fields"]
                print(f"  {event['kind']:<13} "
                      f"{fields['from_state']} -> {fields['to_state']} "
                      f"(burn_fast={fields['burn_fast']:.1f})")

        print("\n== sampling profiler: top collapsed stacks ==")
        profile = server.profile_snapshot(limit=5)
        profiler = profile["profiler"]
        print(f"  {profiler['samples']} samples at "
              f"{profiler['interval_s'] * 1e3:.0f}ms cadence")
        for row in profiler["collapsed"]:
            leaf = row["stack"].rsplit(";", 2)
            print(f"  {row['count']:5d}x ...;{';'.join(leaf[-2:])}")

        print("\n== span-derived self-time hotspots ==")
        for row in profile["hotspots"][:5]:
            print(f"  {row['self_s']:8.3f}s  {row['count']:5d}x  "
                  f"{row['name']}")


if __name__ == "__main__":
    main()
