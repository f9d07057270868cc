#!/usr/bin/env python3
"""Tracing demo: follow one request through the serving stack span by span.

Drives the ``repro.obs`` layer the way an operator debugging tail latency
would:

1. serve a traced request (tracing is on by default) and read the
   ``trace_id`` + per-stage breakdown off the response,
2. fetch the span tree from the server and print it indented, with each
   span's duration — admission wait, batch wait, the search, its
   megabatch kernels, finalize,
3. show a duplicate request linking to its leader's trace instead of
   duplicating the compute spans,
4. render the live metrics as Prometheus text exposition and print the
   recent structured events.

Oracle-driven searchers only, so there is no Phase 1 training and the
demo runs in seconds.  Usage::

    python examples/tracing_demo.py
"""

from repro import MappingEngine, MappingRequest, problem_by_name
from repro.obs import render_prometheus
from repro.obs import events as obs_events
from repro.serve import MappingServer, ServeConfig


def print_tree(node, depth=0, max_children=8):
    span = node["span"]
    ended = span["end"] is not None
    took = (
        f"{(span['end'] - span['start']) * 1e3:8.2f}ms" if ended
        else "    open"
    )
    attrs = {
        key: value for key, value in span["attrs"].items()
        if key in ("lanes", "members", "follower", "cache_hit", "error")
    }
    extra = f"  {attrs}" if attrs else ""
    print(f"  {took}  {'  ' * depth}{span['name']}{extra}")
    children = node["children"]
    # A long search prices one megabatch.kernel per round; elide the
    # middle so the taxonomy stays readable.
    shown = (
        children if len(children) <= max_children
        else children[: max_children - 2] + children[-2:]
    )
    for index, child in enumerate(shown):
        if len(children) > max_children and index == max_children - 2:
            print(f"  {'':>10}  {'  ' * (depth + 1)}"
                  f"... {len(children) - max_children} more ...")
        print_tree(child, depth + 1, max_children)


def main() -> None:
    engine = MappingEngine()
    config = ServeConfig(max_batch=16, max_wait_s=0.05)
    with MappingServer(engine, config) as server:
        problem = problem_by_name("ResNet_Conv4")
        leader_future = server.submit(MappingRequest(
            problem, searcher="annealing", iterations=200, seed=17,
            tag="traced",
        ))
        # An identical request while the first is in flight: it collapses
        # onto the leader and its trace *links* to the leader's.
        dup_future = server.submit(MappingRequest(
            problem, searcher="annealing", iterations=200, seed=17,
            tag="dup",
        ))
        response = leader_future.result(timeout=300)
        duplicate = dup_future.result(timeout=300)

        print(f"request {response.tag!r} -> trace {response.trace_id}")
        print("stage breakdown (seconds):")
        for stage, seconds in sorted(response.stages.items()):
            print(f"  {stage:>18} {seconds:.6f}")

        snapshot = server.trace_snapshot(response.trace_id)
        print("\nspan tree:")
        for root in snapshot["tree"]:
            print_tree(root)

        dup_trace = server.trace_snapshot(duplicate.trace_id)
        print(f"\nduplicate {duplicate.tag!r} -> trace {duplicate.trace_id}")
        print(f"  links to leader trace(s): {dup_trace['links']}")
        print(f"  own stages: {dup_trace['stages']}")

        print("\nPrometheus exposition (first 12 lines):")
        for line in render_prometheus(
            server.metrics_snapshot()
        ).splitlines()[:12]:
            print(f"  {line}")

        events = obs_events.snapshot(limit=5)
        print(f"\nrecent events: "
              f"{[e['kind'] for e in events] or '(none this run)'}")


if __name__ == "__main__":
    main()
