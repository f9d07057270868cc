"""The request generators and the closed-loop load generator."""

import threading
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.serve.codec import request_key

from loop import run_closed_loop
from workloads import (
    HOT_BLOCK,
    HOT_REPEATS,
    HOT_SET_SIZE,
    PANEL,
    RequestStream,
    hot_set,
    is_hot_repeat,
)

LENGTH = 2 * 960 + 300  # crosses two block boundaries


def _signature(request):
    return (request_key(request), request.tag)


@pytest.mark.parametrize("kind", ["hot", "mm"])
def test_same_seed_same_requests_other_seed_other_requests(kind):
    first = RequestStream(kind, 5).prefix(LENGTH)
    again = RequestStream(kind, 5).prefix(LENGTH)
    other = RequestStream(kind, 6).prefix(LENGTH)
    assert [_signature(r) for r in first] == [_signature(r) for r in again]
    # Only the fixed quality panel (and the fixed hot set a hot-mix
    # repeat draws from) is shared between seeds.
    panel = PANEL[kind]
    assert [_signature(r) for r in first[:panel]] == [
        _signature(r) for r in other[:panel]
    ]
    for a, b in zip(first[panel:], other[panel:]):
        if not (is_hot_repeat(a) and is_hot_repeat(b)):
            assert _signature(a) != _signature(b)
    assert [_signature(r) for r in first] != [_signature(r) for r in other]


def test_hot_mix_repeat_share_and_hot_set_are_exact():
    hot = hot_set()
    hot_keys = {request_key(r) for r in hot}
    assert len(hot) == len(hot_keys) == HOT_SET_SIZE
    requests = RequestStream("hot", 9).prefix(LENGTH)
    for start in range(0, LENGTH - HOT_BLOCK + 1, HOT_BLOCK):
        group = requests[start:start + HOT_BLOCK]
        assert sum(is_hot_repeat(r) for r in group) == HOT_REPEATS
    repeats = [r for r in requests if is_hot_repeat(r)]
    fresh = [r for r in requests if not is_hot_repeat(r)]
    assert {request_key(r) for r in repeats} <= hot_keys
    assert len(fresh) * HOT_REPEATS == len(repeats)
    assert len({request_key(r) for r in fresh}) == len(fresh)
    assert not {request_key(r) for r in fresh} & hot_keys


def test_hot_repeats_follow_zipf_rank():
    requests = RequestStream("hot", 4).prefix(20 * 960)
    counts = [0] * HOT_SET_SIZE
    index = {request_key(r): i for i, r in enumerate(hot_set())}
    for request in requests:
        if is_hot_repeat(request):
            counts[index[request_key(request)]] += 1
    # Rank 1 is drawn about twice as often as rank 2 and 48x rank 48.
    assert counts[0] > 1.6 * counts[1]
    assert counts[0] > 20 * counts[-1] > 0


def test_fresh_requests_never_repeat_and_are_balanced():
    """The all-distinct fifth: no request_key twice, the fixed panel's
    included, and each round of 30 covers all 30 pairs once."""
    requests = RequestStream("hot", 3).prefix(5 * 960)
    keys = [request_key(r) for r in requests if not is_hot_repeat(r)]
    assert None not in keys
    assert len(set(keys)) == len(keys)
    # Rounds restart with every block of 960 requests (192 fresh ones).
    block = [r for r in RequestStream("hot", 3, "warm").prefix(960)
             if not is_hot_repeat(r)]
    for start in range(0, len(block) - 29, 30):
        window = block[start:start + 30]
        assert len({(r.problem.name, r.searcher) for r in window}) == 30


def test_generator_uses_one_thread_and_keeps_k_in_flight():
    """submit is only ever called from the caller's thread, the loop starts
    no thread of its own, and never more than K requests are in flight."""
    caller = threading.get_ident()
    submit_threads = set()
    in_flight = []
    peak = [0]
    lock = threading.Lock()
    stream = RequestStream("hot", 1).prefix(400)
    server = ThreadPoolExecutor(max_workers=2)

    def serve(request):
        with lock:
            in_flight.remove(request.tag)
        return request

    def submit(request):
        submit_threads.add(threading.get_ident())
        with lock:
            in_flight.append(request.tag)
            peak[0] = max(peak[0], len(in_flight))
        if request.seed % 3 == 0:  # a "cache hit" resolved inside submit
            future = Future()
            with lock:
                in_flight.remove(request.tag)
            future.set_result(request)
            return future
        return server.submit(serve, request)

    before = threading.active_count()
    try:
        phase = run_closed_loop(submit, stream, concurrency=8, seconds=0.0,
                                min_requests=300)
    finally:
        server.shutdown(wait=True)
    assert submit_threads == {caller}
    assert peak[0] <= 8
    assert len(phase.outcomes) == 300
    assert phase.failed == 0
    assert all(o.done >= o.submitted for o in phase.outcomes)
    assert threading.active_count() <= before + 2  # only the fake server's


def test_rejections_and_failed_futures_count_as_failures():
    stream = RequestStream("mm", 1).prefix(20)

    def submit(request):
        future = Future()
        if request.tag.endswith("3"):
            raise RuntimeError("overloaded")
        if request.tag.endswith("5"):
            future.set_exception(ValueError("search failed"))
        else:
            future.set_result(request)
        return future

    phase = run_closed_loop(submit, stream, concurrency=4, seconds=0.0,
                            min_requests=20)
    assert len(phase.outcomes) == 20
    assert phase.failed == 4  # tags .../3, .../13, .../5, .../15
