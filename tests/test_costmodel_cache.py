"""CachedOracle: correctness vs. the uncached model, counters, eviction."""

import pytest

from repro.costmodel import CachedOracle, CostModel


@pytest.fixture()
def sampled(cnn_space):
    return cnn_space.sample_many(8, seed=3)


class TestCorrectness:
    def test_edp_matches_uncached_model(self, cost_model, cnn_problem, sampled):
        oracle = CachedOracle(cost_model)
        for mapping in sampled:
            expected = cost_model.evaluate_edp(mapping, cnn_problem)
            assert oracle.evaluate_edp(mapping, cnn_problem) == expected
            # Second query must be identical (and served from cache).
            assert oracle.evaluate_edp(mapping, cnn_problem) == expected

    def test_stats_match_uncached_model(self, cost_model, cnn_problem, sampled):
        oracle = CachedOracle(cost_model)
        mapping = sampled[0]
        stats = oracle.evaluate(mapping, cnn_problem)
        expected = cost_model.evaluate(mapping, cnn_problem)
        assert stats.edp == expected.edp
        assert stats.total_energy_pj == expected.total_energy_pj
        assert stats.cycles == expected.cycles

    def test_edp_served_from_stats_entry(self, cost_model, cnn_problem, sampled):
        """A full evaluate() also answers later evaluate_edp() queries."""
        oracle = CachedOracle(cost_model)
        mapping = sampled[0]
        stats = oracle.evaluate(mapping, cnn_problem)
        assert oracle.evaluate_edp(mapping, cnn_problem) == stats.edp
        snapshot = oracle.stats()
        assert snapshot.misses == 1
        assert snapshot.hits == 1

    def test_problems_differing_only_in_ops_not_conflated(self, tiny_accelerator):
        """Same name/algorithm/dims but different ops_per_point must not
        share cache entries — their true costs differ."""
        import dataclasses

        from repro.mapspace import MapSpace
        from repro.workloads import make_conv1d

        base = make_conv1d("same_name", w=32, r=5)
        heavier = dataclasses.replace(base, ops_per_point=7)
        oracle = CachedOracle(CostModel(tiny_accelerator))
        mapping = MapSpace(base, tiny_accelerator).sample(0)
        first = oracle.evaluate_edp(mapping, base)
        second = oracle.evaluate_edp(mapping, heavier)
        assert first != second
        assert second == CostModel(tiny_accelerator).evaluate_edp(mapping, heavier)
        assert oracle.stats().misses == 2

    def test_distinct_problems_not_conflated(self, tiny_accelerator):
        from repro.mapspace import MapSpace
        from repro.workloads import make_conv1d

        a = make_conv1d("cache_a", w=32, r=5)
        b = make_conv1d("cache_b", w=40, r=5)
        oracle = CachedOracle(CostModel(tiny_accelerator))
        oracle.evaluate_edp(MapSpace(a, tiny_accelerator).sample(0), a)
        assert oracle.stats().misses == 1
        oracle.evaluate_edp(MapSpace(b, tiny_accelerator).sample(0), b)
        assert oracle.stats().misses == 2


class TestCounters:
    def test_hit_miss_accounting(self, cost_model, cnn_problem, sampled):
        oracle = CachedOracle(cost_model)
        for mapping in sampled:
            oracle.evaluate_edp(mapping, cnn_problem)
        for mapping in sampled:
            oracle.evaluate_edp(mapping, cnn_problem)
        snapshot = oracle.stats()
        assert snapshot.misses == len(sampled)
        assert snapshot.hits == len(sampled)
        assert snapshot.queries == 2 * len(sampled)
        assert snapshot.hit_rate == pytest.approx(0.5)

    def test_empty_hit_rate_is_zero(self, cost_model):
        assert CachedOracle(cost_model).stats().hit_rate == 0.0

    def test_clear_resets(self, cost_model, cnn_problem, sampled):
        oracle = CachedOracle(cost_model)
        oracle.evaluate_edp(sampled[0], cnn_problem)
        oracle.clear()
        snapshot = oracle.stats()
        assert snapshot.size == 0
        assert snapshot.queries == 0


class TestEviction:
    def test_lru_bound_respected(self, cost_model, cnn_problem, sampled):
        oracle = CachedOracle(cost_model, maxsize=4)
        for mapping in sampled:  # 8 distinct entries through a bound of 4
            oracle.evaluate_edp(mapping, cnn_problem)
        assert oracle.stats().size <= 4
        # Oldest entries were evicted: re-querying them misses again.
        oracle.evaluate_edp(sampled[0], cnn_problem)
        assert oracle.stats().misses == len(sampled) + 1

    def test_recently_used_survives(self, cost_model, cnn_problem, sampled):
        oracle = CachedOracle(cost_model, maxsize=2)
        oracle.evaluate_edp(sampled[0], cnn_problem)
        oracle.evaluate_edp(sampled[1], cnn_problem)
        oracle.evaluate_edp(sampled[0], cnn_problem)  # refresh 0
        oracle.evaluate_edp(sampled[2], cnn_problem)  # evicts 1, not 0
        hits_before = oracle.stats().hits
        oracle.evaluate_edp(sampled[0], cnn_problem)
        assert oracle.stats().hits == hits_before + 1

    def test_invalid_maxsize_rejected(self, cost_model):
        with pytest.raises(ValueError):
            CachedOracle(cost_model, maxsize=0)

    def test_bound_holds_across_mixed_query_kinds(
        self, cost_model, cnn_problem, sampled
    ):
        """maxsize bounds *total* entries, not per query kind."""
        oracle = CachedOracle(cost_model, maxsize=4)
        for mapping in sampled[:4]:
            oracle.evaluate_edp(mapping, cnn_problem)
        for mapping in sampled[4:]:
            oracle.evaluate(mapping, cnn_problem)
        assert oracle.stats().size <= 4

    def test_evaluate_upgrades_edp_entry_without_growth(
        self, cost_model, cnn_problem, sampled
    ):
        oracle = CachedOracle(cost_model)
        mapping = sampled[0]
        oracle.evaluate_edp(mapping, cnn_problem)
        assert oracle.stats().size == 1
        stats = oracle.evaluate(mapping, cnn_problem)
        assert oracle.stats().size == 1  # upgraded in place, no duplicate
        assert oracle.evaluate_edp(mapping, cnn_problem) == stats.edp


class _CountingOracle:
    """Scalar-only inner oracle that counts every query it serves."""

    def __init__(self, model, problem_unused=None):
        self.model = model
        self.scalar_calls = 0

    def evaluate_edp(self, mapping, problem):
        self.scalar_calls += 1
        return self.model.evaluate_edp(mapping, problem)


class TestEvaluateMany:
    def test_values_match_scalar_path(self, cost_model, cnn_problem, sampled):
        oracle = CachedOracle(cost_model)
        batched = oracle.evaluate_many(sampled, cnn_problem)
        expected = [cost_model.evaluate_edp(m, cnn_problem) for m in sampled]
        assert batched == pytest.approx(expected)

    def test_cold_batch_counts_only_misses(self, cost_model, cnn_problem, sampled):
        oracle = CachedOracle(cost_model)
        oracle.evaluate_many(sampled, cnn_problem)
        stats = oracle.stats()
        assert stats.hits == 0
        assert stats.misses == len(sampled)

    def test_warm_batch_counts_only_hits(self, cost_model, cnn_problem, sampled):
        oracle = CachedOracle(cost_model)
        oracle.evaluate_many(sampled, cnn_problem)
        oracle.evaluate_many(sampled, cnn_problem)
        stats = oracle.stats()
        assert stats.hits == len(sampled)
        assert stats.misses == len(sampled)

    def test_mixed_batch_partitions_exactly(self, cost_model, cnn_problem, cnn_space):
        """The regression the counters exist for: a batch of k hits + m
        misses counts k hits and m misses — no double counting."""
        mappings = cnn_space.sample_many(10, seed=11)
        seen, unseen = mappings[:4], mappings[4:]
        inner = _CountingOracle(cost_model)
        oracle = CachedOracle(inner)
        oracle.evaluate_many(seen, cnn_problem)
        inner.scalar_calls = 0
        oracle.evaluate_many(mappings, cnn_problem)
        stats = oracle.stats()
        assert stats.hits == len(seen)
        assert stats.misses == len(seen) + len(unseen)
        # Only the misses reached the inner oracle.
        assert inner.scalar_calls == len(unseen)

    def test_duplicate_miss_in_batch_priced_once(self, cost_model, cnn_problem, cnn_space):
        """An unseen mapping repeated in one batch is one miss + hits for
        the repeats, matching what a sequential loop would have counted."""
        mapping = cnn_space.sample_many(1, seed=5)[0]
        inner = _CountingOracle(cost_model)
        oracle = CachedOracle(inner)
        values = oracle.evaluate_many([mapping, mapping, mapping], cnn_problem)
        assert values[0] == values[1] == values[2]
        stats = oracle.stats()
        assert stats.misses == 1
        assert stats.hits == 2
        assert inner.scalar_calls == 1

    def test_misses_forwarded_in_one_inner_batch(self, cost_model, cnn_problem, sampled):
        """A batched inner oracle receives the misses as one call."""
        calls = []

        class BatchedInner:
            def evaluate_many(self, mappings, problem):
                calls.append(list(mappings))
                return cost_model.evaluate_many(mappings, problem)

            def evaluate_edp(self, mapping, problem):
                raise AssertionError("scalar path must not be used")

        oracle = CachedOracle(BatchedInner())
        oracle.evaluate_many(sampled[:3], cnn_problem)
        oracle.evaluate_many(sampled, cnn_problem)
        assert [len(c) for c in calls] == [3, len(sampled) - 3]

    def test_batch_respects_lru_bound(self, cost_model, cnn_problem, sampled):
        oracle = CachedOracle(cost_model, maxsize=4)
        oracle.evaluate_many(sampled, cnn_problem)
        assert oracle.stats().size <= 4

    def test_empty_batch(self, cost_model, cnn_problem):
        oracle = CachedOracle(cost_model)
        assert oracle.evaluate_many([], cnn_problem) == []
        stats = oracle.stats()
        assert stats.hits == 0 and stats.misses == 0


class TestPrewarm:
    """The scheduler's counter-neutral bulk insert (repro.serve cohorts)."""

    def test_prewarm_inserts_without_counting_queries(
        self, cost_model, cnn_problem, sampled
    ):
        oracle = CachedOracle(cost_model)
        inserted = oracle.prewarm(sampled, cnn_problem)
        stats = oracle.stats()
        assert inserted == len(sampled)
        assert stats.hits == 0 and stats.misses == 0
        assert stats.prewarmed == len(sampled)
        assert stats.size == len(sampled)

    def test_prewarmed_entries_answer_as_hits(
        self, cost_model, cnn_problem, sampled
    ):
        oracle = CachedOracle(cost_model)
        oracle.prewarm(sampled, cnn_problem)
        values = oracle.evaluate_many(sampled, cnn_problem)
        expected = [cost_model.evaluate_edp(m, cnn_problem) for m in sampled]
        assert values == pytest.approx(expected)
        # Bit-exact vs the path an uncoalesced batch would have taken: both
        # route misses through the same vectorized kernels, whose rows are
        # independent of batch composition.
        assert values == CachedOracle(cost_model).evaluate_many(
            sampled, cnn_problem
        )
        stats = oracle.stats()
        assert stats.hits == len(sampled) and stats.misses == 0

    def test_prewarm_skips_cached_and_duplicate_entries(
        self, cost_model, cnn_problem, sampled
    ):
        oracle = CachedOracle(cost_model)
        oracle.evaluate_edp(sampled[0], cnn_problem)
        inserted = oracle.prewarm(
            [sampled[0], sampled[1], sampled[1]], cnn_problem
        )
        assert inserted == 1  # sampled[0] cached, sampled[1] deduplicated
        assert oracle.stats().prewarmed == 1

    def test_prewarm_empty_is_free(self, cost_model, cnn_problem):
        oracle = CachedOracle(cost_model)
        assert oracle.prewarm([], cnn_problem) == 0
        assert oracle.stats().size == 0


class TestMissListener:
    """The online-learning tap: every miss reported, values untouched."""

    @staticmethod
    def _tapped(oracle):
        seen = []
        oracle.set_miss_listener(
            lambda problem, mappings, edps, stats: seen.append(
                (problem, list(mappings), list(edps), stats)
            )
        )
        return seen

    def test_every_miss_path_reports(self, cost_model, cnn_problem, sampled):
        from repro.costmodel.batch import BatchCostStats
        from repro.costmodel.stats import CostStats

        oracle = CachedOracle(cost_model)
        seen = self._tapped(oracle)
        oracle.evaluate(sampled[0], cnn_problem)          # scalar stats miss
        oracle.evaluate_edp(sampled[1], cnn_problem)      # scalar EDP miss
        oracle.evaluate_many(sampled[2:5], cnn_problem)   # batch misses
        oracle.prewarm(sampled[5:8], cnn_problem)         # prewarm inserts
        reported = [m for _, mappings, _, _ in seen for m in mappings]
        assert reported == list(sampled[:8])
        # Labels: full stats on every path — the tapped evaluate_edp miss
        # upgrades itself to evaluate() (same value, same cost, full label).
        assert isinstance(seen[0][3][0], CostStats)
        assert isinstance(seen[1][3][0], CostStats)
        assert isinstance(seen[2][3], BatchCostStats)
        assert isinstance(seen[3][3], BatchCostStats)

    def test_tapped_evaluate_edp_matches_untapped_value(
        self, cost_model, cnn_problem, sampled
    ):
        """Attaching a listener must not change any served value: the
        stats-harvesting scalar path returns exactly evaluate(...).edp."""
        plain = CachedOracle(cost_model)
        tapped = CachedOracle(cost_model)
        self._tapped(tapped)
        for mapping in sampled[:4]:
            assert tapped.evaluate_edp(mapping, cnn_problem) == plain.evaluate_edp(
                mapping, cnn_problem
            )
        # And the full label is now cached: a follow-up stats query hits.
        before = tapped.stats()
        tapped.evaluate(sampled[0], cnn_problem)
        after = tapped.stats()
        assert after.hits == before.hits + 1 and after.misses == before.misses

    def test_hits_and_upgrades_are_not_reported(
        self, cost_model, cnn_problem, sampled
    ):
        oracle = CachedOracle(cost_model)
        oracle.evaluate_many(sampled, cnn_problem)
        seen = self._tapped(oracle)
        oracle.evaluate_many(sampled, cnn_problem)       # all hits
        # A stats query against a bare-EDP entry is an *upgrade* miss: it
        # re-prices a mapping the tap already saw, so it must stay silent
        # (reporting it would double-weight revisited winners).
        oracle.evaluate(sampled[0], cnn_problem)
        assert seen == []
        assert oracle.stats().misses == len(sampled) + 1

    def test_fresh_stats_miss_is_reported(self, cost_model, cnn_problem, sampled):
        oracle = CachedOracle(cost_model)
        seen = self._tapped(oracle)
        oracle.evaluate(sampled[0], cnn_problem)
        assert [m for _, mappings, _, _ in seen for m in mappings] == [sampled[0]]

    def test_values_and_counters_unchanged_by_listener(
        self, cost_model, cnn_problem, sampled
    ):
        plain = CachedOracle(cost_model)
        tapped = CachedOracle(cost_model)
        self._tapped(tapped)
        assert tapped.evaluate_many(sampled, cnn_problem) == plain.evaluate_many(
            sampled, cnn_problem
        )
        assert tapped.stats() == plain.stats()

    def test_reported_edps_match_returned_values(
        self, cost_model, cnn_problem, sampled
    ):
        oracle = CachedOracle(cost_model)
        seen = self._tapped(oracle)
        values = oracle.evaluate_many(sampled, cnn_problem)
        reported = [edp for _, _, edps, _ in seen for edp in edps]
        assert reported == values

    def test_listener_exception_never_fails_a_query(
        self, cost_model, cnn_problem, sampled
    ):
        oracle = CachedOracle(cost_model)

        def broken(problem, mappings, edps, stats):
            raise RuntimeError("observer bug")

        oracle.set_miss_listener(broken)
        with pytest.warns(UserWarning, match="miss listener failed"):
            values = oracle.evaluate_many(sampled[:3], cnn_problem)
        assert values == pytest.approx(
            [cost_model.evaluate_edp(m, cnn_problem) for m in sampled[:3]]
        )
        assert oracle.stats().misses == 3

    def test_listener_clearable(self, cost_model, cnn_problem, sampled):
        oracle = CachedOracle(cost_model)
        seen = self._tapped(oracle)
        oracle.set_miss_listener(None)
        oracle.evaluate_many(sampled, cnn_problem)
        assert seen == []

    def test_scalar_only_inner_reports_floats(self, cost_model, cnn_problem, sampled):
        inner = _CountingOracle(cost_model)
        oracle = CachedOracle(inner)
        seen = self._tapped(oracle)
        oracle.evaluate_many(sampled[:4], cnn_problem)
        assert len(seen) == 1
        assert seen[0][3] is None  # no evaluate_batch on the inner: bare EDPs


class TestConcurrentHammer:
    """Satellite regression: the lock really covers store + counters under
    mixed multi-threaded traffic from scheduler workers."""

    def test_hammer_preserves_values_and_counter_invariants(
        self, cost_model, cnn_problem, cnn_space
    ):
        import threading

        population = cnn_space.sample_many(24, seed=11)
        truth = {
            mapping: cost_model.evaluate_edp(mapping, cnn_problem)
            for mapping in population
        }
        oracle = CachedOracle(cost_model, maxsize=16)
        queries = []  # one entry per metered query issued, across threads
        queries_lock = threading.Lock()
        errors = []

        def worker(seed: int) -> None:
            import math
            import random

            def close(a, b):
                return math.isclose(a, b, rel_tol=1e-9)

            rng = random.Random(seed)
            try:
                for step in range(60):
                    kind = rng.randrange(4)
                    if kind == 0:
                        mapping = rng.choice(population)
                        value = oracle.evaluate_edp(mapping, cnn_problem)
                        assert close(value, truth[mapping])
                        with queries_lock:
                            queries.append(1)
                    elif kind == 1:
                        mapping = rng.choice(population)
                        stats = oracle.evaluate(mapping, cnn_problem)
                        assert close(stats.edp, truth[mapping])
                        with queries_lock:
                            queries.append(1)
                    elif kind == 2:
                        batch = rng.sample(population, rng.randrange(1, 6))
                        values = oracle.evaluate_many(batch, cnn_problem)
                        assert all(
                            close(v, truth[m]) for v, m in zip(values, batch)
                        )
                        with queries_lock:
                            queries.append(len(batch))
                    else:
                        batch = rng.sample(population, rng.randrange(1, 6))
                        oracle.prewarm(batch, cnn_problem)  # never a query
            except BaseException as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        stats = oracle.stats()
        # Every metered query is exactly one hit or one miss, races included.
        assert stats.hits + stats.misses == sum(queries)
        assert stats.size <= 16


class _CountingInner:
    """CostModel proxy that counts which inner pricing entry point ran."""

    def __init__(self, model, megabatch=True):
        self.model = model
        self.mega_calls = 0
        self.many_calls = 0
        self.batch_calls = 0
        if not megabatch:
            # Hide the megabatch path: CachedOracle probes with getattr.
            self.evaluate_megabatch = None

    def evaluate(self, mapping, problem):
        return self.model.evaluate(mapping, problem)

    def evaluate_edp(self, mapping, problem):
        return self.model.evaluate_edp(mapping, problem)

    def evaluate_many(self, mappings, problem):
        self.many_calls += 1
        return self.model.evaluate_many(mappings, problem)

    def evaluate_batch(self, mappings, problem):
        self.batch_calls += 1
        return self.model.evaluate_batch(mappings, problem)

    def evaluate_megabatch(self, mappings, problems):
        self.mega_calls += 1
        return self.model.evaluate_megabatch(mappings, problems)


class TestGroupedPaths:
    """Cross-problem unions: one inner kernel call for a whole round."""

    @pytest.fixture()
    def three_groups(self, cnn_problem, gemm_problem, mttkrp_problem, accelerator):
        from repro.mapspace import MapSpace

        problems = (cnn_problem, gemm_problem, mttkrp_problem)
        return [
            (p, MapSpace(p, accelerator).sample_many(4, seed=13 + i))
            for i, p in enumerate(problems)
        ]

    def test_prewarm_grouped_single_inner_call(self, cost_model, three_groups):
        inner = _CountingInner(cost_model)
        oracle = CachedOracle(inner)
        inserted = oracle.prewarm_grouped(three_groups)
        assert inserted == sum(len(ms) for _, ms in three_groups)
        # The whole three-problem round took exactly ONE inner kernel call.
        assert inner.mega_calls == 1
        assert inner.many_calls == 0 and inner.batch_calls == 0
        stats = oracle.stats()
        assert stats.prewarmed == inserted
        assert stats.hits == 0 and stats.misses == 0
        # Prewarmed values answer metered queries as hits, bit-identical.
        for problem, mappings in three_groups:
            values = oracle.evaluate_many(mappings, problem)
            expected = cost_model.evaluate_many(mappings, problem)
            assert values == expected
        assert inner.mega_calls == 1  # nothing re-priced
        assert oracle.stats().hits == inserted

    def test_prewarm_grouped_merges_repeated_problems(
        self, cost_model, cnn_problem, cnn_space
    ):
        inner = _CountingInner(cost_model)
        oracle = CachedOracle(inner)
        sampled = cnn_space.sample_many(6, seed=21)
        inserted = oracle.prewarm_grouped(
            [(cnn_problem, sampled[:3]), (cnn_problem, sampled[3:] + sampled[:1])]
        )
        assert inserted == 6  # the repeated mapping inserts once
        # One merged group still goes through the one megabatch path.
        assert inner.mega_calls == 1
        assert inner.many_calls == 0 and inner.batch_calls == 0

    def test_evaluate_many_grouped_values_and_counters(
        self, cost_model, three_groups
    ):
        inner = _CountingInner(cost_model)
        oracle = CachedOracle(inner)
        # Warm part of the first group so the union mixes hits and misses.
        warm_problem, warm_mappings = three_groups[0]
        oracle.prewarm(warm_mappings[:2], warm_problem)
        inner.mega_calls = inner.many_calls = inner.batch_calls = 0

        lanes = [
            (mapping, problem)
            for problem, mappings in three_groups
            for mapping in mappings
        ]
        lanes.append(lanes[0])  # in-batch duplicate -> hit
        mappings = [m for m, _ in lanes]
        problems = [p for _, p in lanes]
        values = oracle.evaluate_many_grouped(mappings, problems)
        expected = [
            cost_model.evaluate_edp(m, p) for m, p in zip(mappings, problems)
        ]
        assert values == pytest.approx(expected, rel=1e-12)
        # All three problems' misses went through one megabatch call.
        assert inner.mega_calls == 1
        assert inner.many_calls == 0 and inner.batch_calls == 0
        stats = oracle.stats()
        assert stats.hits == 3  # two prewarmed + one in-batch duplicate
        assert stats.misses == len(lanes) - 3

    def test_evaluate_many_grouped_misaligned_raises(self, cost_model, cnn_space):
        oracle = CachedOracle(cost_model)
        with pytest.raises(ValueError, match="misaligned"):
            oracle.evaluate_many_grouped(cnn_space.sample_many(2, seed=1), [])

    def test_grouped_fallback_without_megabatch_backend(
        self, cost_model, three_groups
    ):
        inner = _CountingInner(cost_model, megabatch=False)
        oracle = CachedOracle(inner)
        inserted = oracle.prewarm_grouped(three_groups)
        assert inserted == sum(len(ms) for _, ms in three_groups)
        assert inner.many_calls == len(three_groups)  # per-group loop
        for problem, mappings in three_groups:
            assert oracle.evaluate_many(mappings, problem) == cost_model.evaluate_many(
                mappings, problem
            )

    def test_grouped_listener_gets_per_problem_slices(
        self, cost_model, three_groups
    ):
        from repro.costmodel import BatchCostStats

        inner = _CountingInner(cost_model)
        oracle = CachedOracle(inner)
        taps = []
        oracle.set_miss_listener(
            lambda problem, mappings, edps, stats: taps.append(
                (problem, list(mappings), list(edps), stats)
            )
        )
        oracle.prewarm_grouped(three_groups)
        assert inner.mega_calls == 1
        assert [tap[0].name for tap in taps] == [
            p.name for p, _ in three_groups
        ]
        for (problem, mappings), (_, tap_mappings, edps, stats) in zip(
            three_groups, taps
        ):
            assert tap_mappings == list(mappings)
            assert isinstance(stats, BatchCostStats)
            assert stats.problem_name == problem.name
            assert len(stats) == len(mappings)
            reference = cost_model.evaluate_batch(mappings, problem)
            assert list(stats.edp) == list(reference.edp)
            assert edps == list(stats.edp)
