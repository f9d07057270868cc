"""Cohort coalescing: row-exact kernels, eligibility gating, solo parity."""

import pytest

from repro.core import MindMappingsConfig, TrainingConfig
from repro.core.encoding import MappingEncoder
from repro.core.surrogate import Surrogate
from repro.costmodel import CostModel
from repro.costmodel.accelerator import small_accelerator
from repro.engine import EngineConfig, MappingEngine, MappingRequest
from repro.engine.registry import searcher_names
from repro.mapspace import MapSpace
from repro.serve.cohort import coalescible, serve_batch
from repro.workloads import make_conv1d, problem_by_name

PROBLEM = make_conv1d("cohort_target", w=32, r=5)

#: A tiny Mind Mappings recipe: trains in about a second.
MM_ENGINE_CONFIG = EngineConfig(
    mm_config=MindMappingsConfig(
        dataset_samples=600, n_problems=2,
        training=TrainingConfig(hidden_layers=(16, 16), epochs=3),
    ),
    training_problems={"conv1d": (
        make_conv1d("cohort_train_a", w=48, r=3),
        make_conv1d("cohort_train_b", w=64, r=5),
    )},
)


@pytest.fixture()
def engine():
    return MappingEngine(small_accelerator(), EngineConfig())


@pytest.fixture(scope="module")
def mm_engine():
    """An engine whose conv1d surrogate is trained up front."""
    engine = MappingEngine(small_accelerator(), MM_ENGINE_CONFIG)
    engine.pipeline_for("conv1d")
    return engine


def assert_same_as_solo(engine, requests, responses):
    """Each response equals solo ``engine.map``: mapping, EDP, the
    objective trace and every visited mapping."""
    assert [r.tag for r in responses] == [r.tag for r in requests]
    for request, response in zip(requests, responses):
        solo = engine.map(request)
        assert response.mapping == solo.mapping, request.tag
        assert response.stats.edp == solo.stats.edp, request.tag
        assert (
            response.result.objective_values == solo.result.objective_values
        ), request.tag
        assert response.result.mappings == solo.result.mappings, request.tag


class TestRowExactness:
    """The determinism foundation: a mapping's batched cost is bitwise
    independent of which other mappings share its batch, so prewarming a
    union cannot change what any single search observes."""

    @pytest.mark.parametrize("problem", [PROBLEM, problem_by_name("BERT_QKV")],
                             ids=lambda p: p.name)
    def test_rows_independent_of_batch_composition(self, problem):
        accelerator = small_accelerator()
        model = CostModel(accelerator)
        space = MapSpace(problem, accelerator)
        population = space.sample_many(48, seed=0)
        union = model.evaluate_many(population, problem)
        # Prefix, suffix, and interleaved sub-batches all reproduce the
        # union's rows exactly.
        assert model.evaluate_many(population[:7], problem) == union[:7]
        assert model.evaluate_many(population[31:], problem) == union[31:]
        sub = population[1::5]
        assert model.evaluate_many(sub, problem) == union[1::5]


class TestEligibility:
    def test_oracle_searchers_are_coalescible(self, engine):
        prepared = engine._prepare_search(
            MappingRequest(PROBLEM, searcher="random", iterations=5, seed=0)
        )
        assert coalescible(prepared)

    @pytest.mark.parametrize(
        "name", sorted(set(searcher_names()) - {"gradient"})
    )
    def test_every_seeded_oracle_search_joins_the_cohort(self, engine, name):
        """With no clock in any budget, every seeded request on the
        engine's oracle is coalescible, and its cohort stays bit-identical
        to solo serving."""
        requests = [
            MappingRequest(PROBLEM, searcher=name, iterations=12, seed=s,
                           tag=f"{name}-{s}")
            for s in range(2)
        ]
        assert all(
            coalescible(engine._prepare_search(request)) for request in requests
        )
        assert_same_as_solo(engine, requests, serve_batch(engine, requests))

    def test_caller_supplied_oracle_runs_solo(self, engine):
        requests = [
            MappingRequest(
                PROBLEM, searcher="random", iterations=10, seed=s,
                searcher_config={"cost_model": CostModel(engine.accelerator)},
            )
            for s in range(3)
        ]
        assert not coalescible(engine._prepare_search(requests[0]))
        # ... and serve_batch runs each as a cohort of one, bit-identical
        # to solo serving.
        assert_same_as_solo(engine, requests, serve_batch(engine, requests))

    def test_gradient_searches_are_coalescible(self, mm_engine):
        prepared = mm_engine._prepare_search(
            MappingRequest(PROBLEM, searcher="gradient", iterations=5, seed=0)
        )
        assert coalescible(prepared)


class TestServeBatch:
    def test_preserves_input_order_across_groups(self, engine):
        other = make_conv1d("cohort_other", w=48, r=3)
        requests = [
            MappingRequest(PROBLEM, searcher="random", iterations=8, seed=0,
                           tag="a"),
            MappingRequest(other, searcher="annealing", iterations=8, seed=1,
                           tag="b"),
            MappingRequest(PROBLEM, searcher="annealing", iterations=8, seed=2,
                           tag="c"),
            MappingRequest(other, searcher="random", iterations=8, seed=3,
                           tag="d"),
        ]
        responses = serve_batch(engine, requests)
        assert [r.tag for r in responses] == ["a", "b", "c", "d"]
        assert [r.problem for r in responses] == [
            PROBLEM.name, other.name, PROBLEM.name, other.name,
        ]

    def test_single_member_cohort_matches_run(self, engine):
        request = MappingRequest(PROBLEM, searcher="genetic", iterations=20,
                                 seed=5)
        solo = engine.map(request)
        [batched] = serve_batch(engine, [request])
        assert batched.mapping == solo.mapping
        assert batched.result.objective_values == solo.result.objective_values

    def test_mixed_batch_runs_every_request_through_cohorts(self, mm_engine):
        """A ``gradient`` request joins the lockstep cohort beside the
        oracle searches, and a request with its own cost model runs as a
        cohort of one: input order holds, and every response equals solo
        ``engine.map``."""
        engine = mm_engine
        other = make_conv1d("cohort_other", w=48, r=3)
        requests = [
            MappingRequest(PROBLEM, searcher="random", iterations=16, seed=0,
                           tag="random"),
            MappingRequest(PROBLEM, searcher="gradient", iterations=30,
                           seed=1, tag="gradient"),
            MappingRequest(other, searcher="genetic", iterations=24, seed=2,
                           tag="genetic"),
            MappingRequest(
                other, searcher="annealing", iterations=20, seed=3,
                searcher_config={"cost_model": CostModel(engine.accelerator)},
                tag="own_oracle",
            ),
        ]
        assert coalescible(engine._prepare_search(requests[1]))
        assert not coalescible(engine._prepare_search(requests[3]))
        assert_same_as_solo(engine, requests, serve_batch(engine, requests))

    def test_own_oracle_member_served_inside_batch(self, engine):
        requests = [
            MappingRequest(PROBLEM, searcher="random", iterations=10, seed=0),
            MappingRequest(
                PROBLEM, searcher="random", iterations=10, seed=1,
                searcher_config={"cost_model": CostModel(engine.accelerator)},
            ),
        ]
        responses = serve_batch(engine, requests)
        assert all(r.stats.edp > 0 for r in responses)

    def test_empty_batch(self, engine):
        assert serve_batch(engine, []) == []

    def test_exhaustive_early_termination_in_cohort(self, engine):
        """A searcher whose ask() dries up (exhaustive enumeration on a tiny
        space) must finish cleanly while its cohort-mates continue."""
        requests = [
            MappingRequest(PROBLEM, searcher="exhaustive", iterations=5000,
                           seed=0),
            MappingRequest(PROBLEM, searcher="random", iterations=40, seed=1),
        ]
        solo = [engine.map(request) for request in requests]
        batched = serve_batch(engine, requests)
        for left, right in zip(solo, batched):
            assert left.mapping == right.mapping
            assert left.n_evaluations == right.n_evaluations


class TestGradientLockstep:
    """Mind Mappings members share one decode and one stacked surrogate
    pass per round, and each stays bitwise its solo search."""

    PROBLEMS = (
        make_conv1d("lockstep_a", w=32, r=5),
        make_conv1d("lockstep_b", w=48, r=3),
        make_conv1d("lockstep_c", w=40, r=4),
    )

    def _requests(self):
        a, b, c = self.PROBLEMS
        gradient = [
            # (problem, iterations, restarts): counts that differ and are
            # not multiples of inject_every (10), and a restarts=4 search
            # of 10 iterations whose last round the budget truncates.
            (a, 23, 1), (b, 37, 1), (c, 41, 4), (a, 10, 4), (b, 29, 4),
            (c, 17, 1),
        ]
        requests = [
            MappingRequest(problem, searcher="gradient", iterations=iterations,
                           seed=index, searcher_config={"restarts": restarts},
                           tag=f"mm{index}")
            for index, (problem, iterations, restarts) in enumerate(gradient)
        ]
        requests.insert(2, MappingRequest(a, searcher="random", iterations=16,
                                          seed=7, tag="random"))
        requests.append(MappingRequest(c, searcher="genetic", iterations=24,
                                       seed=8, tag="genetic"))
        return requests

    def test_members_share_decode_and_pass_and_match_solo(
        self, mm_engine, monkeypatch
    ):
        decode_rows, pass_items = [], []
        decode = MappingEncoder.decode
        forward = Surrogate.objective_and_gradient_batch

        def counting_decode(self, rows, spaces):
            decode_rows.append({space.problem.name for space in spaces})
            return decode(self, rows, spaces)

        def counting_pass(self, inputs):
            pass_items.append(inputs.shape)
            return forward(self, inputs)

        monkeypatch.setattr(MappingEncoder, "decode", counting_decode)
        monkeypatch.setattr(Surrogate, "objective_and_gradient_batch",
                            counting_pass)
        requests = self._requests()
        responses = serve_batch(mm_engine, requests)
        # Rows of all three problems decoded in one call, and items of
        # several searches stacked into one pass.
        assert max(len(problems) for problems in decode_rows) == 3
        assert max(shape[0] for shape in pass_items if len(shape) == 3) >= 3
        monkeypatch.undo()
        assert_same_as_solo(mm_engine, requests, responses)


class _CountingModel(CostModel):
    """CostModel counting which pricing entry point ran."""

    def __init__(self, accelerator):
        super().__init__(accelerator)
        self.mega_calls = 0
        self.many_calls = 0
        self.batch_calls = 0

    def evaluate_many(self, mappings, problem):
        self.many_calls += 1
        return super().evaluate_many(mappings, problem)

    def evaluate_batch(self, mappings, problem):
        self.batch_calls += 1
        return super().evaluate_batch(mappings, problem)

    def evaluate_megabatch(self, mappings, problems):
        self.mega_calls += 1
        return super().evaluate_megabatch(mappings, problems)


class TestCrossProblemCohort:
    """A mixed round is ONE kernel call, and answers stay bit-identical."""

    PROBLEMS = (
        make_conv1d("cohort_mix_a", w=32, r=5),
        problem_by_name("BERT_QKV"),
        problem_by_name("ResNet_Conv3"),
    )

    def _requests(self, iterations=24):
        return [
            MappingRequest(problem, searcher="random", iterations=iterations,
                           seed=index)
            for index, problem in enumerate(self.PROBLEMS)
        ]

    @pytest.mark.parametrize(
        "iterations", [24, 2], ids=["24_each", "six_candidate_union"]
    )
    def test_mixed_round_is_one_kernel_call(self, iterations):
        accelerator = small_accelerator()
        engine = MappingEngine(accelerator, EngineConfig())
        inner = engine.oracle.inner = _CountingModel(accelerator)
        requests = self._requests(iterations)
        responses = serve_batch(engine, requests)
        # The three-problem round's misses were priced by exactly one
        # inner cost-kernel call — the cross-problem megabatch — however
        # small the union.
        assert inner.mega_calls == 1
        assert inner.many_calls == 0 and inner.batch_calls == 0
        stats = engine.oracle.stats()
        assert stats.hits == 3 * iterations  # every metered evaluation was prewarmed
        assert stats.misses == 3  # only the final per-request reporting
        # Responses are bit-identical to solo serving on a fresh engine.
        solo_engine = MappingEngine(accelerator, EngineConfig())
        for request, response in zip(requests, responses):
            solo = solo_engine.map(request)
            assert solo.mapping == response.mapping
            assert solo.stats.edp == response.stats.edp
            assert (
                solo.result.objective_values == response.result.objective_values
            )


class TestRoutedGradient:
    def test_routed_gradient_requests_equal_solo(self, mm_engine):
        """Gradient requests submitted together through a one-shard
        ``ClusterRouter`` (a real shard process training the same tiny
        surrogate) equal solo ``engine.map`` bitwise.  Routed replies carry
        no evaluation trace, so the best objective stands in for it."""
        from repro.cluster.router import ClusterConfig, ClusterRouter
        from repro.serve import ServeConfig

        problems = TestGradientLockstep.PROBLEMS[:2]
        requests = [
            MappingRequest(problems[seed % 2], searcher="gradient",
                           iterations=27, seed=seed, tag=f"routed{seed}")
            for seed in range(4)
        ]
        router = ClusterRouter(ClusterConfig(
            num_shards=1,
            accelerator=small_accelerator(),
            engine=MM_ENGINE_CONFIG,
            serve=ServeConfig(max_batch=8, max_wait_s=0.2),
            health_interval_s=0.2,
        )).start()
        try:
            futures = [router.submit(request) for request in requests]
            responses = [future.result(timeout=120) for future in futures]
        finally:
            assert router.shutdown(timeout=30)
        for request, response in zip(requests, responses):
            solo = mm_engine.map(request)
            assert response.tag == request.tag
            assert response.mapping == solo.mapping, request.tag
            assert response.stats.edp == solo.stats.edp, request.tag
            assert response.best_objective == solo.best_objective, request.tag
            assert response.n_evaluations == solo.n_evaluations, request.tag
