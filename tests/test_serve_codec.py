"""Wire codec: problem/request round-trips, MappingResponse.from_dict identity."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.stats import CostStats, TensorLevelEnergy
from repro.engine import MappingRequest, MappingResponse
from repro.engine.registry import searcher_names
from repro.mapspace import MapSpace, Mapping
from repro.costmodel.accelerator import small_accelerator
from repro.search import SearchResult
from repro.serve import (
    problem_from_dict,
    problem_to_dict,
    request_from_dict,
    request_key,
    request_to_dict,
)
from repro.serve.batcher import PRIORITY_NAMES, Priority
from repro.serve.codec import BadRequest, MapCall, map_call_from_dict, trace_to_dict
from repro.workloads import (
    TABLE1_PROBLEMS,
    TRANSFORMER_PROBLEMS,
    make_conv1d,
    problem_by_name,
)

PROBLEM = make_conv1d("codec_target", w=32, r=5)
SPACE = MapSpace(PROBLEM, small_accelerator())


class TestProblemCodec:
    @pytest.mark.parametrize(
        "problem",
        TABLE1_PROBLEMS + TRANSFORMER_PROBLEMS + (PROBLEM,),
        ids=lambda p: p.name,
    )
    def test_round_trip_through_json(self, problem):
        payload = json.loads(json.dumps(problem_to_dict(problem)))
        restored = problem_from_dict(payload)
        assert restored == problem

    def test_rejects_invalid_problem(self):
        payload = problem_to_dict(PROBLEM)
        payload["tensors"] = payload["tensors"][:1]  # drops the output tensor
        with pytest.raises(ValueError):
            problem_from_dict(payload)


class TestRequestCodec:
    def test_round_trip(self):
        request = MappingRequest(
            PROBLEM, searcher="sa", iterations=123, seed=9,
            searcher_config={"probe_moves": 4}, tag="abc",
        )
        restored = request_from_dict(json.loads(json.dumps(request_to_dict(request))))
        assert restored == request

    def test_non_wire_safe_config_raises(self):
        request = MappingRequest(
            PROBLEM, searcher="random", searcher_config={"cost_model": object()}
        )
        with pytest.raises(TypeError):
            request_to_dict(request)

    def test_defaults_fill_in(self):
        payload = {"problem": problem_to_dict(PROBLEM)}
        request = request_from_dict(payload)
        assert request.searcher == "gradient"
        assert request.iterations == 500
        assert request.seed is None

    def test_wire_fields_are_the_request_fields(self):
        """The encoder writes every request field and nothing else, so the
        decoder's unknown-field check refuses exactly what no request
        carries."""
        request = MappingRequest(PROBLEM, searcher="random", iterations=5, seed=1)
        assert set(request_to_dict(request)) == {
            field.name for field in dataclasses.fields(MappingRequest)
        }

    @pytest.mark.parametrize(
        ("extra", "named"),
        [
            ({"time_budget_s": None}, "time_budget_s"),
            ({"iteration": 5}, "iteration"),
            ({"priority": "high"}, "priority"),
            ({"zeta": 1, "alpha": 2}, "alpha, zeta"),
        ],
        ids=["retired_field", "misspelled_field", "map_call_field",
             "named_in_order"],
    )
    def test_unknown_field_raises(self, extra, named):
        payload = {"problem": problem_to_dict(PROBLEM), **extra}
        with pytest.raises(ValueError, match=f"^unknown request fields: {named}$"):
            request_from_dict(payload)


class TestMapCallCodec:
    """``map_call_from_dict``: the one decode of a map call's payload."""

    REQUEST = MappingRequest(PROBLEM, searcher="sa", iterations=40, seed=3, tag="t")

    def _payload(self, **fields):
        return json.loads(json.dumps(
            {"request": request_to_dict(self.REQUEST), **fields}
        ))

    def test_defaults_fill_in(self):
        call = map_call_from_dict(self._payload())
        assert call == MapCall(self.REQUEST, Priority.NORMAL, False, None)

    @pytest.mark.parametrize("lane", list(Priority), ids=lambda lane: lane.name)
    def test_every_lane_round_trips_through_its_wire_name(self, lane):
        call = map_call_from_dict(self._payload(priority=PRIORITY_NAMES[lane]))
        assert call.priority is lane

    def test_wire_names_are_one_per_lane(self):
        assert set(PRIORITY_NAMES) == set(Priority)
        assert len(set(PRIORITY_NAMES.values())) == len(Priority)

    def test_priority_name_is_case_insensitive(self):
        call = map_call_from_dict(self._payload(priority="HIGH"))
        assert call.priority is Priority.HIGH

    def test_trace_flag_and_context_decode(self):
        call = map_call_from_dict(self._payload(
            include_trace=True, trace=trace_to_dict("abc123", "span7"),
        ))
        assert call.include_trace is True
        assert call.trace_parent == ("abc123", "span7")

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda p: p.pop("request"), "request"),
            (lambda p: p.update(request="not-a-dict"), "bad request"),
            (lambda p: p["request"].pop("problem"), "problem"),
            (lambda p: p.update(priority="urgent"), "urgent"),
            (lambda p: p["request"].update(searcher="no-such-searcher"),
             "no-such-searcher"),
            # An unknown field is refused, never dropped: a client still
            # sending the retired time budget must not silently get a
            # full-iteration search.
            (lambda p: p["request"].update(time_budget_s=None),
             "unknown request fields: time_budget_s"),
            (lambda p: p["request"].update(time_budget_s=1.0),
             "unknown request fields: time_budget_s"),
        ],
        ids=["no_request", "request_not_a_dict", "no_problem",
             "unknown_priority", "unregistered_searcher",
             "time_budget_null", "time_budget"],
    )
    def test_bad_payload_raises_bad_request(self, mutate, needle):
        payload = self._payload()
        mutate(payload)
        with pytest.raises(BadRequest) as info:
            map_call_from_dict(payload)
        # A ValueError, so callers that catch validation errors still do.
        assert isinstance(info.value, ValueError)
        message = str(info.value)
        assert message.startswith("bad request: ")
        assert needle in message


class TestRequestKey:
    def test_identical_requests_share_a_key(self):
        a = MappingRequest(PROBLEM, searcher="sa", iterations=50, seed=1, tag="x")
        b = MappingRequest(PROBLEM, searcher="annealing", iterations=50, seed=1,
                           tag="y")
        # Aliases canonicalize and tags are excluded: same work, same key.
        assert request_key(a) == request_key(b) is not None

    def test_differences_change_the_key(self):
        base = MappingRequest(PROBLEM, searcher="random", iterations=50, seed=1)
        for other in (
            MappingRequest(PROBLEM, searcher="random", iterations=51, seed=1),
            MappingRequest(PROBLEM, searcher="random", iterations=50, seed=2),
            MappingRequest(PROBLEM, searcher="genetic", iterations=50, seed=1),
            MappingRequest(problem_by_name("BERT_QKV"), searcher="random",
                           iterations=50, seed=1),
            MappingRequest(PROBLEM, searcher="random", iterations=50, seed=1,
                           searcher_config={"batch_size": 4}),
        ):
            assert request_key(base) != request_key(other)

    def test_every_seeded_request_has_a_key(self):
        """A seeded request's response depends on its fields alone, so no
        searcher's seeded requests are kept out of duplicate collapsing."""
        for name in sorted(searcher_names()):
            request = MappingRequest(PROBLEM, searcher=name, iterations=5, seed=1)
            assert request_key(request) is not None, name

    def test_non_idempotent_requests_have_no_key(self):
        assert request_key(
            MappingRequest(PROBLEM, searcher="random", iterations=5, seed=None)
        ) is None
        assert request_key(
            MappingRequest(PROBLEM, searcher="random", iterations=5, seed=1,
                           searcher_config={"cost_model": object()})
        ) is None


def _mapping(seed: int) -> Mapping:
    return SPACE.sample(seed)


@st.composite
def responses(draw):
    """Synthesize structurally-valid MappingResponses with arbitrary floats."""
    finite = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False)
    n_trace = draw(st.integers(min_value=1, max_value=4))
    mappings = [_mapping(draw(st.integers(0, 7))) for _ in range(n_trace)]
    values = [draw(finite) for _ in range(n_trace)]
    result = SearchResult(
        searcher="Random", problem=PROBLEM.name, mappings=mappings,
        objective_values=values,
    )
    records = tuple(
        TensorLevelEnergy(tensor, level, draw(finite), draw(finite))
        for tensor in ("W", "I", "O")
        for level in ("L1", "L2", "DRAM")
    )
    stats = CostStats(
        problem_name=PROBLEM.name, records=records,
        noc_energy_pj=draw(finite), mac_energy_pj=draw(finite),
        cycles=draw(finite), utilization=draw(st.floats(0.01, 1.0)),
        spatial_pes=draw(st.integers(1, 4096)),
    )
    return MappingResponse(
        tag=draw(st.text(max_size=8)),
        problem=PROBLEM.name,
        searcher="Random",
        mapping=result.best_mapping,
        stats=stats,
        norm_edp=draw(finite),
        best_objective=result.best_objective,
        n_evaluations=n_trace,
        search_time_s=draw(finite),
        total_time_s=draw(finite),
        result=result,
        provenance={"engine": "repro.engine"},
    )


class TestResponseCodec:
    @settings(max_examples=40, deadline=None)
    @given(response=responses())
    def test_to_dict_from_dict_identity(self, response):
        """Satellite acceptance: to_dict → (JSON) → from_dict is lossless,
        trace included, and re-encoding reproduces the payload exactly."""
        payload = json.loads(json.dumps(response.to_dict(include_trace=True)))
        restored = MappingResponse.from_dict(payload)
        assert restored.tag == response.tag
        assert restored.mapping == response.mapping
        assert restored.stats == response.stats
        assert restored.norm_edp == response.norm_edp
        assert restored.best_objective == response.best_objective
        assert restored.n_evaluations == response.n_evaluations
        assert restored.result.mappings == response.result.mappings
        assert restored.result.objective_values == response.result.objective_values
        assert restored.provenance == response.provenance
        assert restored.to_dict(include_trace=True) == payload

    @settings(max_examples=10, deadline=None)
    @given(response=responses())
    def test_traceless_payload_still_loads(self, response):
        payload = json.loads(json.dumps(response.to_dict(include_trace=False)))
        restored = MappingResponse.from_dict(payload)
        assert restored.mapping == response.mapping
        assert restored.stats == response.stats
        # The reconstructed minimal trace keeps the winner reachable.
        assert restored.result.best_mapping == response.mapping
        assert restored.convergence == [response.best_objective]
