"""Shared fixtures: small problems, accelerators, and a tiny trained surrogate.

Expensive artifacts (trained surrogates, generated datasets) are
session-scoped so the whole suite pays for them once.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# Property tests run alongside slow session fixtures; wall-clock deadlines
# would make them flaky.  Disable deadlines, keep example counts.
settings.register_profile(
    "repro", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro")

from repro.core import MindMappings, MindMappingsConfig, TrainingConfig, generate_dataset
from repro.obs import events

_REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def fresh_event_log():
    """A fresh process-default event log for every test.

    ``repro.obs.events`` keeps one log per OS process, and every shipped
    front door runs one per process; the suite runs many servers and
    routers in one, so each test gets its own log and sees only its own
    events."""
    previous = events.set_default_log(events.EventLog())
    try:
        yield
    finally:
        events.set_default_log(previous)


@pytest.fixture(scope="session", autouse=True)
def debug_lock_tracer():
    """Opt-in runtime lock-order recording (``REPRO_DEBUG_LOCKS=1``).

    When enabled, every lock created during the session is a DebugLock;
    at teardown the recorded acquisition orders are unioned with the
    static lock graph and the union must stay acyclic — the nightly CI
    lane runs the hammer suites under this fixture.
    """
    if not os.environ.get("REPRO_DEBUG_LOCKS"):
        yield None
        return
    from repro.analysis import build_lock_graph
    from repro.analysis.debuglock import (
        LockTracer,
        crosscheck,
        static_label_map,
        trace_locks,
    )

    src = _REPO_ROOT / "src" / "repro"
    tracer = LockTracer(
        static_label_map([src], root=_REPO_ROOT), root=_REPO_ROOT
    )
    with trace_locks(tracer):
        yield tracer
    conflicts = crosscheck(build_lock_graph([src], root=_REPO_ROOT), tracer)
    if conflicts:
        raise RuntimeError(
            "DebugLock/static lock-order cross-check failed:\n"
            + "\n".join(conflicts)
        )
from repro.costmodel import CostModel, default_accelerator
from repro.costmodel.accelerator import small_accelerator
from repro.mapspace import MapSpace
from repro.workloads import make_cnn_layer, make_conv1d, make_gemm, make_mttkrp


@pytest.fixture(scope="session")
def accelerator():
    """The paper's 256-PE evaluation accelerator."""
    return default_accelerator()


@pytest.fixture(scope="session")
def tiny_accelerator():
    """16-PE accelerator whose map spaces stay enumerable."""
    return small_accelerator()


@pytest.fixture(scope="session")
def conv1d_problem():
    """The paper's section 3 running example, small enough to enumerate."""
    return make_conv1d("conv1d_test", w=32, r=5)


@pytest.fixture(scope="session")
def cnn_problem():
    """A small but realistic CNN layer."""
    return make_cnn_layer("cnn_test", n=4, k=64, c=32, h=16, w=16, r=3, s=3)


@pytest.fixture(scope="session")
def mttkrp_problem():
    """A small MTTKRP shape."""
    return make_mttkrp("mttkrp_test", i=64, j=128, k=256, l=32)


@pytest.fixture(scope="session")
def gemm_problem():
    """The GEMM extension workload."""
    return make_gemm("gemm_test", m=128, n=64, k=256)


@pytest.fixture(scope="session")
def cnn_space(cnn_problem, accelerator):
    return MapSpace(cnn_problem, accelerator)


@pytest.fixture(scope="session")
def conv1d_space(conv1d_problem, tiny_accelerator):
    return MapSpace(conv1d_problem, tiny_accelerator)


@pytest.fixture(scope="session")
def cost_model(accelerator):
    return CostModel(accelerator)


@pytest.fixture(scope="session")
def tiny_cost_model(tiny_accelerator):
    return CostModel(tiny_accelerator)


@pytest.fixture(scope="session")
def cnn_training_problems():
    """Fixed small CNN problems for deterministic dataset generation."""
    return (
        make_cnn_layer("train_a", n=2, k=32, c=32, h=16, w=16, r=3, s=3),
        make_cnn_layer("train_b", n=4, k=64, c=32, h=8, w=8, r=3, s=3),
        make_cnn_layer("train_c", n=4, k=64, c=64, h=16, w=16, r=5, s=5),
        make_cnn_layer("train_d", n=2, k=128, c=32, h=8, w=8, r=1, s=1),
    )


@pytest.fixture(scope="session")
def cnn_dataset(accelerator, cnn_training_problems):
    """A small Phase 1 dataset over fixed CNN problems."""
    return generate_dataset(
        "cnn-layer",
        accelerator,
        n_samples=1200,
        problems=cnn_training_problems,
        seed=0,
    )


@pytest.fixture(scope="session")
def trained_mm(accelerator, cnn_training_problems):
    """A small trained MindMappings instance (shared across tests)."""
    config = MindMappingsConfig(
        dataset_samples=4000,
        training=TrainingConfig(hidden_layers=(64, 128, 64), epochs=12),
    )
    return MindMappings.train(
        "cnn-layer", accelerator, config, problems=cnn_training_problems, seed=0
    )
