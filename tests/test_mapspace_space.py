"""Tests for MapSpace: sampling, validity, projection, moves, enumeration."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mapspace import MapSpace
from repro.mapspace.mapping import ALLOC_LEVELS, Mapping
from repro.utils import prod


class TestSampleValidity:
    def test_samples_are_members(self, cnn_space):
        for seed in range(20):
            assert cnn_space.is_member(cnn_space.sample(seed))

    def test_sample_many_deterministic(self, cnn_space):
        a = cnn_space.sample_many(5, seed=3)
        b = cnn_space.sample_many(5, seed=3)
        assert a == b

    def test_sample_diversity(self, cnn_space):
        samples = cnn_space.sample_many(30, seed=0)
        assert len(set(samples)) > 25

    def test_tiny_space_sampling(self, conv1d_space):
        for seed in range(10):
            assert conv1d_space.is_member(conv1d_space.sample(seed))

    def test_mttkrp_sampling(self, mttkrp_problem, accelerator):
        space = MapSpace(mttkrp_problem, accelerator)
        for seed in range(10):
            assert space.is_member(space.sample(seed))

    def test_sample_always_valid_property(self, cnn_space):
        # property-style sweep without hypothesis (fixtures + @given clash)
        for seed in np.random.default_rng(0).integers(0, 100_000, size=25):
            assert cnn_space.is_member(cnn_space.sample(int(seed)))

    @pytest.mark.parametrize("max_tries", [0, -1])
    def test_sample_rejects_max_tries_below_one(self, cnn_space, max_tries):
        with pytest.raises(ValueError, match="max_tries"):
            cnn_space.sample(0, max_tries=max_tries)

    def test_sample_rejects_max_tries_below_one_under_optimize(self):
        """The check is not an ``assert``: ``python -O`` raises it too."""
        script = (
            "from repro.costmodel.accelerator import default_accelerator\n"
            "from repro.mapspace import MapSpace\n"
            "from repro.workloads import problem_by_name\n"
            "space = MapSpace(problem_by_name('ResNet_Conv4'), default_accelerator())\n"
            "try:\n"
            "    space.sample(0, max_tries=0)\n"
            "except ValueError as error:\n"
            "    print('ValueError:', error)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("ValueError:") and "max_tries" in result.stdout


class TestValidityChecks:
    def test_factor_product_mismatch_detected(self, cnn_space):
        mapping = cnn_space.sample(0)
        broken = mapping.with_tile_factors("K", (1, 1, 1, 1))
        errors = cnn_space.validity_errors(broken)
        assert any("multiply to" in e for e in errors)

    def test_spatial_overflow_detected(self, cnn_space):
        mapping = cnn_space.sample(0)
        k = cnn_space.problem.bounds["K"]
        c = cnn_space.problem.bounds["C"]
        broken = mapping.with_tile_factors("K", (1, 1, k, 1)).with_tile_factors(
            "C", (1, 1, c, 1)
        )
        assert any("exceeds" in e and "PEs" in e for e in cnn_space.validity_errors(broken))

    def test_capacity_overflow_detected(self, cnn_space):
        mapping = cnn_space.sample(0)
        bounds = cnn_space.problem.bounds
        # All iteration at L1: guaranteed to blow the private buffer.
        broken = mapping
        for dim in cnn_space.dims:
            broken = broken.with_tile_factors(dim, (1, 1, 1, bounds[dim]))
        assert any("exceeds its" in e for e in cnn_space.validity_errors(broken))

    def test_valid_mapping_has_no_errors(self, cnn_space):
        assert cnn_space.validity_errors(cnn_space.sample(1)) == []


class TestProjection:
    def test_project_fixes_bounds(self, cnn_space):
        mapping = cnn_space.sample(0)
        broken = mapping.with_tile_factors("K", (1, 1, 1, 1))
        repaired = cnn_space.project(broken)
        assert cnn_space.is_member(repaired)

    def test_project_fixes_capacity(self, cnn_space):
        bounds = cnn_space.problem.bounds
        mapping = cnn_space.sample(0)
        for dim in cnn_space.dims:
            mapping = mapping.with_tile_factors(dim, (1, 1, 1, bounds[dim]))
        repaired = cnn_space.project(mapping)
        assert cnn_space.is_member(repaired)

    def test_project_valid_is_idempotent(self, cnn_space):
        mapping = cnn_space.sample(5)
        assert cnn_space.project(mapping) == mapping

    def test_project_preserves_loop_orders(self, cnn_space):
        mapping = cnn_space.sample(0)
        broken = mapping.with_tile_factors("K", (1, 1, 1, 1))
        repaired = cnn_space.project(broken)
        assert repaired.loop_orders == mapping.loop_orders

    def test_project_caps_spatial(self, cnn_space):
        mapping = cnn_space.sample(0)
        k = cnn_space.problem.bounds["K"]
        c = cnn_space.problem.bounds["C"]
        broken = mapping.with_tile_factors("K", (1, 1, k, 1)).with_tile_factors(
            "C", (1, 1, c, 1)
        )
        repaired = cnn_space.project(broken)
        assert repaired.spatial_size <= cnn_space.accelerator.num_pes
        assert cnn_space.is_member(repaired)


class TestNeighbors:
    @pytest.mark.parametrize("kind", ["tile", "spatial", "order", "alloc"])
    def test_neighbor_valid(self, cnn_space, kind):
        mapping = cnn_space.sample(2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            neighbor = cnn_space.random_neighbor(mapping, rng, kind=kind)
            assert cnn_space.is_member(neighbor)
            mapping = neighbor

    def test_neighbor_usually_differs(self, cnn_space):
        mapping = cnn_space.sample(2)
        rng = np.random.default_rng(0)
        changed = sum(
            cnn_space.random_neighbor(mapping, rng) != mapping for _ in range(20)
        )
        assert changed >= 10

    def test_unknown_kind_raises(self, cnn_space):
        with pytest.raises(ValueError):
            cnn_space.random_neighbor(cnn_space.sample(0), 0, kind="teleport")


class TestAttributeGroups:
    def test_group_list(self, cnn_space):
        groups = cnn_space.attribute_groups()
        assert "tile:K" in groups
        assert "order:DRAM" in groups
        assert "alloc:L1" in groups

    def test_get_set_roundtrip(self, cnn_space):
        a = cnn_space.sample(0)
        b = cnn_space.sample(1)
        for group in cnn_space.attribute_groups():
            moved = cnn_space.set_group(a, group, cnn_space.get_group(b, group))
            assert cnn_space.is_member(moved)

    def test_unknown_group_raises(self, cnn_space):
        with pytest.raises(KeyError):
            cnn_space.get_group(cnn_space.sample(0), "banana:X")


class TestSizeAndEnumeration:
    def test_size_is_large_for_cnn(self, cnn_space):
        assert cnn_space.size() > 1e15

    def test_resnet_size_matches_paper_scale(self, accelerator):
        from repro.workloads import problem_by_name

        space = MapSpace(problem_by_name("ResNet_Conv4"), accelerator)
        # Paper reports ~1e25 valid mappings for this layer.
        assert 1e22 < space.size() < 1e30

    def test_enumeration_tiny(self, conv1d_space):
        mappings = list(
            conv1d_space.enumerate_mappings(include_orders=False, limit=100_000)
        )
        assert mappings
        assert all(conv1d_space.is_member(m) for m in mappings)
        assert len(set(mappings)) == len(mappings)

    def test_enumeration_limit_enforced(self, cnn_space):
        with pytest.raises(ValueError):
            list(cnn_space.enumerate_mappings(limit=1000))

    def test_enumeration_covers_all_tilings(self, conv1d_space):
        mappings = list(
            conv1d_space.enumerate_mappings(include_orders=False, limit=100_000)
        )
        bounds = conv1d_space.problem.bounds
        tilings = {m.tile_factors for m in mappings}
        # every enumerated tiling factorizes the bounds exactly
        for tiling in tilings:
            for dim, factors in zip(conv1d_space.dims, tiling):
                assert prod(factors) == bounds[dim]
