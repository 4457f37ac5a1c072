"""Tests for the deterministic work-unit planner (``repro.core.sharding``).

The load-bearing properties of sharded execution live here: every shard
split is a *disjoint cover* of the full plan, membership is stable under
dataset reordering and across processes (no ``PYTHONHASHSEED`` leakage),
and unit identities stay put when the code version changes even though the
store keys (correctly) do not.
"""

import math
import os
import subprocess
import sys

import pytest

from repro.core.exploration import grid_points
from repro.core.sharding import (
    MissingResultsError,
    ShardSpec,
    normalize_sigmas,
    plan_suite_units,
    suite_result_key,
    suite_work_unit,
    variation_work_unit,
)
from repro.core.spec import DesignSpec
from repro.core.store import ResultStore

#: Tiny grid keeping planner tests instant.
SMALL_GRID = dict(depths=(2, 3), taus=(0.0, 0.01))


class TestShardSpec:
    def test_parse_round_trip(self):
        spec = ShardSpec.parse("2/3")
        assert (spec.index, spec.count) == (2, 3)
        assert str(spec) == "2/3"
        assert ShardSpec.parse(" 1/1 ") == ShardSpec(1, 1)

    @pytest.mark.parametrize("text", ["", "3", "a/b", "1/", "/3", "1/2/3"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError, match="K/N"):
            ShardSpec.parse(text)

    @pytest.mark.parametrize("index,count", [(0, 3), (4, 3), (-1, 2), (1, 0)])
    def test_out_of_range_rejected(self, index, count):
        with pytest.raises(ValueError):
            ShardSpec(index=index, count=count)


class TestGridPoints:
    def test_depth_major_order(self):
        assert grid_points((2, 3), (0.0, 0.01)) == (
            (2, 0.0), (2, 0.01), (3, 0.0), (3, 0.01),
        )


class TestWorkUnits:
    def test_suite_unit_addresses_the_suite_cache_entry(self):
        unit = suite_work_unit("vertebral_2c", 0, False, (2, 3), (0.0,))
        assert unit.store_key == suite_result_key("vertebral_2c", 0, False, (2, 3), (0.0,))
        assert unit.kind == "suite"
        assert unit.label == "suite:vertebral_2c[table1]"

    def test_variation_unit_addresses_the_variation_cache_entry(self):
        unit = variation_work_unit("seeds", 0, 0.02, 5, 3, 0.01)
        assert unit.store_key == DesignSpec("seeds", 0, 3, 0.01).key(
            "offset_variation", sigma_v=0.02, n_trials=5
        )
        assert unit.kind == "variation"

    def test_abbreviation_aliases_canonical_name(self):
        assert suite_work_unit("V2", 0, False, (2,), (0.0,)) == suite_work_unit(
            "vertebral_2c", 0, False, (2,), (0.0,)
        )

    def test_shard_membership_survives_code_version_changes(self, monkeypatch):
        import repro

        unit = suite_work_unit("seeds", 0, False, (2,), (0.0,))
        monkeypatch.setattr(repro, "__version__", "99.99.99")
        bumped = suite_work_unit("seeds", 0, False, (2,), (0.0,))
        assert bumped.store_key != unit.store_key  # new code, new cache entry
        for count in (1, 2, 3, 7):
            assert bumped.shard_index(count) == unit.shard_index(count)

    def test_shard_index_rejects_non_positive_counts(self):
        unit = suite_work_unit("seeds", 0, False, (2,), (0.0,))
        with pytest.raises(ValueError):
            unit.shard_index(0)


class TestPlanSuiteUnits:
    def test_default_plan_covers_all_benchmarks_and_variants(self):
        plan = plan_suite_units(**SMALL_GRID)
        assert len(plan.datasets) == 8
        assert len(plan.units) == 8 * 2  # table1 + table2 variant per dataset
        assert all(unit.kind == "suite" for unit in plan.units)

    def test_sigma_adds_one_variation_unit_per_grid_point(self):
        plan = plan_suite_units(
            datasets=("seeds",), sigma_v=0.02, n_trials=5, **SMALL_GRID
        )
        kinds = [unit.kind for unit in plan.units]
        assert kinds.count("suite") == 2
        assert kinds.count("variation") == len(grid_points(**SMALL_GRID))
        grid = [
            (unit.params["depth"], unit.params["tau"])
            for unit in plan.units
            if unit.kind == "variation"
        ]
        assert tuple(grid) == grid_points(**SMALL_GRID)

    def test_duplicates_and_abbreviations_collapse(self):
        plan = plan_suite_units(
            datasets=("V2", "vertebral_2c", "seeds"), **SMALL_GRID
        )
        assert plan.datasets == ("vertebral_2c", "seeds")

    def test_fast_flag_selects_small_benchmarks(self):
        plan = plan_suite_units(fast=True, **SMALL_GRID)
        assert set(plan.datasets) == {
            "balance_scale", "vertebral_3c", "vertebral_2c", "seeds"
        }

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_shards_are_a_disjoint_cover(self, n_shards):
        plan = plan_suite_units(sigma_v=0.02, n_trials=5, **SMALL_GRID)
        seen: list = []
        for index in range(1, n_shards + 1):
            seen.extend(plan.shard(ShardSpec(index, n_shards)))
        assert len(seen) == len(plan.units)  # no unit claimed twice
        assert set(seen) == set(plan.units)  # no unit dropped

    def test_membership_invariant_under_dataset_reordering(self):
        datasets = ("whitewine", "seeds", "vertebral_2c", "balance_scale")
        forward = plan_suite_units(
            datasets=datasets, sigma_v=0.02, n_trials=5, **SMALL_GRID
        )
        backward = plan_suite_units(
            datasets=tuple(reversed(datasets)), sigma_v=0.02, n_trials=5,
            **SMALL_GRID,
        )
        assignment = {unit: unit.shard_index(3) for unit in forward.units}
        assert {unit: unit.shard_index(3) for unit in backward.units} == assignment

    def test_missing_diffs_plan_against_store_without_misses(self, tmp_path):
        plan = plan_suite_units(datasets=("seeds",), **SMALL_GRID)
        store = ResultStore(cache_dir=tmp_path / "cache")
        assert plan.missing(store) == plan.units
        store.put(plan.units[0].store_key, "stub")
        assert plan.missing(store) == plan.units[1:]
        assert store.stats.misses == 0  # pure membership checks


class TestVariationUnitJob:
    @pytest.mark.parametrize("training_sigma", [0.0, 0.02])
    def test_unit_job_equals_the_exploration_robustness_pass(self, training_sigma):
        """A shard's self-contained unit job retrains and simulates exactly
        what the unsharded robustness pass attaches to the sweep's point."""
        from repro.analysis.experiments import (
            _variation_tasks,
            _variation_unit_job,
            run_robust_exploration,
        )

        exploration = run_robust_exploration(
            "seeds", sigma_v=0.02, n_trials=5, training_sigma=training_sigma,
            use_cache=False, **SMALL_GRID,
        )
        for point in exploration.points:
            unit = variation_work_unit(
                "seeds", 0, 0.02, 5, point.depth, point.tau,
                training_sigma=training_sigma,
            )
            [task] = _variation_tasks([unit])
            assert _variation_unit_job(*task) == point.robustness


class TestNormalizeSigmas:
    def test_sorts_and_dedupes(self):
        assert normalize_sigmas((0.04, 0.01, 0.01, 0.02)) == (0.01, 0.02, 0.04)

    def test_scalar_and_none_forms(self):
        assert normalize_sigmas(0.02) == (0.02,)
        assert normalize_sigmas(None) == ()
        assert normalize_sigmas(None, sigma_v=0.02) == (0.02,)

    def test_both_spellings_rejected(self):
        with pytest.raises(ValueError, match="both"):
            normalize_sigmas((0.01,), sigma_v=0.02)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            normalize_sigmas((0.01, -0.02))

    @pytest.mark.parametrize(
        "sigmas", [(-0.0,), (-0.0, 0.0), (0.0, -0.0), (-0.0, 0.0, -0.0)]
    )
    def test_negative_zero_is_zero(self, sigmas):
        [sigma] = normalize_sigmas(sigmas)
        assert math.copysign(1.0, sigma) == 1.0

    def test_negative_zero_variation_unit_shares_the_zero_key(self):
        units = [
            variation_work_unit("seeds", 0, sigma, 5, 3, 0.01) for sigma in (-0.0, 0.0)
        ]
        assert units[0].store_key == units[1].store_key


class TestMultiSigmaPlanning:
    def test_one_variation_unit_per_dataset_sigma_grid_point(self):
        plan = plan_suite_units(
            datasets=("seeds",), sigmas=(0.01, 0.02), n_trials=5, **SMALL_GRID
        )
        kinds = [unit.kind for unit in plan.units]
        assert kinds.count("suite") == 2
        assert kinds.count("variation") == 2 * len(grid_points(**SMALL_GRID))
        sigmas = [
            unit.params["sigma_v"]
            for unit in plan.units
            if unit.kind == "variation"
        ]
        # sigma-ascending outer loop, grid-major inner loop
        assert sigmas == [0.01] * 4 + [0.02] * 4

    def test_single_sigma_tuple_equals_legacy_scalar_spelling(self):
        modern = plan_suite_units(
            datasets=("seeds",), sigmas=(0.02,), n_trials=5, **SMALL_GRID
        )
        legacy = plan_suite_units(
            datasets=("seeds",), sigma_v=0.02, n_trials=5, **SMALL_GRID
        )
        assert modern.units == legacy.units
        assert modern.sigmas == legacy.sigmas == (0.02,)
        assert modern.sigma_v == 0.02  # compat property

    def test_both_sigma_spellings_rejected(self):
        with pytest.raises(ValueError, match="both"):
            plan_suite_units(
                datasets=("seeds",), sigma_v=0.02, sigmas=(0.01,), **SMALL_GRID
            )

    def test_identities_invariant_to_sigma_ordering_and_duplicates(self):
        canonical = plan_suite_units(
            datasets=("seeds",), sigmas=(0.01, 0.04), n_trials=5, **SMALL_GRID
        )
        shuffled = plan_suite_units(
            datasets=("seeds",), sigmas=(0.04, 0.01, 0.04), n_trials=5,
            **SMALL_GRID,
        )
        assert shuffled.units == canonical.units
        assert shuffled.sigmas == (0.01, 0.04)
        assert shuffled.sigma_v is None  # scalar view undefined for multi-sigma

    @pytest.mark.parametrize("n_shards", [1, 3, 5])
    def test_multi_sigma_shards_are_a_disjoint_cover(self, n_shards):
        plan = plan_suite_units(
            datasets=("seeds", "vertebral_2c"), sigmas=(0.01, 0.02, 0.04),
            n_trials=5, **SMALL_GRID,
        )
        seen: list = []
        for index in range(1, n_shards + 1):
            seen.extend(plan.shard(ShardSpec(index, n_shards)))
        assert len(seen) == len(plan.units)
        assert set(seen) == set(plan.units)

    def test_per_sigma_units_alias_single_sigma_plans(self):
        """A multi-sigma plan is exactly the union of per-sigma plans: unit
        identities (and hence shard membership and store keys) do not depend
        on which other sigmas ride along in the sweep."""
        multi = plan_suite_units(
            datasets=("seeds",), sigmas=(0.01, 0.02), n_trials=5, **SMALL_GRID
        )
        union: set = set()
        for sigma in (0.01, 0.02):
            union.update(
                plan_suite_units(
                    datasets=("seeds",), sigmas=(sigma,), n_trials=5,
                    **SMALL_GRID,
                ).units
            )
        assert set(multi.units) == union


class TestCrossProcessStability:
    SCRIPT = (
        "from repro.core.sharding import plan_suite_units\n"
        "plan = plan_suite_units(sigma_v=0.02, n_trials=5,"
        " depths=(2, 3), taus=(0.0, 0.01))\n"
        "for unit in plan.units:\n"
        "    print(unit.label, unit.shard_index(5))\n"
    )

    @staticmethod
    def _env(hash_seed: str) -> dict:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in ("src", env.get("PYTHONPATH")) if part
        )
        return env

    def test_assignment_identical_across_hash_seeds(self):
        """Shard membership must not leak ``PYTHONHASHSEED`` (sha256 only)."""
        outputs = []
        for hash_seed in ("0", "424242"):
            completed = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                capture_output=True, text=True, check=True,
                env=self._env(hash_seed),
            )
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 8 * 2 + 8 * 4

    def test_in_process_assignment_matches_subprocess(self):
        plan = plan_suite_units(sigma_v=0.02, n_trials=5, **SMALL_GRID)
        expected = "".join(
            f"{unit.label} {unit.shard_index(5)}\n" for unit in plan.units
        )
        completed = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True, text=True, check=True,
            env=self._env("7"),
        )
        assert completed.stdout == expected


class TestMissingResultsError:
    def test_message_lists_labels_and_keys(self):
        error = MissingResultsError(
            [("suite:seeds[table1]", "deadbeef"), ("variation:x", "cafe")]
        )
        assert len(error.missing) == 2
        text = str(error)
        assert "2 planned unit(s) missing" in text
        assert "suite:seeds[table1]  deadbeef" in text
        assert "variation:x  cafe" in text
