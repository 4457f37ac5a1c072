"""Offset-aware training: the expected-flip penalty through the whole stack.

Layers under test (see ``docs/TESTING.md`` for the taxonomy):

* trainer semantics: the penalty steers thresholds into sparse sample
  regions, is inert unless both knobs are positive, and validates inputs;
* explorer / framework threading: ``DesignSpaceExplorer(training_sigma=)``
  reaches the trainer (volts, normalized by the technology's supply) and
  the cache keys separate nominal from offset-aware runs;
* the benchmark claim (nightly): at matched depth/tau, offset-aware trees
  achieve strictly lower mean accuracy drop than nominal trees on at least
  half of the eight benchmarks.
"""

import numpy as np
import pytest

from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.exploration import DesignSpaceExplorer
from repro.core.spec import DesignSpec, train_point
from repro.core.variation import simulate_offset_variation
from repro.datasets.registry import dataset_names, load_dataset
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset


class TestTrainerSemantics:
    def test_penalty_centers_the_threshold_in_the_sparse_band(self):
        """Equal-Gini splits: nominal training is indifferent (tie-broken by
        RNG), offset-aware training must pick the widest-margin one."""
        # class 0 at levels {2, 3}, class 1 at {8, 9}: thresholds 4..8 all
        # separate perfectly, but only 6 is centered in the empty band.
        X_levels = np.array([[2], [3], [2], [3], [8], [9], [8], [9]])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        for seed in range(5):
            aware = CARTTrainer(
                max_depth=1, seed=seed, training_sigma=0.05, robustness_weight=1.0
            ).fit(X_levels, y, n_classes=2)
            assert (aware.root.feature, aware.root.threshold_level) == (0, 6)
        nominal_choices = {
            CARTTrainer(max_depth=1, seed=seed).fit(
                X_levels, y, n_classes=2
            ).root.threshold_level
            for seed in range(10)
        }
        assert nominal_choices <= {4, 5, 6, 7, 8}
        assert len(nominal_choices) > 1  # the nominal trainer really is blind

    def test_cart_weight_zero_is_bit_identical_to_nominal(self, small_split):
        X_train_levels, _, y_train, _ = small_split
        nominal = CARTTrainer(max_depth=4, seed=3).fit(X_train_levels, y_train, 3)
        disabled = CARTTrainer(
            max_depth=4, seed=3, training_sigma=0.05, robustness_weight=0.0
        ).fit(X_train_levels, y_train, 3)
        assert nominal == disabled

    def test_adc_aware_trainer_exposes_offset_aware_flag(self):
        assert not ADCAwareTrainer().offset_aware
        # sigma alone activates the penalty (weight defaults to 1.0, matching
        # the explorer); disabling either knob deactivates it
        assert ADCAwareTrainer(training_sigma=0.04).offset_aware
        assert not ADCAwareTrainer(robustness_weight=2.0).offset_aware
        assert not ADCAwareTrainer(
            training_sigma=0.04, robustness_weight=0.0
        ).offset_aware
        assert ADCAwareTrainer(
            training_sigma=0.04, robustness_weight=1.0
        ).offset_aware

    @pytest.mark.parametrize("trainer_cls", [CARTTrainer, ADCAwareTrainer])
    def test_negative_knobs_rejected(self, trainer_cls):
        with pytest.raises(ValueError, match="training_sigma"):
            trainer_cls(training_sigma=-0.01)
        with pytest.raises(ValueError, match="robustness_weight"):
            trainer_cls(robustness_weight=-1.0)


class TestExplorerThreading:
    def test_explorer_trains_offset_aware_trees(self, small_dataset):
        X, y = small_dataset
        X_train, X_test, y_train, y_test = train_test_split(
            X, y, test_size=0.3, seed=1
        )
        X_train_levels = quantize_dataset(X_train)
        X_test_levels = quantize_dataset(X_test)
        nominal = DesignSpaceExplorer(depths=(4,), taus=(0.02,), seed=0)
        aware = DesignSpaceExplorer(
            depths=(4,), taus=(0.02,), seed=0, training_sigma=0.04
        )
        nominal_point = nominal.evaluate_point(
            X_train_levels, y_train, X_test_levels, y_test, 3, 4, 0.02
        )
        aware_point = aware.evaluate_point(
            X_train_levels, y_train, X_test_levels, y_test, 3, 4, 0.02
        )
        assert nominal_point.tree != aware_point.tree

    def test_explorer_sigma_zero_matches_plain_explorer(self, small_dataset):
        X, y = small_dataset
        X_train, X_test, y_train, y_test = train_test_split(
            X, y, test_size=0.3, seed=1
        )
        X_train_levels = quantize_dataset(X_train)
        X_test_levels = quantize_dataset(X_test)
        plain = DesignSpaceExplorer(depths=(4,), taus=(0.01,), seed=0)
        zeroed = DesignSpaceExplorer(
            depths=(4,), taus=(0.01,), seed=0,
            training_sigma=0.0, robustness_weight=5.0,
        )
        assert plain.evaluate_point(
            X_train_levels, y_train, X_test_levels, y_test, 3, 4, 0.01
        ).tree == zeroed.evaluate_point(
            X_train_levels, y_train, X_test_levels, y_test, 3, 4, 0.01
        ).tree

    def test_explorer_sigma_is_in_volts(self, technology, small_dataset):
        """The explorer normalizes by the supply voltage before training."""
        X, y = small_dataset
        X_train, _, y_train, _ = train_test_split(X, y, test_size=0.3, seed=1)
        X_train_levels = quantize_dataset(X_train)
        explorer = DesignSpaceExplorer(
            technology=technology, depths=(4,), taus=(0.01,), seed=0,
            training_sigma=0.04,
        )
        direct = ADCAwareTrainer(
            max_depth=4, gini_threshold=0.01, seed=0,
            training_sigma=0.04 / technology.vdd, robustness_weight=1.0,
        ).fit(X_train_levels, y_train, 3)
        point = explorer.evaluate_point(
            X_train_levels, y_train, quantize_dataset(X_train), y_train, 3, 4, 0.01
        )
        assert point.tree == direct

    def test_spec_weight_zero_trains_the_nominal_tree(self):
        """(sigma > 0, w = 0) is nominal training: the spec collapses the
        knobs, and the tree equals the offset-aware trainer's at w = 0."""
        inert = DesignSpec(
            "seeds", 0, 4, 0.01, training_sigma=0.04, robustness_weight=0.0
        )
        assert inert == DesignSpec("seeds", 0, 4, 0.01)
        data = load_dataset("seeds", seed=0)
        X_train, _, y_train, _ = train_test_split(
            data.X, data.y, test_size=0.3, seed=0
        )
        zero_weight = ADCAwareTrainer(
            max_depth=4, gini_threshold=0.01, seed=0,
            training_sigma=0.04, robustness_weight=0.0,
        ).fit(quantize_dataset(X_train), y_train, data.n_classes)
        assert train_point(inert).tree == zero_weight

    def test_negative_explorer_knobs_rejected(self):
        with pytest.raises(ValueError, match="training_sigma"):
            DesignSpaceExplorer(training_sigma=-0.01)
        with pytest.raises(ValueError, match="robustness_weight"):
            DesignSpaceExplorer(robustness_weight=-1.0)


def variation_key(**knobs) -> str:
    """Variation key of seeds at depth 5, tau 0.01, 0.04 V, 100 trials."""
    return DesignSpec("seeds", 0, 5, 0.01, **knobs).key(
        "offset_variation", sigma_v=0.04, n_trials=100
    )


class TestCacheKeySeparation:
    def test_variation_key_distinguishes_training_sigma(self):
        nominal = variation_key()
        aware = variation_key(training_sigma=0.04, robustness_weight=1.0)
        assert nominal != aware

    def test_variation_key_canonicalizes_inert_penalties(self):
        """sigma=0 or weight=0 is nominal training: all spellings alias."""
        nominal = variation_key()
        assert nominal == variation_key(training_sigma=0.0, robustness_weight=3.0)
        assert nominal == variation_key(training_sigma=0.05, robustness_weight=0.0)

    def test_suite_key_distinguishes_training_sigma(self):
        from repro.analysis.experiments import suite_result_key

        nominal = suite_result_key("seeds", 0, False, (2, 3), (0.0,))
        aware = suite_result_key(
            "seeds", 0, False, (2, 3), (0.0,), training_sigma=0.04
        )
        inert = suite_result_key(
            "seeds", 0, False, (2, 3), (0.0,), training_sigma=0.04,
            robustness_weight=0.0,
        )
        assert nominal != aware
        assert nominal == inert


@pytest.mark.nightly
class TestBenchmarkRobustnessGains:
    """The headline claim, asserted over all eight benchmarks (nightly)."""

    SIGMA_V = 0.04
    DEPTH = 5
    TAU = 0.01
    N_TRIALS = 200

    def test_offset_aware_training_wins_on_at_least_half_the_benchmarks(self):
        from repro.pdk.egfet import default_technology

        # the trainer speaks normalized full-scale units, the simulation
        # volts: normalize explicitly so the claim stays matched-sigma even
        # if the calibrated corner's supply voltage changes
        trainer_sigma = self.SIGMA_V / default_technology().vdd
        wins = []
        for name in dataset_names():
            dataset = load_dataset(name, seed=0)
            X_train, X_test, y_train, y_test = train_test_split(
                dataset.X, dataset.y, test_size=0.3, seed=0
            )
            X_train_levels = quantize_dataset(X_train)
            drops = {}
            for label, weight in (("nominal", 0.0), ("aware", 1.0)):
                tree = ADCAwareTrainer(
                    max_depth=self.DEPTH, gini_threshold=self.TAU, seed=0,
                    training_sigma=trainer_sigma, robustness_weight=weight,
                ).fit(X_train_levels, y_train, dataset.n_classes)
                drops[label] = simulate_offset_variation(
                    tree, X_test, y_test, sigma_v=self.SIGMA_V,
                    n_trials=self.N_TRIALS, seed=0,
                ).mean_accuracy_drop
            wins.append(drops["aware"] < drops["nominal"])
        # strictly lower mean accuracy drop on >= 4 of the 8 benchmarks at
        # matched depth/tau (deterministic: every stage above is seeded)
        assert sum(wins) >= 4, f"offset-aware won only {sum(wins)}/8 benchmarks"
