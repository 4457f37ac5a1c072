"""Property-based equivalence of the packed-word evaluator (hypothesis).

Every batch prediction of a :class:`~repro.core.unary_tree.UnaryDecisionTree`
-- ``predict_levels``, ``predict_digit_matrix``,
``predict_from_digits_batch`` -- runs through :mod:`repro.core.bitkernel`.
It must agree with the scalar per-sample oracle ``predict_from_assignment``
on every digit batch, thermometer-consistent or not, including ragged batch
sizes that do not fill a 64-bit word, and must raise exactly when the oracle
finds a row that fires no label.  Hypothesis drives dataset x seed x depth
combinations over all eight paper benchmarks (trained trees are memoized per
configuration, so the suite trains each at most once) and adversarial batch
slicing; runs are derandomized for CI stability.
"""

import copy
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc.thermometer import pack_digit_matrix, unpack_digit_matrix
from repro.circuits.two_level import SumOfProducts
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.unary_tree import UnaryDecisionTree
from repro.datasets.registry import dataset_names, load_dataset
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset

ALL_DATASETS = dataset_names()

#: Ragged sizes around the word boundary plus word-aligned ones.
BATCH_SIZES = (0, 1, 3, 63, 64, 65, 127, 128, 129, 257)


def assert_matches_scalar_oracle(unary: UnaryDecisionTree, digits: np.ndarray) -> None:
    """The packed path returns ``predict_from_assignment``'s labels row by row,
    or raises ``ValueError`` where the oracle finds a row that fires no label."""
    names = unary.digit_variables()
    try:
        expected = [
            unary.predict_from_assignment(dict(zip(names, map(bool, row))))
            for row in digits
        ]
    except ValueError:
        with pytest.raises(ValueError, match="no label function fired"):
            unary.predict_digit_matrix(digits)
        return
    np.testing.assert_array_equal(
        unary.predict_digit_matrix(digits), np.array(expected, dtype=np.int64)
    )


def with_label_logic(unary: UnaryDecisionTree, logic: dict) -> UnaryDecisionTree:
    """Copy of ``unary`` whose label logic (scalar and packed) is ``logic``."""
    mutated = copy.copy(unary)
    mutated._label_logic = logic
    mutated._cubes = mutated._compile_cubes()
    return mutated


@lru_cache(maxsize=None)
def _trained(name: str, depth: int, seed: int):
    """Train once per (dataset, depth, seed); shared across examples."""
    dataset = load_dataset(name, seed=seed)
    X_train, X_test, y_train, _ = train_test_split(
        dataset.X, dataset.y, test_size=0.3, seed=seed
    )
    tree = ADCAwareTrainer(max_depth=depth, gini_threshold=0.01, seed=seed).fit(
        quantize_dataset(X_train), y_train, dataset.n_classes
    )
    return tree, UnaryDecisionTree(tree), quantize_dataset(X_test)


configs = st.tuples(
    st.sampled_from(ALL_DATASETS),
    st.integers(min_value=2, max_value=5),     # depth
    st.integers(min_value=0, max_value=1),     # training seed
)


class TestKernelEquivalenceProperties:
    @given(configs, st.sampled_from(BATCH_SIZES))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_kernel_matches_batch_engine_on_ragged_batches(self, config, n_samples):
        name, depth, seed = config
        tree, unary, X_levels = _trained(name, depth, seed)
        repeats = -(-n_samples // len(X_levels))
        levels = np.tile(X_levels, (repeats, 1))[:n_samples]
        predictions = unary.predict_levels(levels)
        np.testing.assert_array_equal(predictions, tree.predict_levels(levels))
        assert_matches_scalar_oracle(unary, unary.digit_matrix_from_levels(levels))

    @given(
        configs,
        st.sampled_from(BATCH_SIZES),
        st.floats(min_value=0.05, max_value=0.95),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_non_thermometer_digits_match_scalar_oracle(
        self, config, n_samples, density, drop_cube, rnd
    ):
        # Random digit matrices break the thermometer code.  Dropping one
        # cube from one label opens coverage holes, so some batches hold
        # rows that fire no label: then both paths must raise.
        name, depth, seed = config
        _, unary, _ = _trained(name, depth, seed)
        rng = np.random.default_rng(rnd)
        if drop_cube:
            logic = unary.label_logic
            label = int(rng.integers(unary.n_classes))
            terms = logic[label].terms
            if terms:
                del terms[int(rng.integers(len(terms)))]
                logic[label] = SumOfProducts(terms)
            unary = with_label_logic(unary, logic)
        digits = rng.random((n_samples, unary.n_unary_digits)) < density
        assert_matches_scalar_oracle(unary, digits)

    @given(configs)
    @settings(max_examples=24, deadline=None, derandomize=True)
    def test_kernel_matches_predict_from_digits_batch(self, config):
        name, depth, seed = config
        tree, unary, X_levels = _trained(name, depth, seed)
        if unary.n_unary_digits == 0:
            return
        digits: dict[int, dict[int, np.ndarray]] = {}
        for feature, level in unary.comparators:
            digits.setdefault(feature, {})[level] = X_levels[:, feature] >= level
        np.testing.assert_array_equal(
            unary.predict_from_digits_batch(digits), tree.predict_levels(X_levels)
        )
        np.testing.assert_array_equal(
            unary.predict_from_digits_batch(digits),
            [unary.predict_one_level(row) for row in X_levels],
        )

    @given(configs, st.sampled_from(BATCH_SIZES), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_pack_roundtrip_on_tree_digit_matrices(self, config, n_samples, rnd):
        name, depth, seed = config
        _, unary, X_levels = _trained(name, depth, seed)
        if unary.n_unary_digits == 0:
            return
        rng = np.random.default_rng(rnd)
        rows = rng.integers(0, len(X_levels), size=n_samples)
        digits = unary.digit_matrix_from_levels(X_levels[rows])
        packed = pack_digit_matrix(digits)
        assert packed.shape == (unary.n_unary_digits, -(-n_samples // 64))
        np.testing.assert_array_equal(unpack_digit_matrix(packed, n_samples), digits)
        np.testing.assert_array_equal(
            packed, pack_digit_matrix(np.ascontiguousarray(digits))
        )
