"""Unit tests for the packed-word evaluator of the unary label logic.

Every batch prediction of :class:`~repro.core.unary_tree.UnaryDecisionTree`
runs through :mod:`repro.core.bitkernel`; the oracle is the tree's scalar
per-sample rule, :meth:`~repro.core.unary_tree.UnaryDecisionTree.predict_from_assignment`.
"""

import copy

import numpy as np
import pytest

from repro.adc.thermometer import (
    WORD_BITS,
    pack_digit_matrix,
    packed_tail_mask,
    unpack_digit_matrix,
)
from repro.circuits.two_level import Literal, SumOfProducts
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.exploration import DesignSpaceExplorer
from repro.core.unary_tree import UnaryDecisionTree, digit_variable
from repro.datasets.registry import load_dataset
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import (
    ENGINES,
    level_predictor,
    resolve_engine,
    train_test_split,
)
from repro.mltrees.quantize import quantize_dataset

NO_FIRE = (
    "no label function fired; the digit assignment is inconsistent with a "
    "thermometer code"
)


def scalar_oracle(unary: UnaryDecisionTree, digits: np.ndarray) -> np.ndarray | None:
    """Per-row ``predict_from_assignment``; ``None`` when some row fires no label."""
    names = unary.digit_variables()
    try:
        return np.array(
            [
                unary.predict_from_assignment(dict(zip(names, map(bool, row))))
                for row in digits
            ],
            dtype=np.int64,
        )
    except ValueError:
        return None


def assert_matches_scalar_oracle(unary: UnaryDecisionTree, digits: np.ndarray) -> None:
    """The packed path returns the oracle's labels, or raises where it does."""
    expected = scalar_oracle(unary, digits)
    if expected is None:
        with pytest.raises(ValueError, match=NO_FIRE):
            unary.predict_digit_matrix(digits)
    else:
        np.testing.assert_array_equal(unary.predict_digit_matrix(digits), expected)


def with_label_logic(unary: UnaryDecisionTree, logic: dict) -> UnaryDecisionTree:
    """Copy of ``unary`` whose label logic (scalar and packed) is ``logic``."""
    mutated = copy.copy(unary)
    mutated._label_logic = logic
    mutated._cubes = mutated._compile_cubes()
    return mutated


@pytest.fixture(scope="module")
def trained():
    """A depth-4 ADC-aware tree on seeds plus its quantized test matrix."""
    dataset = load_dataset("seeds", seed=0)
    X_train, X_test, y_train, y_test = train_test_split(
        dataset.X, dataset.y, test_size=0.3, seed=0
    )
    tree = ADCAwareTrainer(max_depth=4, gini_threshold=0.01, seed=0).fit(
        quantize_dataset(X_train), y_train, dataset.n_classes
    )
    return tree, quantize_dataset(X_test), y_test


class TestPacking:
    @pytest.mark.parametrize("n_samples", [0, 1, 63, 64, 65, 127, 128, 257])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_pack_unpack_roundtrip(self, n_samples, order):
        rng = np.random.default_rng(n_samples)
        digits = rng.random((n_samples, 7)) < 0.5
        digits = np.asfortranarray(digits) if order == "F" else np.ascontiguousarray(digits)
        packed = pack_digit_matrix(digits)
        assert packed.dtype == np.uint64
        assert packed.shape == (7, -(-n_samples // WORD_BITS))
        np.testing.assert_array_equal(unpack_digit_matrix(packed, n_samples), digits)

    def test_pack_layout_is_little_endian_lsb_first(self):
        digits = np.zeros((65, 2), dtype=bool)
        digits[0, 0] = True    # sample 0 -> bit 0 of word 0
        digits[63, 0] = True   # sample 63 -> bit 63 of word 0
        digits[64, 1] = True   # sample 64 -> bit 0 of word 1
        packed = pack_digit_matrix(digits)
        assert packed[0, 0] == (1 | (1 << 63))
        assert packed[0, 1] == 0
        assert packed[1, 0] == 0
        assert packed[1, 1] == 1

    def test_pack_memory_order_parity(self):
        rng = np.random.default_rng(0)
        digits = rng.random((130, 5)) < 0.5
        np.testing.assert_array_equal(
            pack_digit_matrix(np.ascontiguousarray(digits)),
            pack_digit_matrix(np.asfortranarray(digits)),
        )

    def test_pack_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            pack_digit_matrix(np.zeros(8, dtype=bool))

    def test_tail_mask(self):
        assert packed_tail_mask(64) == np.uint64(0xFFFF_FFFF_FFFF_FFFF)
        assert packed_tail_mask(128) == np.uint64(0xFFFF_FFFF_FFFF_FFFF)
        assert packed_tail_mask(1) == np.uint64(1)
        assert packed_tail_mask(65) == np.uint64(1)
        assert packed_tail_mask(63) == np.uint64((1 << 63) - 1)


class TestKernelEquivalence:
    @pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 257])
    def test_ragged_batches_match_batch_engine(self, trained, n_samples):
        tree, X_levels, _ = trained
        unary = UnaryDecisionTree(tree)
        repeats = -(-n_samples // len(X_levels))
        levels = np.tile(X_levels, (repeats, 1))[:n_samples]
        predictions = unary.predict_levels(levels)
        np.testing.assert_array_equal(predictions, tree.predict_levels(levels))
        np.testing.assert_array_equal(
            predictions, [unary.predict_one_level(row) for row in levels]
        )

    @pytest.mark.parametrize("n_samples", [0, 1, 63, 64, 65, 129])
    @pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
    def test_non_thermometer_digits_match_scalar_oracle(
        self, trained, n_samples, density
    ):
        # Random digit matrices break the thermometer code (digit k set,
        # digit k-1 clear), so several labels -- or none -- may fire.
        tree, _, _ = trained
        unary = UnaryDecisionTree(tree)
        rng = np.random.default_rng(n_samples)
        digits = rng.random((n_samples, unary.n_unary_digits)) < density
        assert_matches_scalar_oracle(unary, digits)

    def test_matches_predict_from_digits_batch(self, trained):
        tree, X_levels, _ = trained
        unary = UnaryDecisionTree(tree)
        digits: dict[int, dict[int, np.ndarray]] = {}
        for feature, level in unary.comparators:
            digits.setdefault(feature, {})[level] = X_levels[:, feature] >= level
        rows = [
            {feature: {level: bits[i] for level, bits in per.items()}
             for feature, per in digits.items()}
            for i in range(len(X_levels))
        ]
        np.testing.assert_array_equal(
            unary.predict_from_digits_batch(digits),
            [unary.predict_from_digits(row) for row in rows],
        )

    def test_single_leaf_tree_constant_true_cube(self):
        # Constant features leave nothing to split on: the tree is a single
        # leaf, there are no comparators, its one cube is empty (constant
        # true) and every sample gets the majority label.
        X_levels = np.zeros((10, 3), dtype=np.int64)
        y = np.zeros(10, dtype=np.int64)
        tree = CARTTrainer(max_depth=2, seed=0).fit(X_levels, y, n_classes=2)
        unary = UnaryDecisionTree(tree)
        assert unary.n_unary_digits == 0
        np.testing.assert_array_equal(
            unary.predict_levels(np.zeros((130, 3), dtype=np.int64)),
            np.zeros(130, dtype=np.int64),
        )
        for n_samples in (0, 1, 64, 65):
            assert_matches_scalar_oracle(unary, np.zeros((n_samples, 0), dtype=bool))

    @pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 129])
    def test_uncovered_digits_raise_like_scalar_oracle(self, trained, n_samples):
        # The minimized label logic of a real tree covers every thermometer
        # code, so the no-fire guard is exercised with a synthetic coverage
        # hole: every label requires digit 0.
        tree, _, _ = trained
        unary = UnaryDecisionTree(tree)
        first = Literal(digit_variable(*unary.comparators[0]), positive=True)
        holed = with_label_logic(
            unary, {label: SumOfProducts([[first]]) for label in range(unary.n_classes)}
        )
        bad = np.ones((n_samples, unary.n_unary_digits), dtype=bool)
        bad[-1, 0] = False  # one row, the last, fires nothing
        with pytest.raises(ValueError, match=NO_FIRE):
            holed.predict_from_assignment(dict(zip(unary.digit_variables(), bad[-1])))
        with pytest.raises(ValueError, match=NO_FIRE):
            holed.predict_digit_matrix(bad)
        # the guard scans only real lanes: a firing batch stays fine even
        # when its ragged tail pads the last word with zeros
        good = np.ones((n_samples, unary.n_unary_digits), dtype=bool)
        np.testing.assert_array_equal(
            holed.predict_digit_matrix(good), np.zeros(n_samples, dtype=np.int64)
        )

    def test_empty_batch(self, trained):
        tree, X_levels, _ = trained
        predictions = UnaryDecisionTree(tree).predict_levels(X_levels[:0])
        assert predictions.shape == (0,)

    def test_predict_raw_samples(self, trained):
        tree, _, _ = trained
        dataset = load_dataset("seeds", seed=0)
        np.testing.assert_array_equal(
            UnaryDecisionTree(tree).predict(dataset.X), tree.predict(dataset.X)
        )


class TestDigitMatrixShape:
    """The packed path accepts exactly ``(n_samples, n_unary_digits)``."""

    @pytest.mark.parametrize("width_delta", [-1, 1, 3])
    def test_wrong_width_raises(self, trained, width_delta):
        tree, _, _ = trained
        unary = UnaryDecisionTree(tree)
        assert unary.n_unary_digits == 10
        digits = np.ones((5, unary.n_unary_digits + width_delta), dtype=bool)
        with pytest.raises(ValueError, match=r"expected an \(n_samples, 10\) digit matrix"):
            unary.predict_digit_matrix(digits)

    @pytest.mark.parametrize("shape", [(10,), (2, 5, 10), ()])
    def test_non_matrix_raises(self, trained, shape):
        tree, _, _ = trained
        unary = UnaryDecisionTree(tree)
        with pytest.raises(ValueError, match="digit matrix"):
            unary.predict_digit_matrix(np.ones(shape, dtype=bool))


class TestEngineDispatch:
    def test_engine_names(self):
        assert ENGINES == ("batch", "bitparallel")
        for engine in ENGINES:
            assert resolve_engine(engine) == engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("simd")

    def test_engines_are_bit_identical(self, trained):
        tree, X_levels, _ = trained
        np.testing.assert_array_equal(
            level_predictor(tree, "batch")(X_levels),
            level_predictor(tree, "bitparallel")(X_levels),
        )

    def test_bitparallel_is_the_unary_packed_path(self, trained):
        tree, X_levels, _ = trained
        predict = level_predictor(tree, "bitparallel")
        assert isinstance(predict.__self__, UnaryDecisionTree)
        assert predict.__self__.tree is tree
        np.testing.assert_array_equal(
            predict(X_levels), UnaryDecisionTree(tree).predict_levels(X_levels)
        )

    def test_design_point_tree_serves_on_both_engines(self):
        dataset = load_dataset("seeds", seed=0)
        X_train, X_test, y_train, y_test = train_test_split(
            dataset.X, dataset.y, test_size=0.3, seed=0
        )
        X_test_levels = quantize_dataset(X_test)
        point = DesignSpaceExplorer(depths=(2, 3), taus=(0.0, 0.01), seed=0).explore(
            quantize_dataset(X_train),
            y_train,
            X_test_levels,
            y_test,
            dataset.n_classes,
            dataset_name="seeds",
        )[0]
        np.testing.assert_array_equal(
            level_predictor(point.tree, "bitparallel")(X_test_levels),
            point.tree.predict_levels(X_test_levels),
        )
