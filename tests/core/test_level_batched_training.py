"""Level-batched ADC-aware training vs the node-at-a-time columnar loop.

:meth:`ADCAwareTrainer.fit` enumerates the candidates of a whole tree level
at once and then runs Algorithm 1's selection node by node.  The reference
below is the loop it replaced, kept verbatim: one
:func:`~repro.mltrees.split_search.enumerate_split_candidates` table per
node, the cost partition as boolean masks over that table, one node per
queue step.  Unlike the object-based oracle in
:mod:`repro.mltrees.legacy_split_search`, it also scores the offset-aware
expected-flip penalty, so both training modes are checked.

Trees must be node-for-node identical (node ids, splits, predictions and
class counts, all Python ``int``), which also pins the RNG stream: one
draw of a different size anywhere changes every later tie-break.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS
from repro.datasets.registry import dataset_names, load_dataset
from repro.mltrees.cart import GINI_TIE_TOLERANCE
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.mltrees.split_search import (
    CandidateTable,
    SplitCandidate,
    class_histogram,
    enumerate_split_candidates,
)
from repro.mltrees.tree import DecisionTree, TreeNode

SMALL_DATASETS = ("balance_scale", "vertebral_3c", "vertebral_2c", "seeds")
LARGE_DATASETS = tuple(sorted(set(dataset_names()) - set(SMALL_DATASETS)))
SEEDS = (0, 1)
#: Offset-aware mode: sigma = 0.02 of full scale, weight 1.
OFFSET_AWARE = {"training_sigma": 0.02, "robustness_weight": 1.0}
MODES = {"nominal": {}, "offset_aware": OFFSET_AWARE}


# ---------------------------------------------------------------------- #
# reference: the node-at-a-time columnar trainer
# ---------------------------------------------------------------------- #
def _cost_masks(
    table: CandidateTable,
    selected_pairs: set[tuple[int, int]],
    selected_features: set[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = len(table)
    if selected_pairs and n:
        pair_features = [feature for feature, _ in selected_pairs]
        pair_levels = [level for _, level in selected_pairs]
        lookup = np.zeros(
            (
                max(int(table.feature.max()), max(pair_features)) + 1,
                max(int(table.threshold_level.max()), max(pair_levels)) + 1,
            ),
            dtype=bool,
        )
        lookup[pair_features, pair_levels] = True
        zero = lookup[table.feature, table.threshold_level]
    else:
        zero = np.zeros(n, dtype=bool)
    if selected_features and n:
        known = np.zeros(
            max(int(table.feature.max()), max(selected_features)) + 1, dtype=bool
        )
        known[list(selected_features)] = True
        on_known_input = known[table.feature]
    else:
        on_known_input = np.zeros(n, dtype=bool)
    medium = on_known_input & ~zero
    high = ~on_known_input & ~zero
    return zero, medium, high


class NodeAtATimeTrainer(ADCAwareTrainer):
    """Reference trainer: one candidate table and one selection per step."""

    def _split_scores(self, candidates: CandidateTable) -> np.ndarray:
        if not self.offset_aware:
            return candidates.gini
        return candidates.gini + self.robustness_weight * candidates.expected_flips

    def _reference_select(
        self,
        candidates: CandidateTable,
        selected_pairs: set[tuple[int, int]],
        selected_features: set[int],
        rng: random.Random,
    ) -> SplitCandidate:
        scores = self._split_scores(candidates)
        tolerance_set = candidates.select(
            scores <= scores.min() + self.gini_threshold + 1e-15
        )
        zero, medium, high = _cost_masks(
            tolerance_set, selected_pairs, selected_features
        )
        zero_cost = tolerance_set.select(zero)
        medium_cost = tolerance_set.select(medium)
        high_cost = tolerance_set.select(high)

        if zero_cost:
            pool = zero_cost
        else:
            pool = medium_cost if medium_cost else high_cost
            if self.prefer_low_power_levels:
                pool = pool.select(pool.threshold_level == pool.threshold_level.min())
        pool_scores = self._split_scores(pool)
        finalists = np.nonzero(pool_scores <= pool_scores.min() + GINI_TIE_TOLERANCE)[0]
        return pool.candidate(rng.choice(finalists.tolist()))

    def fit(self, X_levels, y, n_classes=None) -> DecisionTree:
        X_levels = np.asarray(X_levels, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if n_classes is None:
            n_classes = int(y.max()) + 1
        n_levels = 2 ** self.resolution_bits

        rng = random.Random(self.seed)
        selected_pairs: set[tuple[int, int]] = set()
        selected_features: set[int] = set()
        node_counter = 0

        def make_node(indices: np.ndarray, depth: int) -> TreeNode:
            nonlocal node_counter
            counts = class_histogram(y[indices], n_classes)
            node = TreeNode(
                node_id=node_counter,
                prediction=int(np.argmax(counts)),
                n_samples=int(indices.size),
                class_counts=tuple(int(c) for c in counts),
                depth=depth,
            )
            node_counter += 1
            return node

        root_indices = np.arange(len(y))
        root = make_node(root_indices, 0)
        queue: deque[tuple[TreeNode, np.ndarray]] = deque([(root, root_indices)])

        while queue:
            node, indices = queue.popleft()
            counts = np.asarray(node.class_counts)
            is_pure = int(np.count_nonzero(counts)) <= 1
            if (
                node.depth >= self.max_depth
                or is_pure
                or indices.size < self.min_samples_split
            ):
                continue
            candidates = enumerate_split_candidates(
                X_levels, y, indices, n_classes, n_levels, self.min_samples_leaf,
                flip_sigma=self.training_sigma if self.offset_aware else None,
            )
            if not candidates:
                continue
            split = self._reference_select(
                candidates, selected_pairs, selected_features, rng
            )

            mask = X_levels[indices, split.feature] >= split.threshold_level
            right_indices = indices[mask]
            left_indices = indices[~mask]
            if left_indices.size == 0 or right_indices.size == 0:
                continue

            node.feature = split.feature
            node.threshold_level = split.threshold_level
            selected_pairs.add((split.feature, split.threshold_level))
            selected_features.add(split.feature)

            node.left = make_node(left_indices, node.depth + 1)
            node.right = make_node(right_indices, node.depth + 1)
            queue.append((node.left, left_indices))
            queue.append((node.right, right_indices))

        return DecisionTree(
            root=root,
            n_features=X_levels.shape[1],
            n_classes=n_classes,
            resolution_bits=self.resolution_bits,
        )


# ---------------------------------------------------------------------- #
# comparison
# ---------------------------------------------------------------------- #
_INT_FIELDS = ("node_id", "prediction", "n_samples", "depth")


def _node_record(node: TreeNode) -> tuple:
    """Every field of a node, with each integer's exact Python type."""
    fields = [getattr(node, name) for name in _INT_FIELDS]
    fields += [node.feature, node.threshold_level, *node.class_counts]
    for value in fields:
        assert value is None or type(value) is int, (node.node_id, value, type(value))
    assert type(node.class_counts) is tuple
    return (*fields, len(node.class_counts))


def assert_same_tree(batched: DecisionTree, reference: DecisionTree) -> None:
    assert batched == reference
    batched_nodes = [_node_record(node) for node in batched.nodes()]
    reference_nodes = [_node_record(node) for node in reference.nodes()]
    assert batched_nodes == reference_nodes


def _fit_both(X_levels, y, n_classes, **params):
    batched = ADCAwareTrainer(**params).fit(X_levels, y, n_classes)
    reference = NodeAtATimeTrainer(**params).fit(X_levels, y, n_classes)
    return batched, reference


def test_reference_is_not_the_production_fit():
    assert NodeAtATimeTrainer.fit is not ADCAwareTrainer.fit


@pytest.fixture(scope="module")
def quantized_split():
    """Memoized per-dataset quantized 70/30 training splits."""
    cache = {}

    def _get(name: str):
        if name not in cache:
            dataset = load_dataset(name, seed=0)
            X_train, _, y_train, _ = train_test_split(
                dataset.X, dataset.y, test_size=0.3, seed=0
            )
            cache[name] = (quantize_dataset(X_train), y_train, dataset.n_classes)
        return cache[name]

    return _get


def _assert_grid_identical(name: str, mode: str, quantized_split) -> None:
    X_levels, y, n_classes = quantized_split(name)
    for seed in SEEDS:
        for depth in DEFAULT_DEPTHS:
            for tau in DEFAULT_TAUS:
                batched, reference = _fit_both(
                    X_levels, y, n_classes, max_depth=depth, gini_threshold=tau,
                    seed=seed, **MODES[mode],
                )
                assert_same_tree(batched, reference)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", SMALL_DATASETS)
def test_paper_grid_identical_small(name, mode, quantized_split):
    _assert_grid_identical(name, mode, quantized_split)


@pytest.mark.slow
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", LARGE_DATASETS)
def test_paper_grid_identical_large(name, mode, quantized_split):
    _assert_grid_identical(name, mode, quantized_split)


def test_batches_split_a_wide_level(monkeypatch, quantized_split):
    """A level enumerated over many small batches grows the same tree."""
    import repro.core.adc_aware_training as training

    X_levels, y, n_classes = quantized_split("vertebral_3c")
    monkeypatch.setattr(training, "_BATCH_CELLS", 1)
    for mode in MODES.values():
        assert_same_tree(*_fit_both(
            X_levels, y, n_classes, max_depth=8, gini_threshold=0.01, **mode
        ))


@st.composite
def small_problems(draw):
    resolution_bits = draw(st.integers(1, 4))
    n_samples = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 4))
    X_levels = np.array(
        draw(st.lists(
            st.integers(0, 2 ** resolution_bits - 1),
            min_size=n_samples * n_features, max_size=n_samples * n_features,
        )),
        dtype=np.int64,
    ).reshape(n_samples, n_features)
    # labels drawn from a prefix of the classes: some classes never occur
    n_present = draw(st.integers(1, n_classes))
    y = np.array(
        draw(st.lists(st.integers(0, n_present - 1),
                      min_size=n_samples, max_size=n_samples)),
        dtype=np.int64,
    )
    params = {
        "resolution_bits": resolution_bits,
        "max_depth": draw(st.integers(1, 6)),
        "gini_threshold": draw(st.sampled_from((0.0, 0.005, 0.03, 0.2))),
        "min_samples_leaf": draw(st.integers(1, 3)),
        "min_samples_split": draw(st.integers(2, 6)),
        "prefer_low_power_levels": draw(st.booleans()),
        "seed": draw(st.integers(0, 3)),
        **draw(st.sampled_from(tuple(MODES.values()))),
    }
    return X_levels, y, n_classes, params


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problem=small_problems())
@example(problem=(  # single feature, 1-bit input
    np.array([[0], [1], [1], [0], [1]]), np.array([0, 1, 1, 0, 0]), 2,
    {"resolution_bits": 1, "max_depth": 3},
))
@example(problem=(  # class 2 of 3 never occurs; ties on both features
    np.array([[0, 0], [3, 3], [1, 1], [2, 2]]), np.array([0, 1, 0, 1]), 3,
    {"resolution_bits": 2, "max_depth": 4, "gini_threshold": 0.5},
))
@example(problem=(  # a non-pure node of identical samples has no valid split
    np.array([[1], [1], [2], [3]]), np.array([0, 1, 0, 1]), 2,
    {"resolution_bits": 2, "max_depth": 3},
))
def test_random_problems_identical(problem):
    X_levels, y, n_classes, params = problem
    assert_same_tree(*_fit_both(X_levels, y, n_classes, **params))
