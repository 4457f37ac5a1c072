"""Pre-columnar split search, retained as the equivalence/throughput oracle.

This module preserves, verbatim, the object-based split enumeration and the
list-based split-selection policies that predate the columnar
:class:`~repro.mltrees.split_search.CandidateTable` refactor: one Python loop
per feature, one :class:`~repro.mltrees.split_search.SplitCandidate` object
per (feature, threshold) pair, and interpreter-speed ``min``/list-comp scans
during selection.  The ADC-aware reference also keeps its own node-at-a-time
breadth-first ``fit`` loop and the S_Z / S_M / S_H partition
(:func:`partition_by_cost`), so it shares no training code with the
level-batched production trainer it checks.

No production path uses it.  It exists so that

* the trainer-equivalence tests can assert that the columnar trainers
  produce node-for-node identical trees (same RNG stream, same tie-breaks),
  and
* ``benchmarks/bench_training_throughput.py`` can measure the columnar
  speedup against the true historical hot loop

-- the same pattern as ``_predict_with_offsets_scalar`` in
:mod:`repro.core.variation` for the inference refactor.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.adc_aware_training import ADCAwareTrainer
from repro.mltrees.cart import CARTTrainer, GINI_TIE_TOLERANCE
from repro.mltrees.split_search import (
    SplitCandidate,
    check_training_data,
    class_histogram,
)
from repro.mltrees.tree import DecisionTree, TreeNode


def legacy_enumerate_split_candidates(
    X_levels: np.ndarray,
    y: np.ndarray,
    indices: np.ndarray,
    n_classes: int,
    n_levels: int,
    min_samples_leaf: int = 1,
) -> list[SplitCandidate]:
    """The historical enumeration: per-feature loop, one object per candidate."""
    indices = np.asarray(indices)
    if indices.size == 0:
        return []
    y_node = y[indices]
    n_node = indices.size
    candidates: list[SplitCandidate] = []
    thresholds = np.arange(1, n_levels)  # k = 1 .. n_levels - 1

    for feature in range(X_levels.shape[1]):
        values = X_levels[indices, feature]
        # hist[level, class] = number of node samples at that level and class
        flat = np.bincount(
            values * n_classes + y_node, minlength=n_levels * n_classes
        )
        hist = flat.reshape(n_levels, n_classes)
        total_counts = hist.sum(axis=0)
        # left child of threshold k = samples with level < k
        cumulative = np.cumsum(hist, axis=0)
        left_counts = cumulative[thresholds - 1]          # shape (n_thresholds, C)
        right_counts = total_counts[None, :] - left_counts
        n_left = left_counts.sum(axis=1)
        n_right = right_counts.sum(axis=1)

        valid = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
        if not np.any(valid):
            continue

        with np.errstate(divide="ignore", invalid="ignore"):
            gini_left = 1.0 - np.sum(
                (left_counts / np.maximum(n_left, 1)[:, None]) ** 2, axis=1
            )
            gini_right = 1.0 - np.sum(
                (right_counts / np.maximum(n_right, 1)[:, None]) ** 2, axis=1
            )
        weighted = (n_left * gini_left + n_right * gini_right) / n_node

        for position in np.nonzero(valid)[0]:
            candidates.append(
                SplitCandidate(
                    feature=feature,
                    threshold_level=int(thresholds[position]),
                    gini=float(weighted[position]),
                    n_left=int(n_left[position]),
                    n_right=int(n_right[position]),
                )
            )
    return candidates


@dataclass(frozen=True)
class SplitCostSets:
    """Partition of the tolerance set ``S`` by induced ADC hardware cost."""

    zero_cost: tuple[SplitCandidate, ...]
    medium_cost: tuple[SplitCandidate, ...]
    high_cost: tuple[SplitCandidate, ...]


def partition_by_cost(
    candidates: list[SplitCandidate],
    selected_pairs: set[tuple[int, int]],
    selected_features: set[int],
) -> SplitCostSets:
    """Split ``candidates`` into the S_Z / S_M / S_H sets of Algorithm 1.

    S_Z holds pairs already selected at another node, S_M new levels on an
    input that already has an ADC, and S_H pairs on a new input; each keeps
    the candidates' order.
    """
    zero_list: list[SplitCandidate] = []
    medium_list: list[SplitCandidate] = []
    high_list: list[SplitCandidate] = []
    for candidate in candidates:
        pair = (candidate.feature, candidate.threshold_level)
        if pair in selected_pairs:
            zero_list.append(candidate)
        elif candidate.feature in selected_features:
            medium_list.append(candidate)
        else:
            high_list.append(candidate)
    return SplitCostSets(tuple(zero_list), tuple(medium_list), tuple(high_list))


class LegacyCARTTrainer(CARTTrainer):
    """CART trainer on the historical object-based split search."""

    def _node_candidates(
        self,
        X_levels: np.ndarray,
        y: np.ndarray,
        indices: np.ndarray,
        n_classes: int,
        n_levels: int,
    ) -> list[SplitCandidate]:
        return legacy_enumerate_split_candidates(
            X_levels, y, indices, n_classes, n_levels, self.min_samples_leaf
        )

    def _select_split(
        self, candidates: list[SplitCandidate], rng: random.Random
    ) -> SplitCandidate:
        """The historical list scan: Python ``min`` plus a list comprehension."""
        best = min(candidate.gini for candidate in candidates)
        tied = [c for c in candidates if c.gini <= best + GINI_TIE_TOLERANCE]
        return rng.choice(tied)


class LegacyADCAwareTrainer(ADCAwareTrainer):
    """ADC-aware trainer on the historical object-based split search.

    It shares only the constructor with :class:`ADCAwareTrainer`: ``fit`` is
    the historical node-at-a-time breadth-first loop, which enumerates and
    selects one node per step through the hooks below.  Scores are nominal
    Gini; the expected-flip penalty of offset-aware training is not modelled.
    """

    def fit(
        self, X_levels: np.ndarray, y: np.ndarray, n_classes: int | None = None
    ) -> DecisionTree:
        """Grow the tree breadth-first, one node per queue step."""
        X_levels, y, n_classes = check_training_data(
            X_levels, y, n_classes, self.resolution_bits
        )
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
            candidates = self._node_candidates(X_levels, y, indices, n_classes, n_levels)
            if not candidates:
                continue
            split = self._select_split(candidates, selected_pairs, selected_features, rng)

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

    def _node_candidates(
        self,
        X_levels: np.ndarray,
        y: np.ndarray,
        indices: np.ndarray,
        n_classes: int,
        n_levels: int,
    ) -> list[SplitCandidate]:
        return legacy_enumerate_split_candidates(
            X_levels, y, indices, n_classes, n_levels, self.min_samples_leaf
        )

    def _select_split(
        self,
        candidates: list[SplitCandidate],
        selected_pairs: set[tuple[int, int]],
        selected_features: set[int],
        rng: random.Random,
    ) -> SplitCandidate:
        """The historical Algorithm 1 selection over candidate object lists."""
        best_gini = min(candidate.gini for candidate in candidates)
        tolerance_set = [
            c for c in candidates if c.gini <= best_gini + self.gini_threshold + 1e-15
        ]
        sets = partition_by_cost(tolerance_set, selected_pairs, selected_features)

        if sets.zero_cost:
            pool = list(sets.zero_cost)
            target_gini = min(c.gini for c in pool)
            finalists = [c for c in pool if c.gini <= target_gini + GINI_TIE_TOLERANCE]
            return rng.choice(finalists)

        pool = list(sets.medium_cost) if sets.medium_cost else list(sets.high_cost)
        if self.prefer_low_power_levels:
            # Secondary objective: smallest threshold => lowest-power comparator.
            min_level = min(c.threshold_level for c in pool)
            pool = [c for c in pool if c.threshold_level == min_level]
        target_gini = min(c.gini for c in pool)
        finalists = [c for c in pool if c.gini <= target_gini + GINI_TIE_TOLERANCE]
        return rng.choice(finalists)
