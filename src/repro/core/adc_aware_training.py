"""ADC-aware decision-tree training (Algorithm 1, Section III-C).

The trainer grows a Gini decision tree like conventional CART, but the split
selected at each node is chosen with hardware awareness.  With ``G`` the best
Gini score at the node and ``tau`` the tolerance hyperparameter, the
candidate set ``S = {(Ii, C) | Gini(Ii, C) <= G + tau}`` is partitioned by the
ADC hardware a selection would add:

* ``S_Z`` (zero cost): the pair has already been selected at another node --
  the comparator exists, only wiring is added;
* ``S_M`` (medium cost): the input already has an ADC, but a new reference
  level (one extra comparator) is required;
* ``S_H`` (high cost): the input is used for the first time -- a whole new
  ADC channel (ladder + one comparator) is required.

The first non-empty set in that order wins.  Inside ``S_M`` / ``S_H`` the pair
with the *smallest threshold* is preferred, because lower reference levels
yield lower comparator power (Fig. 3); remaining ties are resolved by the
best Gini score and then uniformly at random, as in the paper.

``tau = 0`` leaves accuracy untouched (only equivalent-quality splits are
reordered); larger ``tau`` trades accuracy for further hardware reduction.

The tree is grown breadth-first, one level at a time.  A node's candidate
table depends only on the samples that reached it, and every node of depth
``d`` exists before any of them is split, so the candidates of a whole level
are enumerated together: one ``bincount`` builds the ``(node, feature,
level, class)`` histogram, and :func:`~repro.mltrees.split_search.split_gini`
-- the scoring the per-node enumeration also uses -- turns it into every
candidate's weighted Gini with one ``cumsum`` along the level axis.  The
offset-aware expected-flip penalty stays one matrix product per node.  The
tolerance mask ``score <= min + tau`` of every node falls out of the same
arrays.  Nodes are batched up to a fixed number of histogram cells, which
bounds the level's buffers.

Selection stays sequential: the cost sets of a node depend on the pairs
selected at every earlier node, and the tie-breaking RNG is one stream, so
the level's nodes are visited in queue order and each runs the selection
above on its own small tolerance set.  Node ids, RNG draws and cost sets
therefore evolve exactly as in a node-at-a-time loop, and the trees are
identical to it (``tests/core/test_level_batched_training.py``).

The conventional trainer (:class:`~repro.mltrees.cart.CARTTrainer`) is not
batched this way: it grows depth-first, so its RNG draws interleave across
subtrees, and a level order would change its trees.
"""

from __future__ import annotations

import random

import numpy as np

from repro.mltrees.cart import GINI_TIE_TOLERANCE
from repro.mltrees.split_search import (
    check_training_data,
    level_flip_matrix,
    split_gini,
)
from repro.mltrees.tree import DecisionTree, TreeNode

#: Histogram cells (node x feature x level x class) enumerated in one batch.
#: Bounds every per-level buffer to about 1 MiB, whatever the level's node
#: count and the dataset's width.
_BATCH_CELLS = 1 << 17

#: One tolerance-set member: ``(score, feature, threshold_level)``.
Candidate = tuple[float, int, int]


def _make_node(node_id: int, counts: list[int], depth: int) -> TreeNode:
    """A leaf holding ``counts`` (Python ints) as its class histogram."""
    return TreeNode(
        node_id=node_id,
        prediction=counts.index(max(counts)),
        n_samples=sum(counts),
        class_counts=tuple(counts),
        depth=depth,
    )


class ADCAwareTrainer:
    """Greedy Gini trainer with the ADC-aware split selection of Algorithm 1.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (the paper sweeps 2..8).
    gini_threshold:
        The tolerance ``tau`` (the paper sweeps 0..0.03 in steps of 0.005).
    resolution_bits:
        Input quantization (4 bits in the paper).
    min_samples_leaf, min_samples_split:
        Standard growth constraints.
    seed:
        Seed of the tie-breaking RNG.
    prefer_low_power_levels:
        Secondary objective of Algorithm 1: among equally costly new
        comparators, prefer the smallest threshold (lowest-power reference
        level).  Disabling it is the ablation of Section III-C's power
        optimization -- the comparator *count* is still minimized but not the
        position of the retained levels.
    training_sigma:
        Comparator input-offset sigma assumed during training, as a fraction
        of the ADC full scale (``sigma_volts / vdd``).  With
        ``robustness_weight > 0`` the analytic expected-flip fraction of
        every candidate joins its split score, so the tolerance set and all
        tie-breaks prefer thresholds that sit in sparse sample regions
        (offset-aware training; closes the co-design loop at Algorithm 1's
        innermost layer).
    robustness_weight:
        Weight of the expected-flip penalty (``score = gini + weight *
        expected_flips``).  Active only alongside ``training_sigma > 0``
        (which defaults to 0, so a bare trainer is nominal); at ``0`` the
        trainer is bit-identical -- same trees, same RNG consumption -- to
        the nominal Algorithm 1 trainer whatever the sigma.
    """

    def __init__(
        self,
        max_depth: int = 8,
        gini_threshold: float = 0.0,
        resolution_bits: int = 4,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        seed: int = 0,
        prefer_low_power_levels: bool = True,
        training_sigma: float = 0.0,
        robustness_weight: float = 1.0,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if gini_threshold < 0:
            raise ValueError("the Gini tolerance tau must be >= 0")
        if resolution_bits < 1:
            raise ValueError("resolution_bits must be at least 1")
        if min_samples_leaf < 1 or min_samples_split < 2:
            raise ValueError("invalid minimum sample constraints")
        if training_sigma < 0:
            raise ValueError("training_sigma must be >= 0")
        if robustness_weight < 0:
            raise ValueError("robustness_weight must be >= 0")
        self.max_depth = max_depth
        self.gini_threshold = gini_threshold
        self.resolution_bits = resolution_bits
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.seed = seed
        self.prefer_low_power_levels = prefer_low_power_levels
        self.training_sigma = training_sigma
        self.robustness_weight = robustness_weight

    @property
    def offset_aware(self) -> bool:
        """Whether the expected-flip penalty participates in split scoring."""
        return self.robustness_weight > 0 and self.training_sigma > 0

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(
        self, X_levels: np.ndarray, y: np.ndarray, n_classes: int | None = None
    ) -> DecisionTree:
        """Train an ADC-aware tree on quantized features.

        The tree is grown breadth-first so that the global set of already
        selected ``(feature, threshold)`` pairs -- which defines the cost of
        future selections -- evolves in the node order of Algorithm 1.
        """
        X_levels, y, n_classes = check_training_data(
            X_levels, y, n_classes, self.resolution_bits
        )
        rng = random.Random(self.seed)
        selected_pairs: set[tuple[int, int]] = set()
        selected_features: set[int] = set()

        root = _make_node(0, np.bincount(y, minlength=n_classes).tolist(), 0)
        next_id = 1
        level = [root]  # the nodes of one depth, in queue order
        samples = np.arange(len(y))  # the samples of those nodes ...
        slot = np.zeros(len(y), dtype=np.int64)  # ... and each one's node in `level`
        for depth in range(self.max_depth):
            splittable = [
                position
                for position, node in enumerate(level)
                if node.n_samples >= self.min_samples_split
                and sum(count > 0 for count in node.class_counts) > 1
            ]
            if not splittable:
                break
            rank = np.full(len(level), -1, dtype=np.int64)
            rank[splittable] = np.arange(len(splittable))
            slot = rank[slot]
            keep = slot >= 0
            samples, slot = samples[keep], slot[keep]

            tolerance_sets = self._tolerance_sets(
                X_levels, y, samples, slot,
                [level[position].n_samples for position in splittable], n_classes,
            )
            splits: list[tuple[int, int, int]] = []
            for rank_k, candidates in enumerate(tolerance_sets):
                if not candidates:
                    continue
                feature, threshold = self._select_split(
                    candidates, selected_pairs, selected_features, rng
                )
                selected_pairs.add((feature, threshold))
                selected_features.add(feature)
                splits.append((rank_k, feature, threshold))
            if not splits:
                break

            # Route every sample to its child: split j owns slots 2j and 2j+1.
            ranks, features, thresholds = (np.array(column) for column in zip(*splits))
            child = np.full((len(splittable), 2), -1, dtype=np.int64)
            child[ranks] = np.arange(2 * len(splits)).reshape(-1, 2)
            split_feature = np.zeros(len(splittable), dtype=np.int64)
            split_feature[ranks] = features
            split_threshold = np.zeros(len(splittable), dtype=np.int64)
            split_threshold[ranks] = thresholds
            goes_right = X_levels[samples, split_feature[slot]] >= split_threshold[slot]
            slot = child[slot, goes_right.astype(np.int64)]
            keep = slot >= 0
            samples, slot = samples[keep], slot[keep]
            child_counts = np.bincount(
                slot * n_classes + y[samples], minlength=2 * len(splits) * n_classes
            ).reshape(-1, n_classes).tolist()

            next_level: list[TreeNode] = []
            for j, (rank_k, feature, threshold) in enumerate(splits):
                node = level[splittable[rank_k]]
                node.feature = feature
                node.threshold_level = threshold
                node.left = _make_node(next_id, child_counts[2 * j], depth + 1)
                node.right = _make_node(next_id + 1, child_counts[2 * j + 1], depth + 1)
                next_id += 2
                next_level += (node.left, node.right)
            level = next_level

        return DecisionTree(
            root=root,
            n_features=X_levels.shape[1],
            n_classes=n_classes,
            resolution_bits=self.resolution_bits,
        )

    # ------------------------------------------------------------------ #
    # Algorithm 1 split enumeration / selection
    # ------------------------------------------------------------------ #
    def _tolerance_sets(
        self,
        X_levels: np.ndarray,
        y: np.ndarray,
        samples: np.ndarray,
        slot: np.ndarray,
        sizes: list[int],
        n_classes: int,
    ) -> list[list[Candidate]]:
        """The tolerance set ``S`` of every node of one level.

        Node ``k`` holds the samples ``samples[slot == k]``, ``sizes[k]`` of
        them.  Returns one list per node of the candidates whose score is
        within ``tau`` of the node's best, in ``(feature, threshold_level)``
        order; a node without a valid split gets an empty list.
        """
        n_features = X_levels.shape[1]
        n_levels = 2 ** self.resolution_bits
        n_thresholds = n_levels - 1
        block = n_features * n_levels * n_classes
        feature_base = np.arange(n_features, dtype=np.int64) * (n_levels * n_classes)
        flip_matrix = (
            level_flip_matrix(n_levels, self.training_sigma) if self.offset_aware else None
        )
        nodes_per_batch = max(1, _BATCH_CELLS // block)
        tolerance_sets: list[list[Candidate]] = []
        for start in range(0, len(sizes), nodes_per_batch):
            batch_sizes = sizes[start:start + nodes_per_batch]
            width = len(batch_sizes)
            in_batch = (slot >= start) & (slot < start + width)
            rows, node = samples[in_batch], slot[in_batch] - start
            codes = (
                (node * block)[:, np.newaxis]
                + feature_base[np.newaxis, :]
                + X_levels[rows] * n_classes
                + y[rows][:, np.newaxis]
            )
            hist = np.bincount(codes.ravel(), minlength=width * block).reshape(
                width, n_features, n_levels, n_classes
            )

            scores, _, valid = split_gini(hist, batch_sizes, self.min_samples_leaf)
            if flip_matrix is not None:
                # Per node, the same product as the node-at-a-time enumeration.
                level_counts = hist.sum(axis=3)                    # (N, F, L)
                expected_flips = np.stack([
                    (counts @ flip_matrix) / size
                    for counts, size in zip(level_counts, batch_sizes)
                ])
                scores = scores + self.robustness_weight * expected_flips

            valid = valid.reshape(width, -1)
            scores = np.where(valid, scores.reshape(width, -1), np.inf)
            bound = scores.min(axis=1) + self.gini_threshold + 1e-15
            tolerance = valid & (scores <= bound[:, np.newaxis])
            node_of, flat = np.nonzero(tolerance)
            members = list(zip(
                scores[node_of, flat].tolist(),
                (flat // n_thresholds).tolist(),
                (flat % n_thresholds + 1).tolist(),
            ))
            end = 0
            for count in tolerance.sum(axis=1).tolist():
                tolerance_sets.append(members[end:end + count])
                end += count
        return tolerance_sets

    def _select_split(
        self,
        candidates: list[Candidate],
        selected_pairs: set[tuple[int, int]],
        selected_features: set[int],
        rng: random.Random,
    ) -> tuple[int, int]:
        """Algorithm 1's choice from one node's tolerance set.

        The first non-empty cost set wins (S_Z, then S_M, then S_H); inside
        S_M / S_H only the lowest threshold level stays when
        ``prefer_low_power_levels`` is set.  The best-scoring finalists, in
        the tolerance set's order, share one ``rng.choice``.  Returns the
        chosen ``(feature, threshold_level)``.
        """
        pool = [c for c in candidates if (c[1], c[2]) in selected_pairs]
        if not pool:
            # no S_Z: S_M if non-empty, else every candidate is in S_H
            pool = [c for c in candidates if c[1] in selected_features] or candidates
            if self.prefer_low_power_levels:
                # Secondary objective: smallest threshold => lowest-power comparator.
                lowest = min(c[2] for c in pool)
                pool = [c for c in pool if c[2] == lowest]
        cutoff = min(c[0] for c in pool) + GINI_TIE_TOLERANCE
        _, feature, threshold = rng.choice([c for c in pool if c[0] <= cutoff])
        return feature, threshold
