"""Oracle equivalence of baseline [7]'s precision-scaling trial scorer.

``_greedy_precision_scaling`` scores every trial on a flat node-array view
of the candidate tree.  The reference below is the copy-based loop it
replaced: one deep copy of the tree per trial, thresholds truncated in
place, then ``predict_levels``.  Both must agree bit for bit -- the same
accepted per-feature bits and the same accuracy float -- on every candidate
depth of every paper benchmark and on randomized hand-built trees.
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.baselines.balaskas as balaskas
from repro.baselines.balaskas import (
    _greedy_precision_scaling,
    approximate_tree,
    fit_balaskas_design,
)
from repro.baselines.mubarik import truncated_threshold
from repro.core.codesign import CoDesignFramework
from repro.datasets.registry import dataset_names, load_dataset
from repro.mltrees.cart import CARTTrainer, fit_baseline_tree
from repro.mltrees.evaluation import accuracy_score
from repro.mltrees.tree import DecisionTree, TreeNode


# ---------------------------------------------------------------------- #
# reference: the copy-per-trial implementation
# ---------------------------------------------------------------------- #
def reference_approximate_tree(tree, per_feature_bits):
    resolution = tree.resolution_bits
    clone = copy.deepcopy(tree)
    for node in clone.decision_nodes():
        bits = int(per_feature_bits.get(node.feature, resolution))
        bits = min(max(bits, 1), resolution)
        shift = resolution - bits
        if shift == 0:
            continue
        node.threshold_level = max(node.threshold_level >> shift, 1) << shift
    return clone


def reference_greedy_precision_scaling(
    tree, X_test_levels, y_test, accuracy_floor, resolution_bits
):
    bits = {feature: resolution_bits for feature in tree.used_features()}
    accuracy = accuracy_score(
        y_test, reference_approximate_tree(tree, bits).predict_levels(X_test_levels)
    )
    improved = True
    while improved:
        improved = False
        for feature in sorted(bits):
            if bits[feature] <= 1:
                continue
            trial = dict(bits)
            trial[feature] = bits[feature] - 1
            trial_accuracy = accuracy_score(
                y_test,
                reference_approximate_tree(tree, trial).predict_levels(X_test_levels),
            )
            if trial_accuracy >= accuracy_floor:
                bits = trial
                accuracy = trial_accuracy
                improved = True
    return bits, accuracy


def assert_matches_reference(tree, X_test_levels, y_test, accuracy_floor):
    expected = reference_greedy_precision_scaling(
        tree, X_test_levels, y_test, accuracy_floor, tree.resolution_bits
    )
    assert _greedy_precision_scaling(tree, X_test_levels, y_test, accuracy_floor) == expected
    bits, _ = expected
    assert approximate_tree(tree, bits) == reference_approximate_tree(tree, bits)


# ---------------------------------------------------------------------- #
# paper benchmarks: every candidate depth of the Table II flow
# ---------------------------------------------------------------------- #
def _check_benchmark(name, seed):
    framework = CoDesignFramework(seed=seed)
    dataset = load_dataset(name, seed=seed)
    X_train, X_test, y_train, y_test = framework.prepare(dataset)
    reference = fit_baseline_tree(
        X_train, y_train, X_test, y_test, dataset.n_classes,
        max_depth=framework.max_baseline_depth, seed=seed,
    )
    accuracy_floor = reference.test_accuracy - 0.01
    for depth in range(reference.depth, min(10, reference.depth + 2) + 1):
        tree = CARTTrainer(max_depth=depth, seed=seed).fit(X_train, y_train, dataset.n_classes)
        assert_matches_reference(tree, X_test, y_test, accuracy_floor)


@pytest.mark.parametrize("name", dataset_names())
def test_scorer_matches_copy_oracle_on_paper_benchmarks(name):
    _check_benchmark(name, seed=0)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", dataset_names())
def test_scorer_matches_copy_oracle_across_seeds(name, seed):
    _check_benchmark(name, seed)


# ---------------------------------------------------------------------- #
# randomized hand-built trees
# ---------------------------------------------------------------------- #
N_CLASSES = 3

#: ``(resolution_bits, n_features, tree spec)``; a tree spec is a leaf
#: prediction (int) or ``(feature, level, left, right)``.
LONE_LEAF = (4, 2, 2)
REPEATED_FEATURES_AT_GRID_EDGES = (
    4,
    2,
    (0, 15, (0, 1, 0, (1, 8, 1, 2)), (0, 8, 2, (0, 1, 1, 0))),
)
ONE_BIT = (1, 2, (1, 1, 0, (0, 1, 2, 1)))


def build_tree(spec, n_features, resolution_bits):
    counter = iter(range(1 << 16))

    def build(node_spec, depth):
        node_id = next(counter)
        if isinstance(node_spec, int):
            return TreeNode(node_id, node_spec, 0, (0,) * N_CLASSES, depth=depth)
        feature, level, left, right = node_spec
        return TreeNode(
            node_id, 0, 0, (0,) * N_CLASSES,
            feature=feature, threshold_level=level,
            left=build(left, depth + 1), right=build(right, depth + 1), depth=depth,
        )

    return DecisionTree(build(spec, 0), n_features, N_CLASSES, resolution_bits)


@st.composite
def tree_specs(draw):
    resolution = draw(st.integers(1, 4))
    n_features = draw(st.integers(1, 3))
    # Thresholds are biased onto the grid edges 1 and 2**R - 1.
    levels = st.one_of(
        st.sampled_from([1, (1 << resolution) - 1]), st.integers(1, (1 << resolution) - 1)
    )
    leaves = st.integers(0, N_CLASSES - 1)
    spec = draw(
        st.recursive(
            leaves,
            lambda children: st.tuples(
                st.integers(0, n_features - 1), levels, children, children
            ),
            max_leaves=12,
        )
    )
    return resolution, n_features, spec


@st.composite
def cases(draw):
    resolution, n_features, spec = draw(tree_specs())
    n_samples = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 1 << resolution, size=(n_samples, n_features))
    y = rng.integers(0, N_CLASSES, size=n_samples)
    accuracy_floor = draw(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]))
    return resolution, n_features, spec, X, y, accuracy_floor


def _case(resolution, n_features, spec, n_samples=30, accuracy_floor=0.3):
    rng = np.random.default_rng(0)
    X = rng.integers(0, 1 << resolution, size=(n_samples, n_features))
    y = rng.integers(0, N_CLASSES, size=n_samples)
    return resolution, n_features, spec, X, y, accuracy_floor


@given(cases())
@example(_case(*LONE_LEAF))
@example(_case(*REPEATED_FEATURES_AT_GRID_EDGES))
@example(_case(*REPEATED_FEATURES_AT_GRID_EDGES, accuracy_floor=0.0))
@example(_case(*ONE_BIT))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_scorer_matches_copy_oracle_on_random_trees(case):
    resolution, n_features, spec, X, y, accuracy_floor = case
    tree = build_tree(spec, n_features, resolution)
    assert_matches_reference(tree, X, y, accuracy_floor)


def test_truncated_threshold_matches_reference_rule():
    for resolution in range(1, 6):
        for level in range(1, 1 << resolution):
            for bits in range(-1, resolution + 2):
                kept = min(max(bits, 1), resolution)
                shift = resolution - kept
                expected = max(level >> shift, 1) << shift
                got = truncated_threshold(level, bits, resolution)
                assert got == expected and type(got) is int


# ---------------------------------------------------------------------- #
# fit_balaskas_design: candidate depths
# ---------------------------------------------------------------------- #
def _fit(small_split, technology, **kwargs):
    X_train, X_test, y_train, y_test = small_split
    return fit_balaskas_design(
        X_train, y_train, X_test, y_test,
        n_classes=3, reference_accuracy=0.9, technology=technology, **kwargs,
    )


def test_approximate_tree_runs_once_per_candidate_depth(
    small_split, technology, monkeypatch
):
    calls = []

    def counting(tree, per_feature_bits):
        calls.append(per_feature_bits)
        return approximate_tree(tree, per_feature_bits)

    monkeypatch.setattr(balaskas, "approximate_tree", counting)
    _fit(small_split, technology, reference_depth=3, extra_depth=2)
    assert len(calls) <= 3


@pytest.mark.parametrize("reference_depth", [10, 11, 15])
def test_reference_depth_beyond_max_depth_is_a_candidate(
    small_split, technology, reference_depth
):
    """A reference deeper than ``max_depth`` used to leave no candidate at all."""
    design = _fit(small_split, technology, reference_depth=reference_depth)
    assert design is not None
    assert design.depth == reference_depth
    assert design.hardware_report().total_power_uw > 0
