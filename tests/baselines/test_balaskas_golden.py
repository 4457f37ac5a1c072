"""Golden values of the approximate baseline [7] on three paper benchmarks.

Each case runs :func:`fit_balaskas_design` at seed 0 with the
``CoDesignFramework`` 70/30 protocol and the reference depth/accuracy of
the exact baseline [2] from :func:`fit_baseline_tree` -- the Table II flow.
The pinned per-input precision, accuracy, depth and hardware totals are
literals, so any change to how precision-scaling trials are scored, how
thresholds are truncated or how candidates are chosen shows up here.
"""

import pytest

from repro.baselines.balaskas import fit_balaskas_design
from repro.core.codesign import CoDesignFramework
from repro.datasets.registry import load_dataset
from repro.mltrees.cart import fit_baseline_tree

#: dataset -> (per_feature_bits, accuracy, depth, total area mm^2, total power uW)
GOLDEN = {
    "seeds": (
        {0: 3, 1: 2, 2: 3, 4: 3, 5: 2, 6: 3},
        0.9047619047619048,
        5,
        21.2631,
        1235.389156626506,
    ),
    "vertebral_2c": (
        {0: 2, 1: 1, 3: 1, 5: 1},
        0.9247311827956989,
        3,
        5.5839,
        271.9427710843373,
    ),
    "balance_scale": (
        {0: 3, 1: 4, 2: 1, 3: 1},
        0.8288770053475936,
        4,
        23.5085,
        1381.9927710843374,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_balaskas_design_matches_golden(name):
    framework = CoDesignFramework(seed=0)
    dataset = load_dataset(name, seed=0)
    X_train, X_test, y_train, y_test = framework.prepare(dataset)
    reference = fit_baseline_tree(
        X_train,
        y_train,
        X_test,
        y_test,
        n_classes=dataset.n_classes,
        max_depth=framework.max_baseline_depth,
        resolution_bits=framework.resolution_bits,
        seed=0,
    )
    design = fit_balaskas_design(
        X_train,
        y_train,
        X_test,
        y_test,
        n_classes=dataset.n_classes,
        reference_accuracy=reference.test_accuracy,
        reference_depth=reference.depth,
        technology=framework.technology,
        seed=0,
    )
    bits, accuracy, depth, area_mm2, power_uw = GOLDEN[name]
    assert design.per_feature_bits == bits
    assert design.accuracy == accuracy
    assert design.depth == depth
    report = design.hardware_report()
    assert report.total_area_mm2 == pytest.approx(area_mm2, rel=1e-12)
    assert report.total_power_uw == pytest.approx(power_uw, rel=1e-12)
