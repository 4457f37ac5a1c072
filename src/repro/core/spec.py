"""One design point of the co-design space: its identity, trainer and training.

:class:`DesignSpec` names everything that determines one ADC-aware tree --
dataset, seed, depth, tau, input resolution, technology, split fraction and
the offset-aware training knobs -- in one canonical form.  Every store key
of a design point (:meth:`DesignSpec.key`), every trainer
(:meth:`DesignSpec.trainer`) and every from-scratch training
(:func:`train_point`) derives from it, so the paths that train a point --
the explorer's sweep, the per-point Monte-Carlo jobs, search trials, model
promotion and the CLI -- cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.store import make_key
from repro.datasets.base import Dataset
from repro.datasets.registry import canonical_name, load_dataset
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.mltrees.tree import DecisionTree
from repro.pdk.egfet import EGFETTechnology, default_technology


@dataclass(frozen=True)
class DesignSpec:
    """The canonical identity of one (dataset, depth, tau) design point.

    ``training_sigma`` is the comparator offset sigma in volts the trainer
    assumes and ``robustness_weight`` the weight of its expected-flip
    penalty.  Construction canonicalizes, so equivalent spellings compare
    (and key) equal:

    * dataset abbreviations resolve to canonical names; unregistered names
      (ad-hoc studies) are kept verbatim;
    * the penalty is inert unless both training knobs are positive, so every
      inert spelling collapses to ``(0.0, 0.0)``;
    * ``-0.0`` becomes ``0.0``;
    * a missing technology becomes the calibrated default corner.
    """

    dataset: str
    seed: int = 0
    depth: int = 8
    tau: float = 0.0
    resolution_bits: int = 4
    technology: EGFETTechnology | None = None
    test_size: float = 0.3
    training_sigma: float = 0.0
    robustness_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.training_sigma < 0:
            raise ValueError("training_sigma must be >= 0")
        if self.robustness_weight < 0:
            raise ValueError("robustness_weight must be >= 0")
        try:
            dataset = canonical_name(self.dataset)
        except KeyError:
            dataset = self.dataset
        sigma, weight = float(self.training_sigma), float(self.robustness_weight)
        if sigma == 0.0 or weight == 0.0:
            sigma, weight = 0.0, 0.0
        canonical = {
            "dataset": dataset,
            "seed": int(self.seed),
            "depth": int(self.depth),
            "tau": float(self.tau) or 0.0,
            "resolution_bits": int(self.resolution_bits),
            "technology": (
                self.technology if self.technology is not None else default_technology()
            ),
            "test_size": float(self.test_size),
            "training_sigma": sigma,
            "robustness_weight": weight,
        }
        for name, value in canonical.items():
            object.__setattr__(self, name, value)

    def key(self, kind: str, **extra) -> str:
        """Store key of a ``kind`` of result computed for this point.

        ``"design_point"`` addresses a search trial's accuracy and hardware;
        ``"offset_variation"`` (with ``sigma_v`` and ``n_trials``) one
        Monte-Carlo summary, spelled by :meth:`variation_key`.  The code
        version is folded in by
        :func:`~repro.core.store.make_key`.
        """
        spec = {field.name: getattr(self, field.name) for field in fields(self)}
        return make_key(kind=kind, **spec, **extra)

    def variation_key(self, sigma_v: float, n_trials: int) -> str:
        """Store key of this point's Monte-Carlo summary at ``sigma_v`` volts.

        ``-0.0`` and ``0.0`` name the same analysis, so they share one key.
        """
        return self.key(
            "offset_variation", sigma_v=float(sigma_v) or 0.0, n_trials=int(n_trials)
        )

    def trainer(self) -> ADCAwareTrainer:
        """The seeded ADC-aware trainer of this point.

        The trainer works in normalized full-scale units, so the volt-domain
        training sigma is divided by the technology's supply voltage.
        """
        return ADCAwareTrainer(
            max_depth=self.depth,
            gini_threshold=self.tau,
            resolution_bits=self.resolution_bits,
            seed=self.seed,
            training_sigma=self.training_sigma / self.technology.vdd,
            robustness_weight=self.robustness_weight,
        )


class TrainedPoint(NamedTuple):
    """What :func:`train_point` returns."""

    tree: DecisionTree
    data: Dataset
    #: Analog (normalized, unquantized) test split and its labels.
    X_test: np.ndarray
    y_test: np.ndarray


def train_point(spec: DesignSpec) -> TrainedPoint:
    """Train one design point from scratch under the paper's protocol.

    Loads the dataset, splits it (``spec.test_size`` held out, 0.3 by
    default), quantizes the training split and fits ``spec.trainer()``.
    Everything is seeded, so the tree equals the one a suite sweep grows at
    the same point.
    """
    data = load_dataset(spec.dataset, seed=spec.seed)
    X_train, X_test, y_train, y_test = train_test_split(
        data.X, data.y, test_size=spec.test_size, seed=spec.seed
    )
    tree = spec.trainer().fit(
        quantize_dataset(X_train, spec.resolution_bits), y_train, data.n_classes
    )
    return TrainedPoint(tree, data, X_test, y_test)
