"""Benchmark-suite orchestration.

:func:`run_benchmark_suite` runs the full co-design flow over (a subset of)
the eight benchmarks.  Results are cached at **per-dataset** granularity on
two levels:

1. an in-process memo, so the several benchmark files regenerating different
   tables/figures from the same underlying experiment share the *same*
   result objects within one interpreter, and
2. a content-addressed on-disk :class:`~repro.core.store.ResultStore`
   (key = dataset name, seed, grid, technology, code version), so separate
   processes -- benchmark scripts, CLI invocations, CI jobs -- reuse each
   other's work instead of repaying the full sweep.

Because the cache key is per dataset and built from canonical names, asking
for the same benchmarks in a different order, as a list instead of a tuple,
or by paper abbreviation all hit the same entries.

Datasets that do need computing are submitted through an
:class:`~repro.core.executor.Executor`: with ``jobs > 1`` the pending
benchmarks fan out across worker processes, and a single pending benchmark
instead parallelizes its depth x tau sweep.  Serial and parallel runs
produce identical results (everything is seeded).

:func:`run_variation_analysis` applies the same recipe to the Monte-Carlo
comparator-offset robustness study: per-seed
:class:`~repro.core.variation.VariationAnalysis` summaries are cached in the
store and trial batches fan out through the executor (``repro.cli
variation``).

:func:`run_robust_exploration` composes both layers into the variation-aware
design-space exploration (``repro.cli explore``): the nominal depth x tau
sweep comes from the suite cache, and every design point is then annotated
with a per-point robustness summary cached under the same variation keys --
so ``variation``, ``explore`` and the offset-aware Table II all share one
pool of Monte-Carlo results.

:func:`run_plan_shard` executes one shard of a deterministic
:class:`~repro.core.sharding.SuitePlan` into the store (``repro.cli suite
--shard K/N``), and ``run_benchmark_suite(cache_only=True)`` is the strict
assemble mode that renders tables from cache hits only, raising
:class:`~repro.core.sharding.MissingResultsError` when a shard never ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.core.codesign import CoDesignFramework, CoDesignResult
from repro.core.executor import Executor, get_executor
from repro.core.exploration import (
    DEFAULT_DEPTHS,
    DEFAULT_TAUS,
    DesignPoint,
    grid_points,
    select_best_design,
)
from repro.core.sharding import (
    MissingResultsError,
    ShardSpec,
    SuitePlan,
    normalize_sigmas,
    suite_result_key,
    suite_work_unit,
    variation_work_unit,
)
from repro.core.spec import DesignSpec, TrainedPoint, train_point
from repro.core.store import ResultStore
from repro.core.variation import VariationAnalysis, simulate_offset_variation
from repro.datasets.registry import canonical_name, dataset_names, load_dataset

#: Smaller benchmarks used when a quick run is requested.
FAST_DATASETS: tuple[str, ...] = ("balance_scale", "vertebral_3c", "vertebral_2c", "seeds")

#: In-process memo (key -> result).  Guarantees that two suite runs with an
#: equivalent configuration return the *same* result objects in one
#: interpreter, on top of the cross-process on-disk store.  Bounded (LRU) so
#: long-lived processes sweeping many configurations do not accumulate every
#: result ever computed; evicted entries remain on disk.
_MEMO: dict[str, CoDesignResult] = {}

#: Memo capacity: comfortably holds several full 8-dataset configurations
#: (the old suite-level ``lru_cache(maxsize=8)`` held up to 8 x 8 results).
_MEMO_MAX_ENTRIES = 64


def _memoize(key: str, result: CoDesignResult) -> None:
    """Insert into the memo, evicting least-recently-used entries."""
    _MEMO.pop(key, None)
    _MEMO[key] = result
    while len(_MEMO) > _MEMO_MAX_ENTRIES:
        _MEMO.pop(next(iter(_MEMO)))


def _memo_get(key: str) -> CoDesignResult | None:
    """Memo lookup that refreshes the entry's recency."""
    result = _MEMO.pop(key, None)
    if result is not None:
        _MEMO[key] = result
    return result

#: Lazily created store shared by all callers that do not pass their own.
_DEFAULT_STORE: ResultStore | None = None


def default_store() -> ResultStore:
    """The process-wide :class:`ResultStore` used when none is passed in.

    Exposed so callers can inspect cache effectiveness, e.g.
    ``default_store().stats.hits`` after a suite run.
    """
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ResultStore()
    return _DEFAULT_STORE


def clear_memo() -> None:
    """Drop the in-process memo (the on-disk store is left untouched)."""
    _MEMO.clear()


def resolve_suite_datasets(
    datasets: tuple[str, ...] | None = None, fast: bool = False
) -> tuple[str, ...]:
    """Resolve a suite request to the benchmark list it will actually run.

    ``None`` selects every registered benchmark (or the four small ones when
    ``fast``); explicit names/abbreviations pass through unchanged.  Single
    source of truth for :func:`run_benchmark_suite` and the CLI, so suite
    commands and their offset-aware variants can never diverge on defaults.
    """
    if datasets is None:
        return FAST_DATASETS if fast else tuple(dataset_names())
    return tuple(datasets)


def _run_one_benchmark(
    name: str,
    seed: int,
    include_approximate_baseline: bool,
    depths: tuple[int, ...],
    taus: tuple[float, ...],
    jobs: int = 1,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
    ppa_backend=None,
) -> CoDesignResult:
    """Top-level (picklable) job: run the co-design flow on one benchmark."""
    with get_executor(jobs) as executor:
        framework = CoDesignFramework(
            depths=depths,
            taus=taus,
            seed=seed,
            include_approximate_baseline=include_approximate_baseline,
            executor=executor if executor.jobs > 1 else None,
            training_sigma=training_sigma,
            robustness_weight=robustness_weight,
            ppa_backend=ppa_backend,
        )
        dataset = load_dataset(name, seed=seed)
        return framework.run(dataset)


def run_benchmark_suite(
    datasets: tuple[str, ...] | None = None,
    seed: int = 0,
    include_approximate_baseline: bool = True,
    depths: tuple[int, ...] = DEFAULT_DEPTHS,
    taus: tuple[float, ...] = DEFAULT_TAUS,
    fast: bool = False,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    store: ResultStore | None = None,
    use_cache: bool = True,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
    shard: ShardSpec | None = None,
    cache_only: bool = False,
    ppa_backend=None,
) -> list[CoDesignResult]:
    """Run the co-design flow over the benchmark suite (cached per dataset).

    Parameters
    ----------
    datasets:
        Benchmark names to run (defaults to all eight in the paper's order).
        Accepts any iterable of names or paper abbreviations; results come
        back in the requested order.
    seed:
        Seed controlling the dataset synthesis, the split and every trainer.
    include_approximate_baseline:
        Whether to also fit the precision-scaled baseline [7] (needed for
        Table II, not for Table I / Figs. 4-5).
    depths, taus:
        Exploration grid (defaults to the paper's grid).
    fast:
        When True and ``datasets`` is not given, restrict the run to the four
        small benchmarks (useful for smoke tests).
    jobs:
        Worker processes to fan out over (``None``/``1``: serial, ``0``: one
        per CPU).  Multiple pending benchmarks parallelize across datasets; a
        single pending benchmark parallelizes its depth x tau sweep instead.
        Results are identical either way.
    cache_dir:
        Directory of the on-disk result store (default:
        ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/results``).
    store:
        Explicit :class:`ResultStore` to use (overrides ``cache_dir``);
        handy for inspecting hit/miss statistics.
    use_cache:
        When False, skip the on-disk store entirely (the in-process memo is
        bypassed too) and recompute everything.
    training_sigma:
        Comparator offset sigma in volts assumed by the exploration trainer
        (0: nominal training).  See
        :class:`~repro.core.exploration.DesignSpaceExplorer`.
    robustness_weight:
        Weight of the expected-flip penalty in the trainer's split scores
        (ignored while ``training_sigma`` is 0).
    shard:
        When given, restrict the run to the datasets whose suite work unit
        belongs to this shard (stable hashing via
        :func:`~repro.core.sharding.suite_work_unit`, so membership is
        reproducible across machines and invariant to request order).
        Results come back for the shard's datasets only, in requested
        order; other shards cover the rest.
    cache_only:
        Strict assemble mode: resolve every dataset from the on-disk store
        and *never* compute.  Raises
        :class:`~repro.core.sharding.MissingResultsError` (listing the
        missing datasets and keys) when any entry is absent.  The
        in-process memo is bypassed, so the store genuinely holds
        everything the call returns.
    ppa_backend:
        Source of every design's digital area/power (default: the analytic
        cell-count model; anything
        :func:`~repro.circuits.ppa.resolve_ppa_backend` accepts).  Unlike
        ``jobs``, a non-analytic backend *changes results*, and its
        numbers are not derivable from the experiment configuration -- so
        such runs bypass the memo and the on-disk store entirely (nothing
        report-based is ever cached under a configuration key), and they
        refuse ``cache_only`` mode.
    """
    from repro.circuits.ppa import resolve_ppa_backend

    if jobs is not None and jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = one worker per CPU)")
    backend = resolve_ppa_backend(ppa_backend)
    if not getattr(backend, "is_analytic", False):
        if cache_only:
            raise ValueError(
                "cache_only requires the analytic PPA backend: cached suite "
                "entries hold analytic costs, which a report backend would "
                "contradict"
            )
        # Report-backed costs must never be cached under configuration keys.
        use_cache = False
        store = None
    if cache_only and not use_cache:
        raise ValueError("cache_only requires use_cache=True")
    requested = resolve_suite_datasets(datasets, fast)
    names = [canonical_name(name) for name in requested]
    if shard is not None:
        names = [
            name
            for name in names
            if suite_work_unit(
                name, seed, include_approximate_baseline, depths, taus,
                training_sigma=training_sigma,
                robustness_weight=robustness_weight,
            ).shard_index(shard.count) == shard.index
        ]

    if use_cache and store is None:
        store = ResultStore(cache_dir) if cache_dir is not None else default_store()

    keys = {
        name: suite_result_key(
            name, seed, include_approximate_baseline, depths, taus,
            training_sigma=training_sigma, robustness_weight=robustness_weight,
        )
        for name in dict.fromkeys(names)
    }

    if cache_only:
        cached_results: dict[str, CoDesignResult] = {}
        missing: list[tuple[str, str]] = []
        for name, key in keys.items():
            cached = store.get(key)
            if cached is None:
                missing.append((f"suite:{name}", key))
            else:
                cached_results[name] = cached
        store.flush_stats()
        if missing:
            raise MissingResultsError(missing)
        return [cached_results[name] for name in names]

    resolved: dict[str, CoDesignResult] = {}
    pending: list[str] = []
    for name, key in keys.items():
        memoized = _memo_get(key) if use_cache else None
        if memoized is not None:
            if store is not None and key not in store:
                store.put(key, memoized)  # write-through: keep the disk store complete
            resolved[name] = memoized
            continue
        if use_cache and store is not None:
            cached = store.get(key)
            if cached is not None:
                _memoize(key, cached)
                resolved[name] = cached
                continue
        pending.append(name)

    if pending:
        executor: Executor = get_executor(jobs)
        try:
            if executor.jobs > 1 and len(pending) > 1:
                # Fan out across datasets; each worker runs its sweep serially.
                tasks = [
                    (
                        name, seed, include_approximate_baseline,
                        tuple(depths), tuple(taus), 1,
                        training_sigma, robustness_weight, backend,
                    )
                    for name in pending
                ]
                computed = executor.map(_run_one_benchmark, tasks)
            else:
                # Serial across datasets; parallelize inside the sweep instead.
                computed = [
                    _run_one_benchmark(
                        name,
                        seed,
                        include_approximate_baseline,
                        tuple(depths),
                        tuple(taus),
                        jobs=executor.jobs,
                        training_sigma=training_sigma,
                        robustness_weight=robustness_weight,
                        ppa_backend=backend,
                    )
                    for name in pending
                ]
        finally:
            executor.close()
        for name, result in zip(pending, computed):
            if use_cache:
                if store is not None:
                    store.put(keys[name], result)
                _memoize(keys[name], result)
            resolved[name] = result

    if use_cache and store is not None:
        store.flush_stats()
    return [resolved[name] for name in names]


@lru_cache(maxsize=8)
def _variation_classifier(spec: DesignSpec) -> TrainedPoint:
    """Train-once memo behind the per-sigma variation sweep.

    A sigma sweep caches one :class:`VariationAnalysis` per sigma, but the
    classifier under test depends only on the design point -- training it
    once per :class:`~repro.core.spec.DesignSpec` keeps a cold 5-sigma
    sweep from paying the same fit five times.  Everything is seeded, so
    the memo never changes results, and canonical specs alias every
    equivalent spelling of one point.
    """
    return train_point(spec)


def run_variation_analysis(
    dataset: str,
    sigma_v: float,
    n_trials: int = 100,
    seed: int = 0,
    depth: int = 4,
    tau: float = 0.01,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    store: ResultStore | None = None,
    use_cache: bool = True,
    resolution_bits: int = 4,
    test_size: float = 0.3,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
) -> VariationAnalysis:
    """Monte-Carlo comparator-offset robustness of one co-designed benchmark.

    Trains the ADC-aware tree (``depth`` x ``tau``) on the paper's 70/30
    split of ``dataset`` and Monte-Carlo-simulates its test accuracy under
    Gaussian comparator offsets.  Per-seed summaries are cached in the
    content-addressed :class:`~repro.core.store.ResultStore` under the full
    ``"offset_variation"`` key of the point's
    :class:`~repro.core.spec.DesignSpec` -- every field (``resolution_bits``,
    ``test_size``, ``training_sigma``, ``robustness_weight``) participates,
    so this entry point addresses the
    exact entries that sharded suite runs, ``explore`` and the search
    warm-start write: nominal requests keep their historical keys, and
    offset-aware requests share cache warmth instead of silently training a
    nominal tree.  Trial batches fan out across ``jobs`` worker processes
    with bit-identical results.
    """
    if use_cache and store is None:
        store = ResultStore(cache_dir) if cache_dir is not None else default_store()
    spec = DesignSpec(
        dataset, seed, depth, tau, resolution_bits, test_size=test_size,
        training_sigma=training_sigma, robustness_weight=robustness_weight,
    )
    key = spec.variation_key(sigma_v, n_trials)
    if use_cache and store is not None:
        cached = store.get(key)
        if cached is not None:
            store.flush_stats()
            return cached

    tree, _, X_test, y_test = _variation_classifier(spec)
    analysis = simulate_offset_variation(
        tree, X_test, y_test, sigma_v, n_trials=n_trials,
        technology=spec.technology, seed=spec.seed, jobs=jobs,
    )
    if use_cache and store is not None:
        store.put(key, analysis)
        store.flush_stats()
    return analysis


@dataclass(frozen=True)
class RobustExploration:
    """A depth x tau exploration with per-point robustness columns.

    Produced by :func:`run_robust_exploration`: every design point carries
    the nominal accuracy/hardware numbers *and* a comparator-offset
    Monte-Carlo summary at ``sigma_v``, so designs can be selected under the
    joint (accuracy loss, mean accuracy drop) constraint of the offset-aware
    Table II.
    """

    dataset: str
    sigma_v: float
    n_trials: int
    baseline_accuracy: float
    points: tuple[DesignPoint, ...]
    #: Offset sigma (volts) the *trainer* assumed; 0 for nominal training.
    training_sigma: float = 0.0
    #: Weight of the expected-flip penalty the trainer applied.
    robustness_weight: float = 1.0

    def select(
        self,
        max_accuracy_loss: float = 0.01,
        max_accuracy_drop: float | None = None,
        objective: str = "power",
    ) -> DesignPoint | None:
        """Constrained selection over the robustness-annotated grid."""
        return select_best_design(
            list(self.points),
            self.baseline_accuracy,
            max_accuracy_loss,
            objective=objective,
            max_accuracy_drop=max_accuracy_drop,
        )


def run_robust_exploration(
    dataset: str,
    sigma_v: float,
    n_trials: int = 100,
    seed: int = 0,
    depths: tuple[int, ...] = DEFAULT_DEPTHS,
    taus: tuple[float, ...] = DEFAULT_TAUS,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    store: ResultStore | None = None,
    use_cache: bool = True,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
    cache_only: bool = False,
    ppa_backend=None,
) -> RobustExploration:
    """Variation-aware design-space exploration of one benchmark.

    Composes the two cache layers: the depth x tau sweep (and the baseline
    it is measured against) comes from the per-dataset suite cache of
    :func:`run_benchmark_suite`, and the robustness pass then attaches one
    cached :class:`~repro.core.variation.VariationAnalysis` per design point
    (the per-seed variation keys shared with ``repro.cli variation``).  Only
    points absent from the store are Monte-Carlo-simulated, fanned out
    across ``jobs`` worker processes with bit-identical results.

    With ``training_sigma > 0`` the sweep's trees are trained offset-aware
    (split scores penalized by the analytic expected digit-flip fraction at
    that sigma); both cache layers key on the training parameters, so
    nominal and offset-aware explorations never alias.

    ``cache_only`` applies the strict assemble discipline to the nominal
    sweep (it must be a store hit); the robustness pass then also resolves
    from the store when a sharded run precomputed its per-point units.
    """
    name = canonical_name(dataset)
    (result,) = run_benchmark_suite(
        datasets=(name,),
        seed=seed,
        include_approximate_baseline=False,
        depths=depths,
        taus=taus,
        jobs=jobs,
        cache_dir=cache_dir,
        store=store,
        use_cache=use_cache,
        training_sigma=training_sigma,
        robustness_weight=robustness_weight,
        cache_only=cache_only,
        ppa_backend=ppa_backend,
    )
    if use_cache and store is None:
        store = ResultStore(cache_dir) if cache_dir is not None else default_store()

    data = load_dataset(name, seed=seed)
    with get_executor(jobs) as executor:
        framework = CoDesignFramework(
            depths=tuple(depths),
            taus=tuple(taus),
            seed=seed,
            executor=executor if executor.jobs > 1 else None,
            training_sigma=training_sigma,
            robustness_weight=robustness_weight,
            ppa_backend=ppa_backend,
        )
        points = framework.run_robustness(
            data,
            result.exploration,
            sigma_v=sigma_v,
            n_trials=n_trials,
            store=store if use_cache else None,
        )
    if use_cache and store is not None:
        store.flush_stats()
    return RobustExploration(
        dataset=result.dataset,
        sigma_v=float(sigma_v),
        n_trials=int(n_trials),
        baseline_accuracy=result.baseline.accuracy,
        points=tuple(points),
        training_sigma=float(training_sigma),
        robustness_weight=float(robustness_weight),
    )


# ---------------------------------------------------------------------- #
# multi-sigma robustness surface (repro.cli surface)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SurfaceCell:
    """One (sigma, depth, tau) point of a robustness surface.

    The Monte-Carlo summary numbers of the
    :class:`~repro.core.variation.VariationAnalysis` cached under the
    point's variation key, flattened to primitives so a surface record
    serializes without pickling trees.
    """

    sigma_v: float
    depth: int
    tau: float
    nominal_accuracy: float
    mean_accuracy: float
    std_accuracy: float
    min_accuracy: float
    mean_accuracy_drop: float
    worst_case_drop: float


@dataclass(frozen=True)
class RobustnessSurface:
    """The full (sigma x depth x tau) robustness surface of one benchmark.

    Produced by :func:`run_robustness_surface`.  ``cells`` is ordered
    sigma-ascending outer, the grid in the depth-major order of
    :func:`~repro.core.exploration.grid_points` inner -- the exact order a
    multi-sigma :func:`~repro.core.sharding.plan_suite_units` plan
    enumerates the benchmark's variation units in.
    """

    dataset: str
    seed: int
    n_trials: int
    sigmas: tuple[float, ...]
    depths: tuple[int, ...]
    taus: tuple[float, ...]
    training_sigma: float
    robustness_weight: float
    baseline_accuracy: float
    cells: tuple[SurfaceCell, ...]

    def cell(self, sigma_v: float, depth: int, tau: float) -> SurfaceCell:
        """The cell at one (sigma, depth, tau) coordinate (KeyError if absent)."""
        for cell in self.cells:
            if (
                cell.sigma_v == float(sigma_v)
                and cell.depth == int(depth)
                and cell.tau == float(tau)
            ):
                return cell
        raise KeyError(f"no surface cell at sigma={sigma_v:g}, d={depth}, tau={tau:g}")

    def to_json_dict(self) -> dict:
        """JSON-serializable record (stable schema, consumed by renderers)."""
        return {
            "schema_version": 1,
            "kind": "robustness_surface",
            "dataset": self.dataset,
            "seed": self.seed,
            "n_trials": self.n_trials,
            "sigmas": list(self.sigmas),
            "depths": list(self.depths),
            "taus": list(self.taus),
            "training_sigma": self.training_sigma,
            "robustness_weight": self.robustness_weight,
            "baseline_accuracy": self.baseline_accuracy,
            "cells": [
                {
                    "sigma_v": cell.sigma_v,
                    "depth": cell.depth,
                    "tau": cell.tau,
                    "nominal_accuracy": cell.nominal_accuracy,
                    "mean_accuracy": cell.mean_accuracy,
                    "std_accuracy": cell.std_accuracy,
                    "min_accuracy": cell.min_accuracy,
                    "mean_accuracy_drop": cell.mean_accuracy_drop,
                    "worst_case_drop": cell.worst_case_drop,
                }
                for cell in self.cells
            ],
        }


def run_robustness_surface(
    dataset: str,
    sigmas,
    n_trials: int = 100,
    seed: int = 0,
    depths: tuple[int, ...] = DEFAULT_DEPTHS,
    taus: tuple[float, ...] = DEFAULT_TAUS,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    store: ResultStore | None = None,
    use_cache: bool = True,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
    cache_only: bool = False,
    ppa_backend=None,
) -> RobustnessSurface:
    """Map the (sigma x depth x tau) robustness surface of one benchmark.

    The sweep-level composition of the per-point variation cache: for every
    sigma in ``sigmas`` (canonicalized by
    :func:`~repro.core.sharding.normalize_sigmas`) and every grid point, one
    :class:`~repro.core.variation.VariationAnalysis` is resolved under the
    exact key a multi-sigma suite plan computes
    (:func:`~repro.core.sharding.variation_work_unit`), and the nominal
    baseline comes from the per-dataset suite cache.  Points absent from the
    store fan out through the executor as self-contained
    :func:`_variation_unit_job` tasks -- unless ``cache_only`` is set, the
    strict assemble discipline: *never* compute, raise
    :class:`~repro.core.sharding.MissingResultsError` listing every missing
    unit label and key.  On a store assembled from a multi-sigma sharded run
    the whole surface therefore renders from cache hits only, and the
    per-sigma entries it resolves are the same ones a
    ``mean_accuracy_drop`` search study probes for its warm start.
    """
    if cache_only and not use_cache:
        raise ValueError("cache_only requires use_cache=True")
    name = canonical_name(dataset)
    sigma_values = normalize_sigmas(sigmas)
    if not sigma_values:
        raise ValueError("at least one sigma is required")
    knobs = DesignSpec(
        name, seed, training_sigma=training_sigma, robustness_weight=robustness_weight
    )
    training_sigma, robustness_weight = knobs.training_sigma, knobs.robustness_weight
    (result,) = run_benchmark_suite(
        datasets=(name,),
        seed=seed,
        include_approximate_baseline=False,
        depths=depths,
        taus=taus,
        jobs=jobs,
        cache_dir=cache_dir,
        store=store,
        use_cache=use_cache,
        training_sigma=training_sigma,
        robustness_weight=robustness_weight,
        cache_only=cache_only,
        # The surface itself is accuracy-only (variation summaries), so the
        # backend only influences the baseline suite entry resolved here.
        ppa_backend=ppa_backend,
    )
    if use_cache and store is None:
        store = ResultStore(cache_dir) if cache_dir is not None else default_store()

    units = [
        variation_work_unit(
            name, seed, sigma, n_trials, depth, tau,
            training_sigma=training_sigma, robustness_weight=robustness_weight,
        )
        for sigma in sigma_values
        for depth, tau in grid_points(depths, taus)
    ]
    analyses: dict[str, VariationAnalysis] = {}
    pending = []
    for unit in units:
        cached = store.get(unit.store_key) if use_cache and store is not None else None
        if cached is not None:
            analyses[unit.store_key] = cached
        else:
            pending.append(unit)
    if pending and cache_only:
        store.flush_stats()
        raise MissingResultsError(
            [(unit.label, unit.store_key) for unit in pending]
        )
    if pending:
        with get_executor(jobs) as executor:
            computed = executor.map(_variation_unit_job, _variation_tasks(pending))
        for unit, analysis in zip(pending, computed):
            if use_cache and store is not None:
                store.put(unit.store_key, analysis)
            analyses[unit.store_key] = analysis
    if use_cache and store is not None:
        store.flush_stats()

    cells = []
    for unit in units:
        analysis = analyses[unit.store_key]
        cells.append(
            SurfaceCell(
                sigma_v=unit.params["sigma_v"],
                depth=unit.params["depth"],
                tau=unit.params["tau"],
                nominal_accuracy=analysis.nominal_accuracy,
                mean_accuracy=analysis.mean_accuracy,
                std_accuracy=analysis.std_accuracy,
                min_accuracy=analysis.min_accuracy,
                mean_accuracy_drop=analysis.mean_accuracy_drop,
                worst_case_drop=analysis.worst_case_drop,
            )
        )
    return RobustnessSurface(
        dataset=result.dataset,
        seed=int(seed),
        n_trials=int(n_trials),
        sigmas=sigma_values,
        depths=tuple(depths),
        taus=tuple(taus),
        training_sigma=float(training_sigma),
        robustness_weight=float(robustness_weight),
        baseline_accuracy=result.baseline.accuracy,
        cells=tuple(cells),
    )


# ---------------------------------------------------------------------- #
# budgeted design-space search (repro.cli search)
# ---------------------------------------------------------------------- #
def run_search_study(
    dataset: str,
    budget: int,
    objectives=("-accuracy", "power"),
    seed: int = 0,
    space: str | object = "paper",
    sigma_v: float | None = None,
    variation_trials: int = 100,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    store: ResultStore | None = None,
    use_cache: bool = True,
    batch_size: int = 4,
    cache_only: bool = False,
    ppa_backend=None,
):
    """Run one budgeted multi-objective study (see :mod:`repro.search`).

    The orchestration-level entry point behind ``repro.cli search``:
    resolves the named space (``"paper"`` or ``"wide"``, or a pre-built
    :class:`~repro.search.space.SearchSpace`), wires the study into the
    same store/cache plumbing as the suite runners -- trials on the paper
    grid warm-start from cached suite sweeps, robustness objectives share
    the ``variation`` Monte-Carlo pool -- and returns the
    :class:`~repro.search.study.StudyResult`.  Seeded studies are
    bit-reproducible and independent of ``jobs``.  ``cache_only`` applies
    the strict assemble discipline: a trial that would have to train
    raises :class:`~repro.core.sharding.MissingResultsError` instead.
    """
    # Deferred: keeps repro.search out of module import time (layering:
    # analysis orchestrates, search stays importable on its own).
    from repro.search import Study, get_space

    if isinstance(space, str):
        space = get_space(space)
    if use_cache and store is None:
        store = ResultStore(cache_dir) if cache_dir is not None else default_store()
    study = Study(
        dataset,
        space=space,
        objectives=objectives,
        seed=seed,
        sigma_v=sigma_v,
        variation_trials=variation_trials,
        store=store,
        use_cache=use_cache,
        batch_size=batch_size,
        cache_only=cache_only,
        ppa_backend=ppa_backend,
    )
    return study.run(budget=budget, jobs=jobs)


# ---------------------------------------------------------------------- #
# sharded execution (repro.cli suite / assemble)
# ---------------------------------------------------------------------- #
def _variation_unit_job(
    spec: DesignSpec, sigma_v: float, n_trials: int
) -> VariationAnalysis:
    """Top-level (picklable) job: compute one variation work unit from scratch.

    Self-contained on purpose: the point's tree is retrained here instead of
    being looked up from a suite result, so a variation unit can run on a
    shard that does *not* own the dataset's suite unit.  :func:`train_point`
    grows the same tree the sweep grows, so the cached summary is
    bit-identical to what the unsharded robustness pass would have stored
    under the same key.
    """
    tree, _, X_test, y_test = train_point(spec)
    return simulate_offset_variation(
        tree, X_test, y_test, sigma_v, n_trials=n_trials,
        technology=spec.technology, seed=spec.seed,
    )


def _variation_tasks(units) -> list[tuple]:
    """:func:`_variation_unit_job` arguments of variation work units."""
    return [
        (unit.params["spec"], unit.params["sigma_v"], unit.params["n_trials"])
        for unit in units
    ]


@dataclass(frozen=True)
class ShardRunReport:
    """What one shard run did: unit counts, reuse, and where results went."""

    shard: ShardSpec | None
    n_units: int
    n_suite_units: int
    n_variation_units: int
    reused: int

    @property
    def computed(self) -> int:
        """Units this run actually paid for (the rest were store hits)."""
        return self.n_units - self.reused


def run_plan_shard(
    plan: SuitePlan,
    shard: ShardSpec | None = None,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    store: ResultStore | None = None,
) -> ShardRunReport:
    """Compute one shard's work units of ``plan`` into the result store.

    Suite units are grouped per ``include_approximate_baseline`` variant and
    delegated to :func:`run_benchmark_suite` (which fans pending datasets
    out across ``jobs`` workers and write-throughs the store); variation
    units missing from the store fan out through the executor as
    self-contained :func:`_variation_unit_job` tasks.  Everything lands
    under the exact keys the unsharded entry points use, so an assemble
    step -- or any later ``table1``/``table2``/``explore`` invocation --
    resolves the shard's work as plain cache hits.
    """
    if store is None:
        store = ResultStore(cache_dir) if cache_dir is not None else default_store()
    units = plan.shard(shard)
    suite_units = [unit for unit in units if unit.kind == "suite"]
    variation_units = [unit for unit in units if unit.kind == "variation"]
    reused = sum(1 for unit in units if unit.store_key in store)

    for variant in plan.include_approximate_variants:
        group = [
            unit
            for unit in suite_units
            if unit.params["include_approximate_baseline"] == variant
        ]
        if group:
            run_benchmark_suite(
                datasets=tuple(unit.dataset for unit in group),
                seed=plan.seed,
                include_approximate_baseline=variant,
                depths=plan.depths,
                taus=plan.taus,
                jobs=jobs,
                store=store,
                training_sigma=plan.training_sigma,
                robustness_weight=plan.robustness_weight,
            )

    pending = [unit for unit in variation_units if unit.store_key not in store]
    if pending:
        with get_executor(jobs) as executor:
            analyses = executor.map(_variation_unit_job, _variation_tasks(pending))
        for unit, analysis in zip(pending, analyses):
            store.put(unit.store_key, analysis)
    store.flush_stats()

    return ShardRunReport(
        shard=shard,
        n_units=len(units),
        n_suite_units=len(suite_units),
        n_variation_units=len(variation_units),
        reused=reused,
    )
