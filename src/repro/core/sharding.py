"""Deterministic work-unit planning for sharded suite execution.

A *work unit* is one store-addressable computation of the benchmark suite:

* a ``suite`` unit -- the full co-design flow of one benchmark dataset at
  one ``include_approximate_baseline`` variant (the per-dataset cache
  granularity of :func:`repro.analysis.experiments.run_benchmark_suite`;
  Table I and Figs. 4/5 render from the ``False`` variant, Table II from
  ``True``), and
* a ``variation`` unit -- one comparator-offset Monte-Carlo summary of one
  (dataset, depth, tau) design point at a given sigma (the per-point cache
  granularity shared by ``repro.cli variation`` and ``explore``).

:func:`plan_suite_units` enumerates the units of a suite configuration in a
canonical order, and every unit assigns itself to one of ``N`` shards by
**stable hashing** (:meth:`WorkUnit.shard_index`): SHA-256 of the unit's
canonical identity, which contains only *what* is computed -- dataset, seed,
grid, sigma, training knobs -- never the code version, the enumeration
order, or anything process-specific.  Shard membership is therefore
reproducible across machines and invariant to dataset ordering: shard
``K/N`` computes the same subset wherever it runs, and the union over
``K = 1..N`` is a disjoint cover of the full plan.

Each shard computes its units into its own
:class:`~repro.core.store.ResultStore`, ships the store as a CI artifact
(:meth:`~repro.core.store.ResultStore.export_archive`), and a final
assemble step folds the shard stores into one
(:meth:`~repro.core.store.ResultStore.merge_from`) and renders every table
from cache hits only (``repro.cli assemble``), raising
:class:`MissingResultsError` -- with the missing keys listed -- when any
planned unit was never computed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS, grid_points
from repro.core.spec import DesignSpec
from repro.core.store import make_key
from repro.pdk.egfet import default_technology


def normalize_sigmas(
    sigmas,
    sigma_v: float | None = None,
) -> tuple[float, ...]:
    """Canonicalize a sigma request to a sorted, deduplicated tuple.

    Accepts the plural spelling (``sigmas``, any iterable of floats), the
    legacy singular spelling (``sigma_v``), or neither (empty tuple -- no
    variation units planned).  Passing both is ambiguous and rejected.  The
    canonical form is ascending and duplicate-free, so two requests naming
    the same sigma set -- in any order, with repeats -- plan the same units.
    """
    if sigmas is not None and sigma_v is not None:
        raise ValueError("pass either sigmas=... or sigma_v=..., not both")
    if sigmas is None:
        sigmas = () if sigma_v is None else (sigma_v,)
    if isinstance(sigmas, (int, float)):
        sigmas = (sigmas,)
    values = []
    for sigma in sigmas:
        sigma = float(sigma) or 0.0  # -0.0 and 0.0 are one sigma
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma:g}")
        values.append(sigma)
    return tuple(sorted(set(values)))


def suite_result_key(
    dataset: str,
    seed: int,
    include_approximate_baseline: bool,
    depths: tuple[int, ...],
    taus: tuple[float, ...],
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
) -> str:
    """Content-address one benchmark run of the suite configuration.

    The key normalizes the grid containers and folds in the (default)
    technology and the code version; the dataset name and the offset-aware
    training knobs are canonicalized by :class:`DesignSpec`, so equivalent
    requests alias, nominal and offset-aware sweeps address distinct
    entries, and stale results from older code do not alias.
    """
    spec = DesignSpec(
        dataset, seed,
        training_sigma=training_sigma, robustness_weight=robustness_weight,
    )
    return make_key(
        dataset=spec.dataset,
        seed=spec.seed,
        include_approximate_baseline=bool(include_approximate_baseline),
        depths=tuple(depths),
        taus=tuple(taus),
        technology=default_technology(),
        training_sigma=spec.training_sigma,
        robustness_weight=spec.robustness_weight,
    )


def suite_point(store, spec: DesignSpec, memo: dict | None = None):
    """``spec``'s :class:`DesignPoint` lifted out of a cached suite sweep.

    Only points on the paper protocol qualify -- default technology, 4-bit
    ADCs, the 70/30 split, (depth, tau) on the default grid -- because the
    suite sweeps only ever run there; anything else returns ``None``.  Both
    suite variants (Table I and Table II) are probed, since either caches
    the same exploration sweep.  Probes are membership checks first, so a
    missing variant never counts as a store miss.  ``memo`` (suite key ->
    result or ``None``) lets a caller resolving many points load each
    suite entry once.
    """
    grid = grid_points(DEFAULT_DEPTHS, DEFAULT_TAUS)
    point = (spec.depth, spec.tau)
    if (
        spec.resolution_bits != 4
        or spec.technology != default_technology()
        or spec.test_size != 0.3
        or point not in grid
    ):
        return None
    memo = {} if memo is None else memo
    for include_approximate in (False, True):
        key = suite_result_key(
            spec.dataset, spec.seed, include_approximate,
            DEFAULT_DEPTHS, DEFAULT_TAUS,
            training_sigma=spec.training_sigma,
            robustness_weight=spec.robustness_weight,
        )
        if key not in memo:
            memo[key] = store.get(key) if key in store else None
        if memo[key] is not None:
            return memo[key].exploration[grid.index(point)]
    return None


@dataclass(frozen=True)
class ShardSpec:
    """One shard of an ``N``-way split, written ``K/N`` (1-based)."""

    index: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("shard count must be >= 1")
        if not 1 <= self.index <= self.count:
            raise ValueError(
                f"shard index must be in 1..{self.count}, got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI spelling ``"K/N"`` (e.g. ``"2/3"``)."""
        head, sep, tail = str(text).strip().partition("/")
        try:
            if not sep:
                raise ValueError
            index, count = int(head), int(tail)
        except ValueError:
            raise ValueError(
                f"shard must be spelled K/N (e.g. 2/3), got {text!r}"
            ) from None
        return cls(index=index, count=count)

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


@dataclass(frozen=True)
class WorkUnit:
    """One store-addressable computation of a suite plan.

    ``identity`` is the unit's canonical, code-version-independent identity
    (primitives only) -- the sole input of the shard hash, so membership
    survives version bumps even though ``store_key`` does not.  ``params``
    carries everything needed to compute the unit; it does not participate
    in equality or hashing.
    """

    kind: str  #: ``"suite"`` or ``"variation"``
    dataset: str
    seed: int
    label: str  #: human-readable name used in plans and error listings
    store_key: str  #: content address of the result in the ResultStore
    identity: tuple
    params: dict = field(compare=False, repr=False)

    def shard_index(self, n_shards: int) -> int:
        """Stable 1-based shard assignment of this unit among ``n_shards``.

        SHA-256 of the canonical JSON form of :attr:`identity`: independent
        of ``PYTHONHASHSEED``, the host, the process, and the order the plan
        enumerated its units in.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        rendered = json.dumps(self.identity, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(rendered.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % n_shards + 1


def suite_work_unit(
    dataset: str,
    seed: int,
    include_approximate_baseline: bool,
    depths: tuple[int, ...],
    taus: tuple[float, ...],
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
) -> WorkUnit:
    """The work unit of one per-dataset suite run (one cache entry)."""
    spec = DesignSpec(
        dataset, seed,
        training_sigma=training_sigma, robustness_weight=robustness_weight,
    )
    variant = "table2" if include_approximate_baseline else "table1"
    return WorkUnit(
        kind="suite",
        dataset=spec.dataset,
        seed=spec.seed,
        label=f"suite:{spec.dataset}[{variant}]",
        store_key=suite_result_key(
            spec.dataset, spec.seed, include_approximate_baseline, depths, taus,
            training_sigma=spec.training_sigma,
            robustness_weight=spec.robustness_weight,
        ),
        identity=(
            "suite", spec.dataset, spec.seed, bool(include_approximate_baseline),
            tuple(depths), tuple(taus),
            spec.training_sigma, spec.robustness_weight,
        ),
        params={
            "include_approximate_baseline": bool(include_approximate_baseline),
            "depths": tuple(depths),
            "taus": tuple(taus),
        },
    )


def variation_work_unit(
    dataset: str,
    seed: int,
    sigma_v: float,
    n_trials: int,
    depth: int,
    tau: float,
    resolution_bits: int = 4,
    test_size: float = 0.3,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
) -> WorkUnit:
    """The work unit of one per-point offset Monte-Carlo (one cache entry).

    ``params["spec"]`` is the :class:`DesignSpec` whose tree the unit
    simulates.
    """
    spec = DesignSpec(
        dataset, seed, depth, tau, resolution_bits, test_size=test_size,
        training_sigma=training_sigma, robustness_weight=robustness_weight,
    )
    sigma_v, n_trials = float(sigma_v), int(n_trials)
    return WorkUnit(
        kind="variation",
        dataset=spec.dataset,
        seed=spec.seed,
        label=(
            f"variation:{spec.dataset}"
            f"[d={spec.depth},tau={spec.tau:g},sigma={sigma_v:g}]"
        ),
        store_key=spec.variation_key(sigma_v, n_trials),
        identity=(
            "variation", spec.dataset, spec.seed, sigma_v, n_trials,
            spec.depth, spec.tau, spec.resolution_bits, spec.test_size,
            spec.training_sigma, spec.robustness_weight,
        ),
        params={
            "spec": spec,
            "sigma_v": sigma_v,
            "n_trials": n_trials,
            "depth": spec.depth,
            "tau": spec.tau,
        },
    )


class MissingResultsError(RuntimeError):
    """A cache-only run found planned units absent from the store.

    ``missing`` holds ``(label, store_key)`` pairs -- enough to see *which*
    shard never ran and to look the keys up by hand.  The message lists
    every pair, so a failed CI assemble names the gap instead of a generic
    nonzero exit.
    """

    def __init__(self, missing):
        self.missing: tuple[tuple[str, str], ...] = tuple(
            (str(label), str(key)) for label, key in missing
        )
        lines = "\n".join(f"  {label}  {key}" for label, key in self.missing)
        super().__init__(
            f"{len(self.missing)} planned unit(s) missing from the result "
            f"store (was a shard skipped?):\n{lines}"
        )


@dataclass(frozen=True)
class SuitePlan:
    """The deterministic work-unit enumeration of one suite configuration.

    Carries the configuration itself (so a shard runner can reconstruct the
    exact :func:`~repro.analysis.experiments.run_benchmark_suite` calls) and
    the canonical unit tuple.  Partitioning happens per unit via
    :meth:`WorkUnit.shard_index`; :meth:`shard` filters, :meth:`missing`
    diffs the plan against a store.
    """

    datasets: tuple[str, ...]
    seed: int
    depths: tuple[int, ...]
    taus: tuple[float, ...]
    include_approximate_variants: tuple[bool, ...]
    sigmas: tuple[float, ...]
    n_trials: int
    training_sigma: float
    robustness_weight: float
    units: tuple[WorkUnit, ...]

    @property
    def sigma_v(self) -> float | None:
        """Back-compat single-sigma view: the sigma when exactly one is planned."""
        return self.sigmas[0] if len(self.sigmas) == 1 else None

    def shard(self, spec: ShardSpec | None) -> tuple[WorkUnit, ...]:
        """The units assigned to ``spec`` (all units when ``spec`` is None)."""
        if spec is None:
            return self.units
        return tuple(
            unit for unit in self.units
            if unit.shard_index(spec.count) == spec.index
        )

    def missing(self, store) -> tuple[WorkUnit, ...]:
        """Planned units whose results are absent from ``store``.

        Pure membership checks: never loads entries, never counts store
        misses -- so a subsequent cache-only render still reports zero
        misses on a complete store.
        """
        return tuple(unit for unit in self.units if unit.store_key not in store)


def plan_suite_units(
    datasets: tuple[str, ...] | None = None,
    seed: int = 0,
    depths: tuple[int, ...] = DEFAULT_DEPTHS,
    taus: tuple[float, ...] = DEFAULT_TAUS,
    fast: bool = False,
    include_approximate_variants: tuple[bool, ...] = (False, True),
    sigma_v: float | None = None,
    n_trials: int = 100,
    resolution_bits: int = 4,
    test_size: float = 0.3,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
    sigmas: tuple[float, ...] | None = None,
) -> SuitePlan:
    """Enumerate the work units of one suite configuration, in canonical order.

    Suite units come first (dataset-major, the ``include_approximate``
    variants inner); with ``sigmas`` given (or the legacy single-value
    ``sigma_v`` spelling), one variation unit per (dataset, sigma, depth,
    tau) point follows (dataset-major, sigmas ascending, the grid in the
    depth-major order of :func:`~repro.core.exploration.grid_points`).  The
    sigma request is canonicalized by :func:`normalize_sigmas` before
    enumeration, so per-unit identities -- and therefore shard membership
    and store keys -- are invariant to sigma ordering and duplicates, and a
    single-sigma plan is unit-for-unit identical whichever spelling made it.
    The enumeration order is presentation only -- shard membership depends
    on each unit's identity alone, so reordering ``datasets`` never moves a
    unit between shards.
    """
    # Deferred: experiments imports this module (layering: analysis -> core).
    from repro.analysis.experiments import resolve_suite_datasets

    requested = resolve_suite_datasets(datasets, fast)
    names = tuple(dict.fromkeys(DesignSpec(name).dataset for name in requested))
    knobs = DesignSpec(
        "", training_sigma=training_sigma, robustness_weight=robustness_weight
    )
    training_sigma, robustness_weight = knobs.training_sigma, knobs.robustness_weight
    sigma_values = normalize_sigmas(sigmas, sigma_v)
    units: list[WorkUnit] = []
    for name in names:
        for variant in include_approximate_variants:
            units.append(
                suite_work_unit(
                    name, seed, variant, depths, taus,
                    training_sigma=training_sigma,
                    robustness_weight=robustness_weight,
                )
            )
    for name in names:
        for sigma in sigma_values:
            for depth, tau in grid_points(depths, taus):
                units.append(
                    variation_work_unit(
                        name, seed, sigma, n_trials, depth, tau,
                        resolution_bits=resolution_bits, test_size=test_size,
                        training_sigma=training_sigma,
                        robustness_weight=robustness_weight,
                    )
                )
    return SuitePlan(
        datasets=names,
        seed=int(seed),
        depths=tuple(depths),
        taus=tuple(taus),
        include_approximate_variants=tuple(
            bool(v) for v in include_approximate_variants
        ),
        sigmas=sigma_values,
        n_trials=int(n_trials),
        training_sigma=float(training_sigma),
        robustness_weight=float(robustness_weight),
        units=tuple(units),
    )
