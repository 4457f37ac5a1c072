"""Typed parameter spaces for the budgeted design-space search.

A :class:`SearchSpace` is an ordered tuple of typed dimensions -- integer,
(log-)float and categorical -- over the co-design hyperparameters: tree
depth, Gini tolerance tau, ADC resolution bits, technology corner and the
offset-aware training knobs of PR 4.  Every dimension maps between its
native values and the unit interval (``encode`` / ``decode``), and
**decoding always snaps onto the dimension's canonical grid**: two
floating-point spellings of the same trial collapse to one canonical
configuration, one :func:`SearchSpace.config_id`, and therefore one
deterministic cache identity (the ``"design_point"`` key of the trial's
:class:`~repro.core.spec.DesignSpec`).  That snap is what makes
trial dedup and cache warm-starts exact instead of epsilon-fuzzy.

Discrete spaces (every dimension integer, categorical or step-quantized)
expose their finite :attr:`SearchSpace.cardinality` and a deterministic
:meth:`SearchSpace.enumerate`, which the sampler uses to terminate cleanly
when a small space is exhausted before the budget is.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

#: Floats are rounded to this many digits when canonicalized, so encode /
#: decode round trips and JSON serialization can never drift a trial onto a
#: second cache identity.
_FLOAT_DIGITS = 12


def _canonical_float(value: float) -> float:
    """Round to the canonical precision; collapses -0.0 onto 0.0."""
    return round(float(value), _FLOAT_DIGITS) + 0.0


@dataclass(frozen=True)
class IntDimension:
    """An inclusive integer range ``low..high``."""

    name: str
    low: int
    high: int

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(f"{self.name}: low must be <= high")

    @property
    def n_choices(self) -> int:
        return self.high - self.low + 1

    def grid(self) -> tuple[int, ...]:
        return tuple(range(self.low, self.high + 1))

    def encode(self, value) -> float:
        value = self.canonical(value)
        if self.n_choices == 1:
            return 0.5
        return (value - self.low) / (self.high - self.low)

    def decode(self, u: float) -> int:
        u = min(1.0, max(0.0, float(u)))
        return self.low + int(round(u * (self.high - self.low)))

    def canonical(self, value) -> int:
        value = int(round(float(value)))
        if not self.low <= value <= self.high:
            raise ValueError(f"{self.name}: {value} outside [{self.low}, {self.high}]")
        return value

    def describe(self) -> dict:
        return {"type": "int", "name": self.name, "low": self.low, "high": self.high}


@dataclass(frozen=True)
class FloatDimension:
    """A float range, optionally log-scaled or quantized to a step grid.

    ``step`` quantizes the range onto ``low + k * step`` points (making the
    dimension finite); ``log`` spaces the encoding geometrically (requires
    ``low > 0`` and excludes ``step``).
    """

    name: str
    low: float
    high: float
    step: float | None = None
    log: bool = False

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(f"{self.name}: low must be <= high")
        if self.log:
            if self.low <= 0:
                raise ValueError(f"{self.name}: log dimensions require low > 0")
            if self.step is not None:
                raise ValueError(f"{self.name}: step and log are mutually exclusive")
        if self.step is not None and self.step <= 0:
            raise ValueError(f"{self.name}: step must be positive")

    @property
    def _n_steps(self) -> int:
        return int(round((self.high - self.low) / self.step))

    @property
    def n_choices(self) -> int | None:
        """Number of grid points (None for a continuous dimension)."""
        if self.step is None:
            return None if self.low < self.high else 1
        return self._n_steps + 1

    def grid(self) -> tuple[float, ...]:
        if self.n_choices is None:
            raise ValueError(f"{self.name}: continuous dimension has no grid")
        if self.step is None:
            return (_canonical_float(self.low),)
        return tuple(
            _canonical_float(self.low + k * self.step) for k in range(self._n_steps + 1)
        )

    def encode(self, value) -> float:
        value = self.canonical(value)
        if self.low == self.high:
            return 0.5
        if self.log:
            return (math.log(value) - math.log(self.low)) / (
                math.log(self.high) - math.log(self.low)
            )
        return (value - self.low) / (self.high - self.low)

    def decode(self, u: float) -> float:
        u = min(1.0, max(0.0, float(u)))
        if self.low == self.high:
            return _canonical_float(self.low)
        if self.log:
            log_low, log_high = math.log(self.low), math.log(self.high)
            return _canonical_float(math.exp(log_low + u * (log_high - log_low)))
        if self.step is not None:
            k = int(round(u * self._n_steps))
            return _canonical_float(self.low + k * self.step)
        return _canonical_float(self.low + u * (self.high - self.low))

    def canonical(self, value) -> float:
        value = float(value)
        if not (self.low - 1e-9 <= value <= self.high + 1e-9):
            raise ValueError(f"{self.name}: {value} outside [{self.low}, {self.high}]")
        value = min(self.high, max(self.low, value))
        if self.step is not None:
            # Snap onto the step grid: the canonical identity of the trial.
            k = int(round((value - self.low) / self.step))
            k = min(self._n_steps, max(0, k))
            value = self.low + k * self.step
        return _canonical_float(value)

    def describe(self) -> dict:
        out = {"type": "float", "name": self.name, "low": self.low, "high": self.high}
        if self.step is not None:
            out["step"] = self.step
        if self.log:
            out["log"] = True
        return out


@dataclass(frozen=True)
class CategoricalDimension:
    """An explicit tuple of choices (hashable, JSON-serializable)."""

    name: str
    choices: tuple

    def __post_init__(self):
        if not self.choices:
            raise ValueError(f"{self.name}: at least one choice is required")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError(f"{self.name}: choices must be unique")

    @property
    def n_choices(self) -> int:
        return len(self.choices)

    def grid(self) -> tuple:
        return tuple(self.choices)

    def encode(self, value) -> float:
        # Bin centers, so decode(encode(v)) == v for every choice.
        return (self.choices.index(self.canonical(value)) + 0.5) / self.n_choices

    def decode(self, u: float):
        u = min(1.0, max(0.0, float(u)))
        index = min(self.n_choices - 1, int(u * self.n_choices))
        return self.choices[index]

    def canonical(self, value):
        if value in self.choices:
            return value
        raise ValueError(f"{self.name}: {value!r} not among choices {self.choices!r}")

    def describe(self) -> dict:
        return {"type": "categorical", "name": self.name, "choices": list(self.choices)}


Dimension = IntDimension | FloatDimension | CategoricalDimension


class SearchSpace:
    """An ordered, typed parameter space with canonical trial identities.

    Configurations are plain ``{dimension name: value}`` dicts.
    :meth:`canonical` snaps every value onto its dimension's grid and
    :meth:`config_id` renders the canonical configuration as deterministic
    JSON -- the dedup key of the sampler and the study, and the basis of
    the trial's cache identity.
    """

    def __init__(self, dimensions):
        self.dimensions: tuple[Dimension, ...] = tuple(dimensions)
        if not self.dimensions:
            raise ValueError("a search space needs at least one dimension")
        names = [dim.name for dim in self.dimensions]
        if len(set(names)) != len(names):
            raise ValueError(f"dimension names must be unique, got {names}")
        self._by_name = {dim.name: dim for dim in self.dimensions}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(dim.name for dim in self.dimensions)

    def __len__(self) -> int:
        return len(self.dimensions)

    def __getitem__(self, name: str) -> Dimension:
        return self._by_name[name]

    def canonical(self, config: dict) -> dict:
        """Snap every value onto its dimension grid; rejects unknown keys."""
        unknown = set(config) - set(self.names)
        if unknown:
            raise ValueError(f"unknown dimensions: {sorted(unknown)}")
        missing = set(self.names) - set(config)
        if missing:
            raise ValueError(f"missing dimensions: {sorted(missing)}")
        return {dim.name: dim.canonical(config[dim.name]) for dim in self.dimensions}

    def config_id(self, config: dict) -> str:
        """Deterministic identity of a trial configuration (dedup key)."""
        return json.dumps(self.canonical(config), sort_keys=True, separators=(",", ":"))

    def encode(self, config: dict) -> tuple[float, ...]:
        """Map a configuration into the unit hypercube, dimension order."""
        config = self.canonical(config)
        return tuple(dim.encode(config[dim.name]) for dim in self.dimensions)

    def decode(self, vector) -> dict:
        """Map a unit-hypercube vector back onto the canonical grid."""
        vector = tuple(vector)
        if len(vector) != len(self.dimensions):
            raise ValueError(
                f"vector has {len(vector)} components, expected {len(self.dimensions)}"
            )
        return {
            dim.name: dim.decode(u) for dim, u in zip(self.dimensions, vector)
        }

    def sample(self, rng) -> dict:
        """One uniform random configuration (``rng``: numpy Generator)."""
        return self.decode(tuple(float(rng.random()) for _ in self.dimensions))

    @property
    def cardinality(self) -> int | None:
        """Number of distinct configurations (None when any dim is continuous)."""
        total = 1
        for dim in self.dimensions:
            n = dim.n_choices
            if n is None:
                return None
            total *= n
        return total

    def enumerate(self):
        """Yield every configuration of a finite space, in canonical order.

        Dimension-major (last dimension fastest), mirroring the depth-major
        convention of :func:`repro.core.exploration.grid_points`.  Raises on
        continuous spaces.
        """
        if self.cardinality is None:
            raise ValueError("cannot enumerate a continuous search space")

        def rec(prefix: dict, remaining):
            if not remaining:
                yield dict(prefix)
                return
            dim = remaining[0]
            for value in dim.grid():
                prefix[dim.name] = value
                yield from rec(prefix, remaining[1:])
            del prefix[dim.name]

        yield from rec({}, list(self.dimensions))

    def describe(self) -> dict:
        """JSON-serializable description (study records, dashboards)."""
        return {
            "dimensions": [dim.describe() for dim in self.dimensions],
            "cardinality": self.cardinality,
        }


# --------------------------------------------------------------------- #
# the co-design spaces
# --------------------------------------------------------------------- #
def paper_space() -> SearchSpace:
    """The paper's exhaustive grid as a search space (49 configurations).

    Depth 2..8 and tau 0..0.03 in steps of 0.005, everything else pinned to
    the paper's protocol (4-bit ADCs, the default EGFET corner, nominal
    training).  Every configuration lies on the suite grid, so a study over
    this space warm-starts entirely from cached suite results -- and the
    search-efficiency benchmark compares against the exhaustive sweep on
    equal terms.
    """
    return SearchSpace(
        (
            IntDimension("depth", 2, 8),
            FloatDimension("tau", 0.0, 0.03, step=0.005),
            CategoricalDimension("resolution_bits", (4,)),
            CategoricalDimension("technology", ("default",)),
            CategoricalDimension("training_sigma", (0.0,)),
            CategoricalDimension("robustness_weight", (1.0,)),
        )
    )


def wide_space() -> SearchSpace:
    """The enlarged space the budgeted optimizer makes tractable.

    Finer tau (steps of 0.001), depths beyond the paper's 8, 3/4/5-bit ADC
    resolutions and the offset-aware training knobs of PR 4 -- 10 044
    configurations, far past exhaustive-sweep territory, searchable in
    O(budget) trials.
    """
    return SearchSpace(
        (
            IntDimension("depth", 2, 10),
            FloatDimension("tau", 0.0, 0.03, step=0.001),
            CategoricalDimension("resolution_bits", (3, 4, 5)),
            CategoricalDimension("technology", ("default",)),
            FloatDimension("training_sigma", 0.0, 0.05, step=0.01),
            CategoricalDimension("robustness_weight", (0.5, 1.0)),
        )
    )


_SPACES = {"paper": paper_space, "wide": wide_space}


def space_names() -> tuple[str, ...]:
    """Names accepted by :func:`get_space` (and ``repro.cli search --space``)."""
    return tuple(sorted(_SPACES))


def get_space(name: str) -> SearchSpace:
    """Look up a named co-design space (``"paper"`` or ``"wide"``)."""
    try:
        factory = _SPACES[name]
    except KeyError:
        raise ValueError(
            f"unknown search space {name!r}; choose from {space_names()}"
        ) from None
    return factory()
