"""The benchmark's workloads: set-up, one timed pass, and output checks.

Every workload drives the public API of ``repro`` the way a user's command
does, serially (``jobs=1``) in one process.  A pass starts from a fresh
empty store (cold workloads) or a pristine copy of the set-up store (warm
workloads), with every in-process memo cleared, so no pass reuses work of
an earlier one.

Functions that the tracer wraps are always called through their module
(``tables.table1_rows``), never through a name bound here, so the traced run
sees the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import figures, render, tables
from repro.analysis.experiments import (
    clear_memo,
    run_benchmark_suite,
    run_robustness_surface,
    run_search_study,
)
from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS
from repro.core.store import ResultStore
from repro.datasets import registry

HERE = Path(__file__).resolve().parent

#: Pass ``i`` of a cold workload uses seed ``run seed + SEED_STRIDE * i``.
SEED_STRIDE = 1000

#: Digests of the default-seed outputs at the paper shape.  A change that
#: alters any design point's numbers or any rendered table fails the checks.
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Shape:
    """How much work each workload does.  ``paper`` is the measured shape."""

    name: str
    datasets: tuple[str, ...] | None  # None: every registered benchmark
    depths: tuple[int, ...]
    taus: tuple[float, ...]
    surface_dataset: str
    surface_depths: tuple[int, ...]
    surface_taus: tuple[float, ...]
    sigmas: tuple[float, ...]
    trials: int
    search_dataset: str
    budget: int
    batch_size: int = 4

    def dataset_names(self) -> tuple[str, ...]:
        if self.datasets is not None:
            return self.datasets
        return tuple(registry.dataset_names())

    @property
    def grid(self) -> int:
        return len(self.depths) * len(self.taus)

    @property
    def surface_grid(self) -> int:
        return len(self.surface_depths) * len(self.surface_taus)


SHAPES = {
    "paper": Shape(
        name="paper",
        datasets=None,
        depths=DEFAULT_DEPTHS,
        taus=DEFAULT_TAUS,
        surface_dataset="cardio",
        # Depths 2, 4, 6, 8 and taus 0, 15, 30 mV: the corners and middle of
        # the paper's grid.  A pass costs a quarter of the full surface, so
        # one run averages over a dozen seeds' inputs, whose cost varies by
        # a factor of up to 2 (tree sizes).
        surface_depths=DEFAULT_DEPTHS[::2],
        surface_taus=DEFAULT_TAUS[::3],
        sigmas=(0.01, 0.02, 0.04),
        trials=100,
        search_dataset="cardio",
        budget=24,
    ),
    # Smoke-test shape: two small datasets, a 2x2 grid, budget 4.
    "tiny": Shape(
        name="tiny",
        datasets=("seeds", "vertebral_2c"),
        depths=(2, 3),
        taus=(0.0, 0.01),
        surface_dataset="seeds",
        surface_depths=(2, 3),
        surface_taus=(0.0, 0.01),
        sigmas=(0.01, 0.02),
        trials=10,
        search_dataset="seeds",
        budget=4,
    ),
}


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def reset_process_state(default_store_dir: Path) -> None:
    """Drop every in-process memo, so a pass recomputes what a new process would."""
    clear_memo()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for value in list(vars(module).values()):
            if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                value.cache_clear()
    # Nothing here passes store=None, but a default store must not carry
    # entries from one pass to the next if something ever does.
    shutil.rmtree(default_store_dir, ignore_errors=True)


def fresh_dir(path: Path, copy_from: Path | None = None) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    if copy_from is None:
        path.mkdir(parents=True)
    else:
        shutil.copytree(copy_from, path)
    return path


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def points_digest(results) -> str:
    """Digest of every exploration point's exact (accuracy, area, power)."""
    digest = hashlib.sha256()
    for result in results:
        for point in result.exploration:
            digest.update(repr((
                result.dataset, point.depth, point.tau, point.accuracy,
                point.total_area_mm2, point.total_power_uw,
            )).encode("utf-8"))
    return digest.hexdigest()


def _section(title: str, rows: list[dict], summary: dict) -> str:
    lines = [f"== {title} =="]
    if rows:
        lines.append(render.render_table(list(rows[0]), [tuple(r.values()) for r in rows]))
    lines.extend(f"{key}: {value!r}" for key, value in summary.items() if key != "rows")
    return "\n".join(lines)


def render_paper(table1_results, table2_results) -> str:
    """Table I, Fig. 4, Fig. 5 and Table II as text, from the public builders."""
    rows1 = tables.table1_rows(table1_results)
    rows2 = tables.table2_rows(table2_results)
    fig4 = figures.fig4_series(table1_results)
    sections = [
        _section("table1", rows1, tables.table1_summary(rows1)),
        _section("fig4", fig4["rows"], fig4),
    ]
    for loss, panel in figures.fig5_series(table1_results).items():
        sections.append(_section(f"fig5 loss<={loss:g}", panel["rows"], panel))
    sections.append(_section("table2", rows2, tables.table2_summary(rows2)))
    return "\n\n".join(sections)


def render_surface(surface) -> str:
    summary = tables.robustness_surface_summary(surface)
    return "\n\n".join([
        _section(f"surface {surface.dataset}", tables.robustness_surface_rows(surface), {}),
        _section("surface summary", summary["per_sigma"], {}),
    ])


def setup_child(workload: str, shape: Shape, seed: int, directory: Path) -> None:
    """Run :func:`setup` for ``workload`` in a new process and wait for it.

    A new process pays what a user's command pays (interpreter start and
    imports), and leaves no memo behind in the measuring process.
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--shape", shape.name, "--setup-into", str(directory),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n{done.stderr[-2000:]}")


def setup(workload: str, shape: Shape, seed: int, directory: Path) -> None:
    """The set-up of ``workload``, run by :func:`setup_child`.

    Cold workloads generate their inputs; warm workloads also pre-fill
    ``directory/store`` with what their passes read.
    """
    if workload == "cold_paper":
        for name in shape.dataset_names():
            registry.load_dataset(name, seed=seed)
        return
    if workload == "cold_surface":
        registry.load_dataset(shape.surface_dataset, seed=seed)
        return
    store = ResultStore(fresh_dir(directory / "store"))
    if workload == "warm_search":
        # The store cardio's `table1` or `surface` leaves behind: its suite sweep.
        run_benchmark_suite(
            datasets=(shape.search_dataset,), seed=seed,
            include_approximate_baseline=False, jobs=1, store=store,
        )
        return
    names = shape.dataset_names()
    cold = run_benchmark_suite(
        datasets=names, seed=seed, include_approximate_baseline=True,
        depths=shape.depths, taus=shape.taus, jobs=1, store=store,
    )
    run_benchmark_suite(
        datasets=names, seed=seed, include_approximate_baseline=False,
        depths=shape.depths, taus=shape.taus, jobs=1, store=store,
    )
    surface = run_robustness_surface(
        shape.surface_dataset, shape.sigmas, n_trials=shape.trials, seed=seed,
        depths=shape.surface_depths, taus=shape.surface_taus, jobs=1, store=store,
    )
    # What the cold workloads render from freshly computed results.
    (directory / "cold_paper.txt").write_text(render_paper(cold, cold), encoding="utf-8")
    (directory / "cold_surface.txt").write_text(render_surface(surface), encoding="utf-8")


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
class Workload:
    """One workload.  ``run_pass`` is timed; everything else is not."""

    name = ""
    item = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 5

    def __init__(self, shape: Shape, seed: int, workdir: Path, inject: bool = False):
        self.shape = shape
        self.seed = seed
        self.workdir = workdir
        #: Negative control: corrupt the output under check, so checks must fail.
        self.inject = inject
        #: Where the set-up leaves its outputs (the pristine store of warm workloads).
        self.setup_dir = workdir / "setup"
        self.pass_store = workdir / "pass-store"
        self.default_store = workdir / "default-store"
        #: Seed of the pass being run (see :meth:`pass_seed`).
        self.current_seed = seed

    @property
    def committed(self) -> dict | None:
        """Committed digests, when this pass's shape and seed have them."""
        if self.shape.name == "paper" and self.current_seed == EXPECTED["seed"]:
            return EXPECTED
        return None

    def pass_seed(self, index: int) -> int:
        """Program seed of pass ``index`` (pass 0 always uses the run's seed)."""
        return self.seed

    def setup(self) -> None:
        setup_child(self.name, self.shape, self.seed, self.setup_dir)

    def prepare_pass(self, index: int) -> None:
        self.current_seed = self.pass_seed(index)
        fresh_dir(self.pass_store)
        reset_process_state(self.default_store)

    def run_pass(self, checkpoint):
        """One pass; ``checkpoint()`` may be called between units of work.

        The runner samples the host's speed there, off the pass's clock.
        """
        raise NotImplementedError

    def items(self, output) -> int:
        raise NotImplementedError

    def check(self, output) -> list[str]:
        """Problems with one pass's output (empty when correct)."""
        raise NotImplementedError

    def expected_counts(self) -> dict[str, int]:
        """Traced counts that the workload's shape implies exactly."""
        raise NotImplementedError

    def layer_extras(self, output) -> dict[str, float]:
        return {}


class ColdWorkload(Workload):
    """A workload whose passes each compute from scratch.

    Their cost depends on the inputs (tree sizes vary by seed), so every
    pass after the first takes a new seed derived from the run's seed: a
    run's mean then spans several inputs, and no pass can reuse another's
    work even through a memo the isolation missed.
    """

    def pass_seed(self, index: int) -> int:
        return self.seed + SEED_STRIDE * index


class WarmWorkload(Workload):
    """A workload whose passes read a pristine copy of the set-up's store."""

    def prepare_pass(self, index: int) -> None:
        fresh_dir(self.pass_store, copy_from=self.setup_dir / "store")
        reset_process_state(self.default_store)


class ColdPaper(ColdWorkload):
    """Cold `table2`: the 8-dataset sweep over the depth x tau grid into an empty store."""

    name = "cold_paper"
    item = "design point"

    def run_pass(self, checkpoint):
        # One call per dataset computes what one call for all of them does
        # (each dataset is its own store entry); the calls leave room to
        # sample the host's speed through the pass.
        store = ResultStore(self.pass_store)
        results = []
        for name in self.shape.dataset_names():
            results += run_benchmark_suite(
                datasets=(name,), seed=self.current_seed,
                include_approximate_baseline=True, depths=self.shape.depths,
                taus=self.shape.taus, jobs=1, store=store,
            )
            checkpoint()
        return results, render_paper(results, results)

    def items(self, output) -> int:
        return sum(len(result.exploration) for result in output[0])

    def check(self, output) -> list[str]:
        results, text = output
        if self.inject:
            text += "\n(injected mismatch)"
        problems = []
        expected_points = len(self.shape.dataset_names()) * self.shape.grid
        if self.items(output) != expected_points:
            problems.append(f"{self.items(output)} design points, expected {expected_points}")
        # The same tables read back through the store, as `assemble` would.
        reset_process_state(self.default_store)
        replayed = run_benchmark_suite(
            datasets=self.shape.dataset_names(), seed=self.current_seed,
            include_approximate_baseline=True, depths=self.shape.depths,
            taus=self.shape.taus, store=ResultStore(self.pass_store), cache_only=True,
        )
        if render_paper(replayed, replayed) != text:
            problems.append("tables rendered from the store differ from the cold rendering")
        if self.committed:
            if points_digest(results) != self.committed["paper_points_sha256"]:
                problems.append("design-point digest differs from expected.json")
            if sha256(text) != self.committed["paper_render_sha256"]:
                problems.append("rendered tables differ from expected.json")
        return problems

    def expected_counts(self) -> dict[str, int]:
        n = len(self.shape.dataset_names())
        return {
            "training.fits": n * self.shape.grid,
            "store.puts": n,
            "montecarlo.calls": 0,
            "search.tells": 0,
        }


class ColdSurface(ColdWorkload):
    """Cold `surface`: the sigma x depth x tau robustness surface of one dataset."""

    name = "cold_surface"
    item = "surface cell"

    def run_pass(self, checkpoint):
        surface = run_robustness_surface(
            self.shape.surface_dataset, self.shape.sigmas, n_trials=self.shape.trials,
            seed=self.current_seed, depths=self.shape.surface_depths,
            taus=self.shape.surface_taus, jobs=1, store=ResultStore(self.pass_store),
        )
        return surface, render_surface(surface)

    def items(self, output) -> int:
        return len(output[0].cells)

    def sweep_accuracy(self, paper: bool) -> dict:
        """Accuracy per (depth, tau) of a suite sweep at the pass's seed.

        ``paper=False`` reads back the sweep that the surface stored as its
        baseline; ``paper=True`` computes the cold paper sweep (the full
        grid, with the approximate baseline) into a store of its own.
        """
        reset_process_state(self.default_store)
        if paper:
            grid = {"depths": self.shape.depths, "taus": self.shape.taus}
            store_dir = fresh_dir(self.workdir / "reference-store")
        else:
            grid = {"depths": self.shape.surface_depths, "taus": self.shape.surface_taus}
            store_dir = self.pass_store
        (result,) = run_benchmark_suite(
            datasets=(self.shape.surface_dataset,), seed=self.current_seed,
            include_approximate_baseline=paper, jobs=1, store=ResultStore(store_dir),
            cache_only=not paper, **grid,
        )
        return {(point.depth, point.tau): point.accuracy for point in result.exploration}

    def check(self, output) -> list[str]:
        surface, text = output
        if self.inject:
            text += "\n(injected mismatch)"
        problems = []
        expected_cells = len(self.shape.sigmas) * self.shape.surface_grid
        if len(surface.cells) != expected_cells:
            problems.append(f"{len(surface.cells)} cells, expected {expected_cells}")
        # The sweep the surface stored as its baseline, read back from the
        # pass's store; the cells were each retrained on their own.
        reference = self.sweep_accuracy(paper=False)
        wrong = [
            cell for cell in surface.cells
            if cell.nominal_accuracy != reference.get((cell.depth, cell.tau))
        ]
        if wrong or self.inject:
            problems.append(
                f"{len(wrong)} cells' nominal accuracy differs from the suite sweep"
            )
        # Once per run, at the run's seed, the stored sweep is compared with
        # the cold paper sweep on the full grid, which costs more than a pass.
        if self.current_seed == self.seed:
            paper = self.sweep_accuracy(paper=True)
            if any(paper.get(point) != accuracy for point, accuracy in reference.items()):
                problems.append("the surface's suite sweep differs from the cold paper sweep")
        if self.committed and sha256(text) != self.committed["surface_render_sha256"]:
            problems.append("rendered surface differs from expected.json")
        return problems

    def expected_counts(self) -> dict[str, int]:
        cells = len(self.shape.sigmas) * self.shape.surface_grid
        return {
            # One sweep for the baseline suite entry, one retrain per cell.
            "training.fits": self.shape.surface_grid + cells,
            "montecarlo.calls": cells,
            "montecarlo.trials": cells * self.shape.trials,
            "store.puts": cells + 1,
            "search.tells": 0,
        }


class WarmSearch(WarmWorkload):
    """Warm `search`: a budgeted study whose every trial resolves from the store."""

    name = "warm_search"
    item = "trial"
    setup_repeats = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._grid_points: dict | None = None
        self._first_record: str | None = None

    def run_pass(self, checkpoint):
        return run_search_study(
            self.shape.search_dataset, budget=self.shape.budget,
            objectives=("-accuracy", "power"), seed=self.seed, space="paper",
            jobs=1, store=ResultStore(self.pass_store), batch_size=self.shape.batch_size,
        )

    def items(self, output) -> int:
        return len(output.trials)

    def grid_points(self) -> dict:
        """(depth, tau) -> (accuracy, power) of the pre-filled suite sweep."""
        if self._grid_points is None:
            reset_process_state(self.default_store)
            store = fresh_dir(self.workdir / "reference-store", self.setup_dir / "store")
            (result,) = run_benchmark_suite(
                datasets=(self.shape.search_dataset,), seed=self.seed,
                include_approximate_baseline=False, store=ResultStore(store),
                cache_only=True,
            )
            self._grid_points = {
                (point.depth, point.tau): (point.accuracy, point.total_power_uw)
                for point in result.exploration
            }
        return self._grid_points

    def check(self, output) -> list[str]:
        problems = []
        if output.n_trained != 0:
            problems.append(f"{output.n_trained} trials trained, expected 0")
        if len(output.trials) != self.shape.budget:
            problems.append(f"{len(output.trials)} trials, expected {self.shape.budget}")
        grid = self.grid_points()
        wrong = [
            trial for trial in output.trials
            if grid.get((trial.config["depth"], trial.config["tau"]))
            != (trial.accuracy, trial.power_uw)
        ]
        if wrong or self.inject:
            problems.append(f"{len(wrong)} trials differ from the suite grid point")
        record = output.to_json()
        self._first_record = self._first_record or record
        if record != self._first_record:
            problems.append("study record differs from the first pass of this run")
        return problems

    def expected_counts(self) -> dict[str, int]:
        budget = self.shape.budget
        return {
            "training.fits": 0,
            "search.asks": math.ceil(budget / self.shape.batch_size),
            "search.tells": budget,
            "store.puts": budget,
        }

    def layer_extras(self, output) -> dict[str, float]:
        return {"search.warm_start_ratio": output.n_from_cache / len(output.trials)}


class WarmReplay(WarmWorkload):
    """The `assemble` read path: every table and the surface, from the store only."""

    name = "warm_replay"
    item = "store entry"
    # One set-up computes two full sweeps and a surface; repeating it would
    # cost more than the rest of the run.
    setup_repeats = 1

    def run_pass(self, checkpoint):
        store = ResultStore(self.pass_store)
        names = self.shape.dataset_names()
        suites = [
            run_benchmark_suite(
                datasets=names, seed=self.seed, include_approximate_baseline=variant,
                depths=self.shape.depths, taus=self.shape.taus, store=store,
                cache_only=True,
            )
            for variant in (False, True)
        ]
        surface = run_robustness_surface(
            self.shape.surface_dataset, self.shape.sigmas, n_trials=self.shape.trials,
            seed=self.seed, depths=self.shape.surface_depths,
            taus=self.shape.surface_taus, store=store, cache_only=True,
        )
        return render_paper(*suites), render_surface(surface), store.stats

    def items(self, output) -> int:
        return output[2].hits

    def check(self, output) -> list[str]:
        paper_text, surface_text, stats = output
        if self.inject:
            paper_text += "\n(injected mismatch)"
        problems = []
        if stats.misses or not stats.hits:
            problems.append(
                f"store hit ratio {stats.hits}/{stats.hits + stats.misses}, expected 1"
            )
        rendered = {"cold_paper.txt": paper_text, "cold_surface.txt": surface_text}
        for cold_file, text in rendered.items():
            if text != (self.setup_dir / cold_file).read_text(encoding="utf-8"):
                problems.append(f"replayed rendering differs from {cold_file} of the set-up")
        if self.committed:
            if sha256(paper_text) != self.committed["paper_render_sha256"]:
                problems.append("rendered tables differ from expected.json")
            if sha256(surface_text) != self.committed["surface_render_sha256"]:
                problems.append("rendered surface differs from expected.json")
        return problems

    def expected_counts(self) -> dict[str, int]:
        n = len(self.shape.dataset_names())
        return {
            # Both suite variants per dataset, the surface's suite entry, its cells.
            "store.hits": 2 * n + 1 + len(self.shape.sigmas) * self.shape.surface_grid,
            "store.misses": 0,
            "training.fits": 0,
            "montecarlo.calls": 0,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ColdPaper, ColdSurface, WarmSearch, WarmReplay)
}
