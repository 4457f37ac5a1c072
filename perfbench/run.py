"""End-to-end benchmark of the ``repro`` co-design flow.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_paper --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One invocation runs one workload (see ``perfbench/README.md``) in a closed
loop with one client: set-up, then timed passes back to back until
``--seconds`` have passed, each pass checked for correct outputs.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` one more pass runs under the span
tracer and the JSON carries the per-layer metrics instead.  The exit code
is 0 only when every pass produced correct outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SOURCES = CHECKOUT / "src"

WORKLOAD_NAMES = ("cold_paper", "cold_surface", "warm_search", "warm_replay")

#: Seconds the reference kernel takes on the reference host.  Calibrated
#: times are scaled to a host of that speed (see ``SpeedProbe``).
REFERENCE_KERNEL_S = 0.1

#: End-to-end metrics (name -> unit), reported from untraced passes.
END_TO_END = {
    "wall_s": "s",
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--shape", choices=("paper", "tiny"), default="paper",
        help="work per pass; 'tiny' is the smoke-test shape",
    )
    parser.add_argument(
        "--inject-mismatch", action="store_true",
        help="negative control: corrupt the checked outputs, so the run must fail",
    )
    parser.add_argument("--setup-into", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@functools.lru_cache(maxsize=1)
def _kernel_data():
    import numpy

    rng = numpy.random.default_rng(0)
    features = rng.normal(size=(2000, 20))
    labels = (features[:, 0] + features[:, 1] > 0).astype(numpy.int64)
    return features, labels


def reference_kernel() -> float:
    """Seconds that one run of a fixed split-search kernel takes now.

    The kernel does what a decision-tree trainer does most: per feature, it
    sorts the samples, scores every threshold by Gini impurity from
    cumulative class counts, and walks the candidates in Python.  On the
    host used to build this benchmark, its time tracked the workloads' pass
    times far better than a plain dictionary loop or a plain sort did.  It
    runs no ``repro`` code, so no change to the program can move it; only
    the speed of the host can.
    """
    import numpy

    features, labels = _kernel_data()
    n = len(labels)
    start = time.perf_counter()
    for column in list(range(features.shape[1])) * 20:
        order = numpy.argsort(features[:, column], kind="stable")
        ones_left = numpy.cumsum(labels[order])
        count_left = numpy.arange(1, n + 1)
        count_right = numpy.maximum(n - count_left, 1)
        p_left = ones_left / count_left
        p_right = (ones_left[-1] - ones_left) / count_right
        gini = count_left * p_left * (1 - p_left) + count_right * p_right * (1 - p_right)
        int(numpy.argmin(gini))
        for row in range(0, n, 40):
            _ = float(features[order[row], column]) < 0.0
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the host's speed through a run, for calibrated times.

    On a shared host the speed of the machine itself drifts by up to 1.8x
    within minutes, far more than the bound a regression gate can use.  The
    drift is common to all code, so times are scaled by how fast the
    reference kernel ran around them: a calibrated time is what the host of
    :data:`REFERENCE_KERNEL_S` would have taken.  Samples are kept per phase
    of the run (set-up, timed passes), and each phase's times are scaled by
    the samples taken at its own boundaries.
    """

    def __init__(self, every_s: float = 2.0, kernels: int = 3):
        self.every_s = every_s
        self.kernels = kernels
        self.samples: dict[str, list[float]] = {}
        self._last = -math.inf

    def sample(self, phase: str, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= self.every_s:
            kernels = [reference_kernel() for _ in range(self.kernels)]
            self.samples.setdefault(phase, []).extend(kernels)
            self._last = time.perf_counter()

    def factor(self, phase: str) -> float:
        """Calibrated time / measured time, for ``phase``."""
        return REFERENCE_KERNEL_S / statistics.mean(self.samples[phase])


def middle_mean(values: list[float]) -> float:
    """Mean of the middle 60 % of ``values``: a fifth is cut from each end.

    Passes of a cold workload run on different inputs, so a mean over them
    averages the inputs' cost; cutting the ends drops passes that a burst of
    load on the host slowed down or sped up.
    """
    ordered = sorted(values)
    cut = len(ordered) // 5
    return statistics.mean(ordered[cut:len(ordered) - cut])


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, run timed passes, optionally one traced pass; the result record."""
    probe = SpeedProbe()
    probe.sample("setup", force=True)
    setup_times = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        probe.sample("setup", force=True)

    walls: list[float] = []
    rates: list[float] = []
    attempted = failed = 0
    problems: list[str] = []

    sampling_s = 0.0

    def checkpoint() -> None:
        """Sample the host's speed inside a long pass, off the pass's clock."""
        nonlocal sampling_s
        start = time.perf_counter()
        probe.sample("passes")
        sampling_s += time.perf_counter() - start

    def run_one(index: int, tracer=None):
        nonlocal attempted, failed, sampling_s
        workload.prepare_pass(index)
        attempted += 1
        try:
            if tracer is None:
                sampling_s = 0.0
                start = time.perf_counter()
                output = workload.run_pass(checkpoint)
                wall = time.perf_counter() - start - sampling_s
            else:
                with tracer:
                    start = time.perf_counter()
                    output = workload.run_pass(lambda: None)
                    wall = time.perf_counter() - start
            found = workload.check(output)
        except Exception as exc:  # a pass that raises is a failed operation
            failed += 1
            problems.append(f"pass {attempted}: {type(exc).__name__}: {exc}")
            return None, None
        if found:
            failed += 1
            problems.extend(f"pass {attempted}: {problem}" for problem in found)
        return output, wall

    probe.sample("passes", force=True)
    phase_start = time.perf_counter()
    while not walls or time.perf_counter() - phase_start < seconds:
        probe.sample("passes")
        output, wall = run_one(len(walls))
        if wall is None:
            if attempted >= 3 and not walls:
                break
            continue
        walls.append(wall)
        rates.append(workload.items(output) / wall)

    probe.sample("passes", force=True)
    factors = {phase: probe.factor(phase) for phase in probe.samples}
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    raw = {}
    if walls and not trace:
        raw = {
            "wall_s": middle_mean(walls),
            "items_per_s": middle_mean(rates),
            "setup_s": statistics.median(setup_times),
        }
        values = {
            "wall_s": raw["wall_s"] * factors["passes"],
            "items_per_s": raw["items_per_s"] / factors["passes"],
            "setup_s": raw["setup_s"] * factors["setup"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    elif walls:
        from tracing import LAYER_METRICS, Tracer

        tracer = Tracer()
        failed_before = failed
        # Pass 0's inputs again, so the counts depend on the seed alone.
        output, traced_wall = run_one(0, tracer)
        if traced_wall is not None:
            values = tracer.layer_metrics(traced_wall)
            values.update(workload.layer_extras(output))
            values["trace.overhead_ratio"] = traced_wall / walls[0] - 1.0
            units = LAYER_METRICS
            mismatched = {
                name: (values[name], expected)
                for name, expected in workload.expected_counts().items()
                if values[name] != expected
            }
            if mismatched:
                failed = failed_before + 1
                problems.append(f"traced (count, expected) off the workload shape: {mismatched}")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "raw": raw,
        "speed_factors": factors,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print one table."""
    print(f"{'workload':<13} {'metric':<13} {'value':>12}  unit")
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "0", "--shape", args.shape,
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            sys.stderr.write(done.stderr)
        if not lines:
            continue
        result = json.loads(lines[-1])
        rows = {key: (value["value"], value["unit"]) for key, value in result["metrics"].items()}
        rows["failed_ratio"] = (result["failed"] / result["attempted"], "1")
        for metric, (value, unit) in rows.items():
            print(f"{name:<13} {metric:<13} {value:>12.4f}  {unit}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SOURCES}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # A terminated run still removes its work directory, and kills and waits
    # for a set-up child (``subprocess.run`` does so when interrupted).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = CHECKOUT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    # Any store opened without an explicit directory lands in the work
    # directory, never in the user's cache.
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-store")
    sys.path.insert(0, str(SOURCES))
    try:
        import workloads

        shape = workloads.SHAPES[args.shape]
        if args.setup_into:
            workloads.setup(args.workload, shape, args.seed, Path(args.setup_into))
            return 0
        workload = workloads.WORKLOADS[args.workload](
            shape, args.seed, workdir, inject=args.inject_mismatch
        )
        record = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    for problem in record["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, metric in record["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    for name, value in record["raw"].items():
        print(f"{args.workload} uncalibrated {name} = {value:.6g}", file=sys.stderr)
    for phase, factor in record["speed_factors"].items():
        print(f"{args.workload} speed factor {phase} = {factor:.4g}", file=sys.stderr)
    failed_ratio = record["failed"] / max(record["attempted"], 1)
    print(f"{args.workload} failed_ratio = {failed_ratio:g} 1", file=sys.stderr)
    correct = record["failed"] == 0 and bool(record["metrics"])
    print(json.dumps({
        "correct": correct,
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
