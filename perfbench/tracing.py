"""In-memory span tracing around the public entry points of each ``repro`` layer.

The tracer lives entirely in the benchmark: it replaces each entry point
named in :data:`LAYERS` with a wrapper that records one span (layer, entry,
start, end, parent) per call, and restores the originals on exit.  Nothing
is installed in ``src/``.

Several modules bind functions by name (``from repro.core.variation import
simulate_offset_variation``), so patching the defining module alone would
miss those calls.  :meth:`Tracer.install` therefore replaces every
reference to the original object held by any loaded ``repro`` module, and
the workloads check the traced counts against the counts their shape
implies.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import Counter

#: layer -> entry points, as ``module:attribute`` or ``module:Class.method``.
LAYERS: dict[str, tuple[str, ...]] = {
    "prep": (
        "repro.datasets.registry:load_dataset",
        "repro.mltrees.evaluation:train_test_split",
        "repro.mltrees.quantize:quantize_dataset",
    ),
    "training": ("repro.core.adc_aware_training:ADCAwareTrainer.fit",),
    "cart": ("repro.mltrees.cart:CARTTrainer.fit",),
    "logic": (
        "repro.core.unary_tree:UnaryDecisionTree.__init__",
        "repro.circuits.two_level:SumOfProducts.minimized",
    ),
    "ppa": ("repro.core.unary_tree:UnaryDecisionTree.digital_report",),
    "adc": ("repro.core.bespoke_adc:build_bespoke_frontend",),
    "hardware": ("repro.core.exploration:proposed_hardware_report",),
    "accuracy": ("repro.mltrees.evaluation:evaluate_tree_accuracy",),
    "baselines": (
        "repro.baselines.balaskas:fit_balaskas_design",
        "repro.baselines.balaskas:BalaskasApproximateDesign.hardware_report",
        "repro.baselines.mubarik:BaselineBespokeDesign.hardware_report",
    ),
    "montecarlo": ("repro.core.variation:simulate_offset_variation",),
    "store": (
        "repro.core.store:ResultStore.get",
        "repro.core.store:ResultStore.put",
        "repro.core.store:ResultStore.__contains__",
        "repro.core.store:ResultStore.flush_stats",
    ),
    "search": (
        "repro.search.optimizer:ParetoTPESampler.ask",
        "repro.search.optimizer:ParetoTPESampler.tell",
        "repro.core.pareto:non_dominated_indices",
    ),
    "render": (
        "repro.analysis.tables:table1_rows",
        "repro.analysis.tables:table1_summary",
        "repro.analysis.tables:table2_rows",
        "repro.analysis.tables:table2_summary",
        "repro.analysis.tables:robustness_surface_rows",
        "repro.analysis.tables:robustness_surface_summary",
        "repro.analysis.figures:fig4_series",
        "repro.analysis.figures:fig5_series",
        "repro.analysis.render:render_table",
    ),
}

#: Per-layer metrics (name -> unit), in report order.  Every traced run
#: emits all of them, zero where a layer did no work.
LAYER_METRICS: dict[str, str] = {
    "prep.calls": "count",
    "prep.busy_s": "s",
    "training.fits": "count",
    "training.distinct_configs": "count",
    "training.redundancy": "1",
    "training.busy_s": "s",
    "cart.fits": "count",
    "cart.busy_s": "s",
    "logic.calls": "count",
    "logic.minimize_calls": "count",
    "logic.busy_s": "s",
    "ppa.calls": "count",
    "ppa.busy_s": "s",
    "adc.calls": "count",
    "adc.busy_s": "s",
    "hardware.calls": "count",
    "hardware.self_s": "s",
    "accuracy.calls": "count",
    "accuracy.busy_s": "s",
    "baselines.calls": "count",
    "baselines.busy_s": "s",
    "montecarlo.calls": "count",
    "montecarlo.trials": "count",
    "montecarlo.busy_s": "s",
    "store.gets": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_ratio": "1",
    "store.puts": "count",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.flush_s": "s",
    "store.bytes_read": "B",
    "store.bytes_written": "B",
    "search.asks": "count",
    "search.ask_s": "s",
    "search.tells": "count",
    "search.tell_s": "s",
    "search.trials": "count",
    "search.warm_start_ratio": "1",
    "render.busy_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "hardware"},
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "1",
}


def _resolve(spec: str):
    """(owner, attribute name, original) for one ``module:attr`` spec."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    """Records spans from wrapped entry points; use as a context manager."""

    def __init__(self):
        #: One entry per span, in start order:
        #: [layer, entry, start_ns, end_ns, parent_index, outermost_of_layer].
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.training_keys: set = set()
        #: Indices of the spans still open, innermost last.
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for layer, specs in LAYERS.items():
            for spec in specs:
                owner, attr, original = _resolve(spec)
                entry = spec.partition(":")[2]
                wrapper = self._wrap(layer, entry, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _wrap(self, layer: str, entry: str, fn):
        before, after = self._hooks(entry, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span = tracer._push(layer, entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(span)
            if after is not None:
                after(args, result, state)
            return result

        return wrapper

    def _push(self, layer: str, entry: str) -> list:
        outermost = all(self.spans[index][0] != layer for index in self._stack)
        parent = self._stack[-1] if self._stack else -1
        span = [layer, entry, 0, 0, parent, outermost]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter_ns()
        return span

    def _pop(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stack.pop()

    def _hooks(self, entry: str, fn):
        """(before, after) callbacks for counters the spans alone cannot give.

        They run outside the span they annotate, so their cost lands in the
        caller's self time (and in ``trace.overhead_ratio``), never in the
        annotated layer.
        """
        if entry == "ADCAwareTrainer.fit":
            signature = inspect.signature(fn)

            def count_config(args, kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                knobs = tuple(sorted(
                    (name, value) for name, value in vars(bound["self"]).items()
                    if isinstance(value, (int, float, str, bool, type(None)))
                ))
                data = hashlib.sha1(bound["X_levels"].tobytes())
                data.update(bound["y"].tobytes())
                self.training_keys.add((knobs, data.hexdigest()))

            return count_config, None
        if entry == "simulate_offset_variation":
            signature = inspect.signature(fn)

            def count_trials(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters["montecarlo.trials"] += int(bound.arguments["n_trials"])

            return count_trials, None
        if entry == "ResultStore.get":
            def hits_before(args, kwargs):
                return args[0].stats.hits

            def count_hit(args, result, hits_before):
                store, key = args[0], args[1]
                if store.stats.hits > hits_before:
                    self.counters["store.hits"] += 1
                    self.counters["store.bytes_read"] += os.path.getsize(
                        store.path_for(key)
                    )

            return hits_before, count_hit
        if entry == "ResultStore.put":
            def count_written(args, path, state):
                self.counters["store.bytes_written"] += os.path.getsize(path)

            return None, count_written
        return None, None

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded, for a traced ``wall_s``."""
        calls: Counter = Counter()
        entry_s: Counter = Counter()
        busy_ns: Counter = Counter()
        self_ns: Counter = Counter()
        child_ns = [0] * len(self.spans)
        root_ns = 0
        for layer, entry, start, end, parent, outermost in self.spans:
            duration = end - start
            calls[layer] += 1
            calls[entry] += 1
            entry_s[entry] += duration
            if outermost:
                busy_ns[layer] += duration
            if parent >= 0:
                child_ns[parent] += duration
            else:
                root_ns += duration
        for index, (layer, _, start, end, *_rest) in enumerate(self.spans):
            self_ns[layer] += end - start - child_ns[index]

        def seconds(ns: int) -> float:
            return ns / 1e9

        fits = calls["ADCAwareTrainer.fit"]
        distinct = len(self.training_keys)
        gets = calls["ResultStore.get"]
        hits = self.counters["store.hits"]
        tells = calls["ParetoTPESampler.tell"]
        metrics = {
            "prep.calls": calls["prep"],
            "prep.busy_s": seconds(busy_ns["prep"]),
            "training.fits": fits,
            "training.distinct_configs": distinct,
            "training.redundancy": fits / distinct if distinct else 0.0,
            "training.busy_s": seconds(busy_ns["training"]),
            "cart.fits": calls["cart"],
            "cart.busy_s": seconds(busy_ns["cart"]),
            "logic.calls": calls["UnaryDecisionTree.__init__"],
            "logic.minimize_calls": calls["SumOfProducts.minimized"],
            "logic.busy_s": seconds(busy_ns["logic"]),
            "ppa.calls": calls["ppa"],
            "ppa.busy_s": seconds(busy_ns["ppa"]),
            "adc.calls": calls["adc"],
            "adc.busy_s": seconds(busy_ns["adc"]),
            "hardware.calls": calls["hardware"],
            "hardware.self_s": seconds(self_ns["hardware"]),
            "accuracy.calls": calls["accuracy"],
            "accuracy.busy_s": seconds(busy_ns["accuracy"]),
            "baselines.calls": calls["baselines"],
            "baselines.busy_s": seconds(busy_ns["baselines"]),
            "montecarlo.calls": calls["montecarlo"],
            "montecarlo.trials": self.counters["montecarlo.trials"],
            "montecarlo.busy_s": seconds(busy_ns["montecarlo"]),
            "store.gets": gets,
            "store.hits": hits,
            "store.misses": gets - hits,
            "store.hit_ratio": hits / gets if gets else 0.0,
            "store.puts": calls["ResultStore.put"],
            "store.get_s": seconds(entry_s["ResultStore.get"]),
            "store.put_s": seconds(entry_s["ResultStore.put"]),
            "store.flush_s": seconds(entry_s["ResultStore.flush_stats"]),
            "store.bytes_read": self.counters["store.bytes_read"],
            "store.bytes_written": self.counters["store.bytes_written"],
            "search.asks": calls["ParetoTPESampler.ask"],
            "search.ask_s": seconds(entry_s["ParetoTPESampler.ask"]),
            "search.tells": tells,
            "search.tell_s": seconds(entry_s["ParetoTPESampler.tell"]),
            "search.trials": tells,
            "search.warm_start_ratio": 0.0,
            "render.busy_s": seconds(busy_ns["render"]),
        }
        for layer in LAYERS:
            if layer != "hardware":
                metrics[f"{layer}.self_s"] = seconds(self_ns[layer])
        metrics["unattributed_s"] = wall_s - seconds(root_ns)
        metrics["trace.wall_s"] = wall_s
        return metrics
