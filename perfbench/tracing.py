"""Per-module tracing of one CLI command, from outside the program.

Run as a script, it stands in for ``python3 -m contagion_lab.cli``:

    python3 perfbench/tracing.py TRACE.json <cli arguments...>

It times ``import contagion_lab.cli``, wraps the public functions of the
modules in ``LAYERS`` (and every binding of them that another module
imported by name), counts the numpy/scipy eigensolver calls, runs
``contagion_lab.cli.main`` in-process, keeps its spans in memory and
writes them to TRACE.json when the command ends.

A span is opened only where a call crosses into another module, so a
module's self time is the time spent in it minus the time of the calls it
made into other modules. ``layer_metrics`` turns the spans of one round of
commands into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("cli", "ingest", "reconstruct", "graph", "stats", "pipeline", "contagion")
EMIT = ("dump_json", "atomic_write_text")  # pipeline helpers that write the outputs

#: Unit of each per-layer metric, in report order.
UNITS = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.emit_s": "s", "ingest.load_s": "s",
    "reconstruct.s": "s", "reconstruct.calls": "count",
    "reconstruct.calls_per_network": "ratio", "graph.build_s": "s",
    "graph.spectrum_s": "s", "graph.spectrum_calls": "count",
    "graph.spectrum_dense_calls": "count", "graph.spectrum_lanczos_calls": "count",
    "graph.topology_s": "s", "graph.topology_calls": "count",
    "linalg.dense_eig_calls": "count", "linalg.eigsh_calls": "count",
    "linalg.decompositions_per_network": "ratio", "stats.bootstrap_s": "s",
    "stats.replicate_ms": "ms", "stats.replicates_effective_ratio": "ratio",
    "stats.placebo_s": "s", "stats.placebo_draw_ms": "ms", "stats.did_s": "s",
    "stats.fit_s": "s", "stats.permutation_s": "s", "pipeline.self_s": "s",
    "contagion.s": "s", "work.networks": "count", "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        # span: [layer, function, start, end, parent index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[f"{layer}.{name}"] += 1
            if self.stack and self.spans[self.stack[-1]][0] == layer:
                result = fn(*args, **kwargs)
            else:
                record = [layer, name, time.perf_counter(), None,
                          self.stack[-1] if self.stack else -1]
                self.stack.append(len(self.spans))
                self.spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[3] = time.perf_counter()
                    self.stack.pop()
            if name == "laplacian_spectrum":
                self.counts[f"graph.spectrum.{result.method}"] += 1
            return result
        return traced

    def counter(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        import importlib

        import numpy as np
        import scipy.sparse.linalg as sla

        modules = {name: importlib.import_module(f"contagion_lab.{name}") for name in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and not attr.startswith("_") \
                        and obj.__module__ == mod.__name__:
                    wrapped[obj] = self.span(layer, attr, obj)
        for mod in (*modules.values(), importlib.import_module("contagion_lab")):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for attr in ("eigh", "eigvalsh"):
            setattr(np.linalg, attr, self.counter("linalg.dense_eig",
                                                  getattr(np.linalg, attr)))
        eigsh = self.counter("linalg.eigsh", sla.eigsh)
        sla.eigsh = eigsh
        modules["graph"].eigsh = eigsh


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import contagion_lab.cli
    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.spans.append(["cli", "import", t0, t1, -1])
    tracer.install()
    try:
        code = contagion_lab.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


# --- aggregation ------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(traces: list[dict], networks: int, replicates: int,
                  placebo_draws: int, effective_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one round, from the traces of its commands.

    ``networks`` is the number of bank networks the round evaluates,
    ``replicates`` its bootstrap networks (B + 1 per bootstrap command) and
    ``placebo_draws`` its placebo networks (draws + 1).
    """
    by_fn: Counter = Counter()
    by_layer: Counter = Counter()
    inclusive: Counter = Counter()
    counts: Counter = Counter()
    for trace in traces:
        spans = trace["spans"]
        for (layer, name, start, end, _), own in zip(spans, self_times(spans)):
            by_fn[f"{layer}.{name}"] += own
            by_layer[layer] += own
            inclusive[f"{layer}.{name}"] += end - start
        counts.update(trace["counts"])
    emit = sum(by_fn[f"pipeline.{name}"] for name in EMIT)
    decompositions = counts["linalg.dense_eig"] + counts["linalg.eigsh"]
    return {
        "cli.import_s": by_fn["cli.import"],
        "cli.self_s": by_layer["cli"] - by_fn["cli.import"],
        "cli.emit_s": emit,
        "ingest.load_s": by_fn["ingest.load_panel"],
        "reconstruct.s": by_layer["reconstruct"],
        "reconstruct.calls": counts["reconstruct.reconstruct_exposures"],
        "reconstruct.calls_per_network":
            counts["reconstruct.reconstruct_exposures"] / networks,
        "graph.build_s": by_fn["graph.build_network"],
        "graph.spectrum_s": by_fn["graph.laplacian_spectrum"],
        "graph.spectrum_calls": counts["graph.laplacian_spectrum"],
        "graph.spectrum_dense_calls": counts["graph.spectrum.dense"],
        "graph.spectrum_lanczos_calls": counts["graph.spectrum.lanczos"],
        "graph.topology_s": by_fn["graph.topology_report"],
        "graph.topology_calls": counts["graph.topology_report"],
        "linalg.dense_eig_calls": counts["linalg.dense_eig"],
        "linalg.eigsh_calls": counts["linalg.eigsh"],
        "linalg.decompositions_per_network": decompositions / networks,
        "stats.bootstrap_s": by_fn["stats.bootstrap_lambda2"],
        "stats.replicate_ms":
            1e3 * inclusive["stats.bootstrap_lambda2"] / replicates if replicates else 0.0,
        "stats.replicates_effective_ratio": effective_ratio,
        "stats.placebo_s": by_fn["stats.placebo_null"],
        "stats.placebo_draw_ms":
            1e3 * inclusive["stats.placebo_null"] / placebo_draws if placebo_draws else 0.0,
        "stats.did_s": by_fn["stats.did_regress"],
        "stats.fit_s": by_fn["stats.fit_distributions"],
        "stats.permutation_s": by_fn["stats.permutation_test"],
        "pipeline.self_s": by_layer["pipeline"] - emit,
        "contagion.s": by_layer["contagion"],
        "work.networks": networks,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
