"""Spans around the calls into each layer, installed only for a traced pass.

A layer is a module of the package. ``HOOKS`` names each entry point the
engine, CLI and estimator call, by the binding the caller looks up at
call time (``qemclust.engine:_cluster_packed`` is the engine's import of
the clustering kernel). The tracer swaps each binding for a wrapper that
records a span (name, layer, start, end, parent, op id) and restores the
originals when the pass ends. A hook whose target no longer exists is
reported and the metrics that need it are left out; it never stops the
run.

Self time is a span's duration minus the durations of its direct
children. Calls are single-threaded and nested, so the self times of an
op's spans add up to its root span.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "io",
    "engine",
    "packed",
    "clustering",
    "redistribution",
    "distributions",
    "noise",
    "estimator",
)


def _rounds(args, result):
    return {"rounds": int(result[5])}


def _removed(args, result):
    return {"removed": len(result[1]), "rows": len(args[0])}


def _hamming_bytes(args, result):
    packed, centroid_bits = args[0], args[1]
    return {"bytes": int(packed.bits.shape[0]) * int(centroid_bits.shape[0]) * int(packed.width)}


def _shot_bits(args, result):
    dist = args[0]
    return {"bits": int(round(dist.total)) * int(dist.width)}


def _nodes(args, result):
    return {"nodes": sum(len(t.feature) for t in result.trees)}


def _rows(args, result):
    return {"rows": len(args[1])}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


# (target "module:attr[.attr]", span name, layer, counter(args, result) -> dict)
HOOKS = [
    ("qemclust.cli:mitigate", "engine.mitigate", "engine", None),
    ("qemclust.cli:make_synthetic_corpus", "estimator.corpus", "estimator", None),
    ("qemclust.cli:cross_validate", "estimator.cv", "estimator", None),
    ("qemclust.cli:fit_tree_ensemble", "estimator.fit", "estimator", _nodes),
    ("qemclust.cli:normalized_entropy", "distributions.entropy", "distributions", None),
    ("qemclust.cli:hellinger_fidelity", "distributions.hellinger", "distributions", None),
    ("qemclust.io:read_counts", "io.read_counts", "io", None),
    ("qemclust.io:write_distribution", "io.write_distribution", "io", None),
    ("qemclust.io:load_model", "io.load_model", "io", None),
    ("qemclust.io:save_model", "io.save_model", "io", _file_bytes),
    ("qemclust.io:read_features_file", "io.read_features_file", "io", None),
    ("qemclust.io:build_features", "io.build_features", "io", None),
    ("qemclust.engine:mitigate", "engine.mitigate", "engine", None),
    ("qemclust.engine:generate_ideal", "noise.generate_ideal", "noise", None),
    ("qemclust.engine:sample_shots", "noise.sample_shots", "noise", None),
    ("qemclust.engine:apply_bitflip", "noise.apply_bitflip", "noise", _shot_bits),
    ("qemclust.engine:PackedDistribution", "packed.pack", "packed", None),
    ("qemclust.engine:outlier_threshold", "clustering.threshold", "clustering", None),
    ("qemclust.engine:_cluster_packed", "clustering.cluster", "clustering", _rounds),
    ("qemclust.engine:_redistribute_packed", "redistribution.redistribute", "redistribution", _removed),
    ("qemclust.engine:hellinger_fidelity", "distributions.hellinger", "distributions", None),
    ("qemclust.engine:improvement_ratio", "distributions.improvement", "distributions", None),
    ("qemclust._packed:PackedDistribution.hamming_to", "packed.hamming", "packed", _hamming_bytes),
    ("qemclust.estimator:fit_tree_ensemble", "estimator.fit", "estimator", _nodes),
    ("qemclust.estimator:TreeEnsemble.predict_matrix", "estimator.predict", "estimator", _rows),
]


def _resolve(target: str):
    """Return (owner object, attribute name) or None when the target is gone."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if attr not in vars(owner) or not callable(vars(owner)[attr]):
        return None
    return owner, attr


class Tracer:
    """In-memory span recorder; ``spans`` rows are
    [name, layer, start, end, parent index, op id, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.missing: set[str] = set()
        self.op = None

    def _enter(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _exit(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    def call(self, name, layer, fn, *args, **kwargs):
        """Run ``fn`` inside a span; used for each op's root span."""
        span = self._enter(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(span)

    def _wrap(self, fn, target, name, layer, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if counter is not None:
                try:
                    span[6] = counter(args, result)
                except Exception:  # the target changed shape: drop its counts, keep running
                    tracer.missing.add(target)
            return result

        return traced

    def install(self) -> None:
        for target, name, layer, counter in HOOKS:
            found = _resolve(target)
            if found is None:
                self.missing.add(target)
                continue
            owner, attr = found
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, target, name, layer, counter))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, op, counters in self.spans:
                row = {"name": name, "layer": layer, "start": start, "end": end, "parent": parent, "op": op}
                if counters:
                    row["counters"] = counters
                fh.write(json.dumps(row) + "\n")


def self_times(spans) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


# metric -> (unit, hook targets it needs)
METRICS = {
    "noise.simulate_ms": ("ms", ("qemclust.engine:apply_bitflip",)),
    "noise.shot_bits": ("count", ("qemclust.engine:apply_bitflip",)),
    "packed.pack_ms": ("ms", ("qemclust.engine:PackedDistribution",)),
    "packed.hamming_ms": ("ms", ("qemclust._packed:PackedDistribution.hamming_to",)),
    "packed.hamming_bytes": ("count", ("qemclust._packed:PackedDistribution.hamming_to",)),
    "clustering.cluster_ms": ("ms", ("qemclust.engine:_cluster_packed",)),
    "clustering.passes": ("count", ("qemclust.engine:_cluster_packed",)),
    "clustering.vote_rounds": ("count", ("qemclust.engine:_cluster_packed",)),
    "redistribution.redistribute_ms": ("ms", ("qemclust.engine:_redistribute_packed",)),
    "redistribution.removed_frac": ("frac", ("qemclust.engine:_redistribute_packed",)),
    "distributions.hellinger_ms": ("ms", ("qemclust.engine:hellinger_fidelity",)),
    "distributions.hellinger_calls": ("count", ("qemclust.engine:hellinger_fidelity",)),
    "engine.mitigate_ms": ("ms", ("qemclust.cli:mitigate", "qemclust.engine:mitigate")),
    "io.read_counts_ms": ("ms", ("qemclust.io:read_counts",)),
    "io.write_distribution_ms": ("ms", ("qemclust.io:write_distribution",)),
    "io.load_model_ms": ("ms", ("qemclust.io:load_model",)),
    "io.save_model_ms": ("ms", ("qemclust.io:save_model",)),
    "io.model_bytes": ("count", ("qemclust.io:save_model",)),
    "estimator.corpus_s": ("s", ("qemclust.cli:make_synthetic_corpus",)),
    "estimator.cv_s": ("s", ("qemclust.cli:cross_validate",)),
    "estimator.fit_s": ("s", ("qemclust.cli:fit_tree_ensemble",)),
    "estimator.fits": ("count", ("qemclust.cli:fit_tree_ensemble", "qemclust.estimator:fit_tree_ensemble")),
    "estimator.nodes": ("count", ("qemclust.cli:fit_tree_ensemble",)),
    "estimator.predict_ms": ("ms", ("qemclust.estimator:TreeEnsemble.predict_matrix",)),
    "estimator.predict_rows": ("count", ("qemclust.estimator:TreeEnsemble.predict_matrix",)),
}
for _layer in LAYERS:
    METRICS[f"{_layer}.self_ms"] = ("ms", ())


def layer_metrics(spans, n_ops: int, missing: set[str]) -> tuple[dict, list[str]]:
    """Per-op layer metrics from the spans; returns (metrics, notes on missing ones)."""
    own = self_times(spans)
    dur = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    final_fit = 0.0
    final_nodes = 0
    for idx, (name, layer, start, end, parent, _op, counters) in enumerate(spans):
        dur[name] += end - start
        calls[name] += 1
        layer_self[layer] = layer_self.get(layer, 0.0) + own[idx]
        for key, value in (counters or {}).items():
            counts[f"{name}.{key}"] += value
        if name == "estimator.fit" and (parent is None or spans[parent][0] != "estimator.cv"):
            final_fit += end - start
            final_nodes += (counters or {}).get("nodes", 0)

    per_op = max(n_ops, 1)
    rows = counts["redistribution.redistribute.rows"]
    values = {
        "noise.simulate_ms": 1e3 * sum(dur[n] for n in ("noise.generate_ideal", "noise.sample_shots", "noise.apply_bitflip")),
        "noise.shot_bits": counts["noise.apply_bitflip.bits"],
        "packed.pack_ms": 1e3 * dur["packed.pack"],
        "packed.hamming_ms": 1e3 * dur["packed.hamming"],
        "packed.hamming_bytes": counts["packed.hamming.bytes"],
        "clustering.cluster_ms": 1e3 * dur["clustering.cluster"],
        "clustering.passes": calls["clustering.cluster"],
        "clustering.vote_rounds": counts["clustering.cluster.rounds"],
        "redistribution.redistribute_ms": 1e3 * dur["redistribution.redistribute"],
        "distributions.hellinger_ms": 1e3 * dur["distributions.hellinger"],
        "distributions.hellinger_calls": calls["distributions.hellinger"],
        "engine.mitigate_ms": 1e3 * dur["engine.mitigate"],
        "io.read_counts_ms": 1e3 * dur["io.read_counts"],
        "io.write_distribution_ms": 1e3 * dur["io.write_distribution"],
        "io.load_model_ms": 1e3 * dur["io.load_model"],
        "io.save_model_ms": 1e3 * dur["io.save_model"],
        "io.model_bytes": counts["io.save_model.bytes"],
        "estimator.corpus_s": dur["estimator.corpus"],
        "estimator.cv_s": dur["estimator.cv"],
        "estimator.fit_s": final_fit,
        "estimator.fits": calls["estimator.fit"],
        "estimator.nodes": final_nodes,
        "estimator.predict_ms": 1e3 * dur["estimator.predict"],
        "estimator.predict_rows": counts["estimator.predict.rows"],
    }
    values = {k: v / per_op for k, v in values.items()}
    values["redistribution.removed_frac"] = (
        counts["redistribution.redistribute.removed"] / rows if rows else 0.0
    )
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = 1e3 * layer_self[layer] / per_op

    out, notes = {}, []
    for name, (unit, needs) in METRICS.items():
        lost = [t for t in needs if t in missing]
        if lost:
            notes.append(f"missing metric {name}: hook target {', '.join(lost)} no longer exists")
            continue
        out[name] = (values[name], unit)
    return out, notes
