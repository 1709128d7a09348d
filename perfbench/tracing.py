"""Span tracing of a `logevo run`, done from outside the program.

``Tracer.install`` replaces the public functions of each logevo module with
wrappers that record one span per call: name, start, end and the index of the
enclosing span. Spans stay in memory; ``layer_metrics`` folds them into the
per-layer metrics once the run is over. The program's source is not touched.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, attribute, span name). "Class.method" patches the class.
TARGETS = [
    ("logevo.pipeline", "run", "pipeline.run"),
    ("logevo.records", "read_loghub_file", "records.parse"),
    ("logevo.records", "read_jsonl", "records.parse"),
    ("logevo.records", "plan_batches", "records.plan"),
    ("logevo.textnorm", "normalize", "textnorm.normalize"),
    ("logevo.embeddings", "load_word_vectors", "embeddings.load"),
    ("logevo.embeddings", "load_precomputed", "embeddings.load"),
    ("logevo.embeddings", "HashingProvider.__init__", "embeddings.load"),
    ("logevo.embeddings", "HashingProvider.vector", "embeddings.vector"),
    ("logevo.embeddings", "WordAveragingProvider.vector", "embeddings.vector"),
    ("logevo.embeddings", "PrecomputedProvider.vector", "embeddings.vector"),
    ("logevo.clustering", "ClusterState.process_batch", "clustering.batch"),
    ("logevo.clustering", "ClusterState.expire_stale", "clustering.expire"),
    ("logevo.clustering", "ClusterState.ingest_point", "clustering.assign"),
    ("logevo.clustering", "ClusterState.save", "clustering.save"),
    ("logevo.representatives", "representative_by_centroid", "representatives.centroid"),
    ("logevo.representatives", "representative_by_levenshtein", "representatives.levenshtein"),
    ("logevo.representatives", "levenshtein", "representatives.edit_distance"),
    ("logevo.metrics", "silhouette_batch", "metrics.silhouette"),
    ("logevo.metrics", "score_S", "metrics.score"),
    ("logevo.metrics", "score_R", "metrics.score"),
    ("logevo.metrics", "score_C", "metrics.score"),
    ("logevo.metrics", "score_LCE", "metrics.score"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts = {"records": 0, "fallback": 0, "new": 0, "merged": 0, "active_max": 0,
                       "silhouette_points": 0, "rep_calls": 0, "rep_touched": 0}
        self._touched: set[int] = set()

    # -- count hooks, run after a wrapped call returns ------------------------

    def _on_exit(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "records.plan":
            c["records"] += len(args[0])
        elif name == "embeddings.vector":
            if result[0] == 1.0 and not result[1:].any():
                c["fallback"] += 1
        elif name == "clustering.assign":
            c["new" if result.was_new else "merged"] += 1
            self._touched.add(result.cluster_id)
        elif name == "clustering.batch":
            c["active_max"] = max(c["active_max"], result.nr_clust)
        elif name in ("representatives.centroid", "representatives.levenshtein"):
            c["rep_calls"] += 1
            c["rep_touched"] += args[0].id in self._touched
        elif name == "metrics.silhouette":
            c["silhouette_points"] += len(args[0])

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        starts_batch = name == "clustering.batch"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_batch:
                self._touched = set()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._on_exit(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target, wherever a logevo module holds a reference to it."""
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("logevo") and getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)

    # -- folding spans into layer metrics -------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        batch_ms: list[float] = []
        for name, start, end, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if name == "clustering.batch":
                batch_ms.append((end - start) * 1e3)
        roots = [i for i, s in enumerate(self.spans) if s[0] == "pipeline.run"]
        run_self = 0.0
        for root in roots:
            _, start, end, _ = self.spans[root]
            covered = sum(e - s for _, s, e, parent in self.spans if parent == root)
            run_self += (end - start) - covered
        c = self.counts
        return {
            "records.parse_s": total.get("records.parse", 0.0),
            "records.plan_s": total.get("records.plan", 0.0),
            "records.records": c["records"],
            "textnorm.normalize_s": total.get("textnorm.normalize", 0.0),
            "embeddings.load_s": total.get("embeddings.load", 0.0),
            "embeddings.vector_s": total.get("embeddings.vector", 0.0),
            "embeddings.fallback_records": c["fallback"],
            "clustering.assign_s": total.get("clustering.assign", 0.0),
            "clustering.expire_s": total.get("clustering.expire", 0.0),
            "clustering.batch_p50_ms": _quantile(batch_ms, 0.5),
            "clustering.batch_p90_ms": _quantile(batch_ms, 0.9),
            "clustering.batches": len(batch_ms),
            "clustering.new": c["new"],
            "clustering.merged": c["merged"],
            "clustering.active_max": c["active_max"],
            "clustering.save_s": total.get("clustering.save", 0.0),
            "representatives.centroid_s": total.get("representatives.centroid", 0.0),
            "representatives.centroid_calls": calls.get("representatives.centroid", 0),
            "representatives.levenshtein_s": total.get("representatives.levenshtein", 0.0),
            "representatives.edit_distance_calls": calls.get("representatives.edit_distance", 0),
            "representatives.touched_share": c["rep_touched"] / c["rep_calls"] if c["rep_calls"] else 0.0,
            "metrics.silhouette_s": total.get("metrics.silhouette", 0.0),
            "metrics.silhouette_points": c["silhouette_points"],
            "metrics.score_s": total.get("metrics.score", 0.0),
            "pipeline.self_s": run_self,
        }


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of the per-batch times; 0.0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
