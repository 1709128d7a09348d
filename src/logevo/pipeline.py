"""End-to-end run orchestration: ingest, embed, cluster, score, report."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from datetime import timedelta
from functools import partial
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import formats, gmm
from .clustering import BatchReport, ClusterState, HyperParams
from .embeddings import (
    HashingProvider,
    load_precomputed,
    load_word_vectors,
)
from .errors import ConfigError, EmptyStream, LogevoError
from .metrics import (
    BatchMetricInput,
    EvolutionScore,
    score_C,
    score_LCE,
    score_R,
    score_S,
    silhouette_batch,
)
from .records import (
    Batch,
    BatchMode,
    BatchPlan,
    Level,
    LineFormat,
    LogRecord,
    plan_batches,
    read_jsonl,
    read_loghub_file,
)
from .representatives import representative_by_centroid, representative_by_levenshtein
from .textnorm import load_stopwords, normalize

_BATCH_SHORTHAND = {
    "1d": BatchPlan.fixed(timedelta(days=1)),
    "5d": BatchPlan.fixed(timedelta(days=5)),
    "snapshot30d+5d": BatchPlan.snapshot_plus(timedelta(days=30), timedelta(days=5)),
}


@dataclass
class RunConfig:
    input: str
    format: str = "loghub"  # loghub | jsonl
    line_format: str | dict = "simple"
    level_filter: list[str] = field(default_factory=lambda: ["ERROR"])
    batch: str | dict = "1d"
    provider: dict = field(default_factory=lambda: {"kind": "hashing", "d": 64, "seed": 0})
    params: dict = field(default_factory=dict)
    algorithm: str = "ONLINE"  # ONLINE | GMM
    gmm: dict = field(default_factory=lambda: {"K": 11, "seed": 0})
    weights: list[float] = field(default_factory=lambda: [1 / 3, 1 / 3, 1 / 3])
    representative: str = "CENTROID"  # CENTROID | LEVENSHTEIN
    drop_placeholders: bool = False
    continuation: bool = True
    stopwords_path: str | None = None
    output_dir: str = "out"

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in config {path}: {exc}") from exc
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "input" not in doc:
            raise ConfigError("config requires an 'input' path")
        return cls(**doc)

    def resolved_plan(self) -> BatchPlan:
        if isinstance(self.batch, str):
            plan = _BATCH_SHORTHAND.get(self.batch)
            if plan is None:
                raise ConfigError(
                    f"unknown batch shorthand {self.batch!r}; use one of "
                    f"{sorted(_BATCH_SHORTHAND)}"
                )
            return plan
        try:
            mode = BatchMode(self.batch["mode"])
            window = timedelta(days=float(self.batch["window_days"]))
            snapshot = (
                timedelta(days=float(self.batch["snapshot_days"]))
                if "snapshot_days" in self.batch
                else None
            )
            return BatchPlan(mode, window, snapshot)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad batch plan: {exc}") from exc

    def resolved_line_format(self) -> LineFormat:
        if isinstance(self.line_format, str):
            fmt = formats.PRESETS.get(self.line_format)
            if fmt is None:
                raise ConfigError(
                    f"unknown line format preset {self.line_format!r}; "
                    f"presets: {sorted(formats.PRESETS)}"
                )
            return fmt
        try:
            return LineFormat(**self.line_format)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad line format descriptor: {exc}") from exc

    def resolved_params(self) -> HyperParams:
        p = dict(self.params)
        if "staleness_days" in p:
            p["staleness"] = timedelta(days=float(p.pop("staleness_days")))
        try:
            return HyperParams(**p)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad hyperparameters: {exc}") from exc

    def resolved_provider(self):
        spec = dict(self.provider)
        kind = spec.pop("kind", None)
        if kind == "hashing":
            return HashingProvider(dim=int(spec.get("d", 64)), seed=int(spec.get("seed", 0)))
        if kind == "word_vectors":
            return load_word_vectors(spec["path"])
        if kind == "precomputed":
            return load_precomputed(spec["path"])
        raise ConfigError(f"unknown provider kind {kind!r}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def ingest(config: RunConfig) -> tuple[list[LogRecord], int]:
    """Parse and level-filter the input stream."""
    if config.format == "jsonl":
        records, skipped = read_jsonl(config.input), 0
    elif config.format == "loghub":
        records, skipped = read_loghub_file(
            config.input, config.resolved_line_format(), config.continuation
        )
    else:
        raise ConfigError(f"unknown input format {config.format!r}")
    wanted = {Level(lv) for lv in config.level_filter}
    return [r for r in records if r.level in wanted], skipped


def embed_records(config: RunConfig, records: list[LogRecord], provider) -> list[np.ndarray]:
    stopwords = load_stopwords(config.stopwords_path)
    return [
        provider.vector(
            normalize(
                r.scrubbed_text,
                source_id=r.id,
                stopwords=stopwords,
                keep_placeholders=not config.drop_placeholders,
            )
        )
        for r in records
    ]


class _GmmClusterShim:
    """Adapts a mixture component to the representative extractor interface."""

    def __init__(self, cid: int, cen: np.ndarray, reservoir):
        self.id = cid
        self.cen = cen
        self.reservoir = reservoir


def _gmm_process(
    config: RunConfig, batches: list[Batch], vectors_by_batch: list[list[np.ndarray]]
) -> list[BatchReport]:
    K = int(config.gmm.get("K", 11))
    seed = int(config.gmm.get("seed", 0))
    params = None
    reports = []
    for batch, vecs in zip(batches, vectors_by_batch):
        if not vecs:
            reports.append(
                BatchReport(batch.index, [], [], K if params is not None else 0, {}, [])
            )
            continue
        X = np.array(vecs)
        if params is None:
            params = gmm.fit_batch(X, gmm.fresh_params(X, K, seed))
        else:
            params = gmm.fit_batch(X, params)
        labels = gmm.assign(X, params)
        points = list(zip(vecs, labels))
        reps = {}
        for k in range(K):
            reservoir = [
                (rec.id, vec)
                for rec, vec, lab in zip(batch.records, vecs, labels)
                if lab == k
            ]
            if reservoir:
                shim = _GmmClusterShim(k, params.means[k], reservoir)
                reps[k] = representative_by_centroid(shim)
        reports.append(BatchReport(batch.index, [], points, K, reps, []))
    return reports


def _online_process(
    config: RunConfig,
    batches: list[Batch],
    vectors_by_batch: list[list[np.ndarray]],
    state: ClusterState,
    texts: dict[str, str],
) -> list[BatchReport]:
    pick = None  # the reservoir member nearest the centroid
    if config.representative.upper() == "LEVENSHTEIN":
        pick = partial(representative_by_levenshtein, texts=texts)
    return [
        state.process_batch(batch, vecs, pick)
        for batch, vecs in zip(batches, vectors_by_batch)
    ]


def compute_scores(
    reports: list[BatchReport], weights: tuple[float, float, float]
) -> tuple[EvolutionScore, list[BatchMetricInput]]:
    inputs = [
        BatchMetricInput(
            index=r.index,
            points=r.points,
            nr_clust=r.nr_clust,
            reps=r.reps,
            silhouette_raw=silhouette_batch(r.points),
        )
        for r in reports
    ]
    S = score_S(inputs)
    R = score_R(inputs)
    C = score_C([b.nr_clust for b in inputs])
    return score_LCE(S, R, C, weights), inputs


def _report_schema() -> dict:
    return json.loads(
        resources.files("logevo.data").joinpath("report.schema.json").read_text()
    )


def _write_outputs(
    out_dir: Path,
    config: RunConfig,
    reports: list[BatchReport],
    inputs: list[BatchMetricInput],
    score: EvolutionScore,
    batches: list[Batch],
    texts: dict[str, str],
    skipped: int,
    n_records: int,
    state: ClusterState | None,
    timings: dict[str, float],
) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)

    # metrics.csv: the plot-ready series
    with (out_dir / "metrics.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["batch_index", "nr_clust", "silhouette_raw", "S_term", "R_term", "C_term"]
        )
        prev = None
        for b in inputs:
            sil = "" if b.silhouette_raw is None else f"{b.silhouette_raw:.9f}"
            s_term = "" if b.silhouette_raw is None else f"{(b.silhouette_raw + 1) / 2:.9f}"
            r_term = c_term = ""
            if prev is not None:
                shared = set(prev.reps) & set(b.reps)
                if shared:
                    try:
                        r_term = f"{score_R([prev, b]):.9f}"
                    except LogevoError:
                        r_term = ""
                c_term = f"{1.0 - score_C([prev.nr_clust, b.nr_clust]):.9f}"
            writer.writerow([b.index, b.nr_clust, sil, s_term, r_term, c_term])
            prev = b

    # clusters.jsonl: one line per active cluster per batch
    with (out_dir / "clusters.jsonl").open("w") as fh:
        for report in reports:
            for cid, rep in sorted(report.reps.items()):
                fh.write(
                    json.dumps(
                        {
                            "batch_index": report.index,
                            "id": cid,
                            "len": report.sizes.get(cid),
                            "representative": texts.get(rep.record_id, rep.text),
                            "score": rep.score,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )

    if state is not None:
        state.save(out_dir / "state.json")

    report_doc = {
        "config": config.to_dict(),
        "parse": {"records": n_records, "skipped": skipped},
        "batches": [
            {
                "index": b.index,
                "start": b.start.isoformat(),
                "end": b.end.isoformat(),
                "n_records": len(b.records),
                "nr_clust": inp.nr_clust,
                "silhouette_raw": inp.silhouette_raw,
                "expired": rep.expired,
            }
            for b, inp, rep in zip(batches, inputs, reports)
        ],
        "score": {
            "S": score.S,
            "R": score.R,
            "C": score.C,
            "weights": list(score.weights),
            "lce": score.lce,
        },
        "timings": timings,
    }
    jsonschema.validate(report_doc, _report_schema())
    (out_dir / "report.json").write_text(
        json.dumps(report_doc, indent=1, sort_keys=True), encoding="utf-8"
    )
    return report_doc


def run(config: RunConfig, state: ClusterState | None = None) -> dict:
    """Execute the full pipeline and write reports; returns the report document.

    A preloaded ``state`` resumes a previous online-clustering run.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    records, skipped = ingest(config)
    if not records:
        raise EmptyStream(f"no records after parsing/filtering {config.input}")
    timings["ingest_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    provider = config.resolved_provider()
    batches = plan_batches(records, config.resolved_plan())
    vectors_by_batch = [
        embed_records(config, list(b.records), provider) for b in batches
    ]
    timings["embed_s"] = time.perf_counter() - t0
    texts = {r.id: r.scrubbed_text for r in records}

    t0 = time.perf_counter()
    if config.algorithm.upper() == "GMM":
        reports = _gmm_process(config, batches, vectors_by_batch)
        state = None
    elif config.algorithm.upper() == "ONLINE":
        if state is None:
            state = ClusterState(config.resolved_params())
        reports = _online_process(config, batches, vectors_by_batch, state, texts)
    else:
        raise ConfigError(f"unknown algorithm {config.algorithm!r}")
    timings["cluster_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    score, inputs = compute_scores(reports, tuple(config.weights))
    timings["metrics_s"] = time.perf_counter() - t0

    return _write_outputs(
        Path(config.output_dir),
        config,
        reports,
        inputs,
        score,
        batches,
        texts,
        skipped,
        len(records),
        state,
        timings,
    )


def sweep(config: RunConfig, grid: dict[str, list]) -> list[dict]:
    """Run the clustering+metrics stages across a theta/alpha/gamma grid.

    Embeddings are computed once and shared across grid points. Returns rows
    sorted by LCE descending and writes sweep.csv to the output directory.
    """
    thetas = grid.get("theta", [config.resolved_params().theta])
    alphas = grid.get("alpha", [config.resolved_params().alpha])
    gammas = grid.get("gamma", [config.resolved_params().gamma])
    if not (thetas and alphas and gammas):
        raise ConfigError("sweep grid must be nonempty")

    records, _ = ingest(config)
    if not records:
        raise EmptyStream(f"no records after parsing/filtering {config.input}")
    provider = config.resolved_provider()
    batches = plan_batches(records, config.resolved_plan())
    vectors_by_batch = [embed_records(config, list(b.records), provider) for b in batches]
    texts = {r.id: r.scrubbed_text for r in records}
    base = config.resolved_params()

    rows = []
    for theta in thetas:
        for alpha in alphas:
            for gamma in gammas:
                row = {"theta": theta, "alpha": alpha, "gamma": gamma}
                try:
                    params = HyperParams(
                        theta=theta,
                        alpha=alpha,
                        gamma=gamma,
                        staleness=base.staleness,
                        reservoir_cap=base.reservoir_cap,
                    )
                    state = ClusterState(params)
                    reports = _online_process(
                        config, batches, vectors_by_batch, state, texts
                    )
                    score, _ = compute_scores(reports, tuple(config.weights))
                    row.update(
                        S=score.S, R=score.R, C=score.C, lce=score.lce, status="OK"
                    )
                except LogevoError as exc:
                    row.update(S="", R="", C="", lce="", status=f"FAILED:{exc.cli_class}")
                rows.append(row)

    rows.sort(key=lambda r: (r["status"] != "OK", -(r["lce"] if r["lce"] != "" else 0)))
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "sweep.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["theta", "alpha", "gamma", "S", "R", "C", "lce", "status"]
        )
        writer.writeheader()
        writer.writerows(rows)
    return rows
