"""End-to-end run orchestration: ingest, embed, cluster, score, report."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timedelta
from importlib import resources
from itertools import product
from pathlib import Path
from types import SimpleNamespace

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
    BatchTerms,
    EvolutionScore,
    batch_terms,
    score_LCE,
    score_series,
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
    stopwords_path: str | None = None
    output_dir: str = "out"

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return check_config(read_json(path, "config"))

    def resolved_plan(self) -> BatchPlan:
        if isinstance(self.batch, str):
            return _lookup(_BATCH_SHORTHAND, self.batch, "batch shorthand")
        days = {k: _days(k, v, _CALENDAR) for k, v in self.batch.items() if k != "mode"}
        mode = BatchMode(self.batch["mode"])
        return BatchPlan(mode, days["window_days"], days.get("snapshot_days"))

    def resolved_line_format(self) -> LineFormat:
        if isinstance(self.line_format, str):
            return _lookup(formats.PRESETS, self.line_format, "line format preset")
        return LineFormat(**self.line_format)

    def resolved_params(self) -> HyperParams:
        p = dict(self.params)
        if "staleness_days" in p:
            p["staleness"] = _days("staleness_days", p.pop("staleness_days"))
        return HyperParams(**p)

    def resolved_provider(self):
        spec = self.provider
        if spec["kind"] == "hashing":
            return HashingProvider(dim=spec.get("d", 64), seed=spec.get("seed", 0))
        load = load_word_vectors if spec["kind"] == "word_vectors" else load_precomputed
        return load(spec["path"])


# No batch can be longer than the calendar it is planned on.
_CALENDAR = datetime.max - datetime.min


def _days(name: str, days: float, longest: timedelta = timedelta.max) -> timedelta:
    try:
        span = timedelta(days=days)
    except OverflowError:
        span = None
    if span is None or span > longest:
        raise ValueError(f"{name} {days} is longer than {longest.days} days")
    return span


def _lookup(table: dict, name: str, what: str):
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}; use one of {sorted(table)}")
    return table[name]


def _schema_problem(name: str, doc) -> str | None:
    """``where: what`` of the most relevant way ``doc`` breaks data/<name>.schema.json."""
    schema = json.loads(resources.files("logevo.data").joinpath(f"{name}.schema.json").read_text())
    # An integer is an int, not 2.0, and a tuple is an array.
    types = jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many({
        "integer": lambda _, v: isinstance(v, int) and not isinstance(v, bool),
        "array": lambda _, v: isinstance(v, (list, tuple)),
    })
    validator = jsonschema.validators.extend(jsonschema.Draft202012Validator, type_checker=types)
    error = jsonschema.exceptions.best_match(validator(schema).iter_errors(doc))
    if error is not None:
        return f"{'.'.join(map(str, error.absolute_path)) or name}: {error.message}"


def read_json(path: str | Path, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {what} {path}: {exc}") from exc


def check_config(doc) -> RunConfig:
    """The one config check, made before any input is read: the shape from
    config.schema.json, then each value rule from the class that owns it.
    ``algorithm`` and ``representative`` are case-folded here and nowhere else."""
    if isinstance(doc, dict):
        folded = ("algorithm", "representative")
        doc = {k: v.upper() if k in folded and isinstance(v, str) else v for k, v in doc.items()}
    problem = _schema_problem("config", doc)
    if problem is not None:
        raise ConfigError(problem)
    config = RunConfig(**doc)
    for name, rule in (
        ("params", config.resolved_params),
        ("batch", config.resolved_plan),
        ("line_format", config.resolved_line_format),
        ("level_filter", lambda: [Level(lv) for lv in config.level_filter]),
        ("weights", lambda: score_LCE(0.0, 0.0, 0.0, tuple(config.weights))),
        ("provider", lambda: config.provider["kind"] != "hashing" or config.resolved_provider()),
        ("representative", lambda: _gmm_representative(config)),
    ):
        try:
            rule()
        except (ValueError, OverflowError, LogevoError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return config


def _gmm_representative(config: RunConfig) -> None:
    if config.algorithm == "GMM" and config.representative != "CENTROID":
        raise ValueError(
            f"{config.representative} is not available with GMM, which represents each "
            "component by the member nearest its mean: use CENTROID"
        )


def ingest(config: RunConfig) -> tuple[list[LogRecord], int]:
    """Parse and level-filter the input stream."""
    if config.format == "jsonl":
        records, skipped = read_jsonl(config.input), 0
    else:
        records, skipped = read_loghub_file(config.input, config.resolved_line_format())
    wanted = {Level(lv) for lv in config.level_filter}
    return [r for r in records if r.level in wanted], skipped


def embed_records(config: RunConfig, records: list[LogRecord], provider) -> list[np.ndarray]:
    stopwords = load_stopwords(config.stopwords_path)
    return [
        provider.vector(normalize(r.scrubbed_text, source_id=r.id, stopwords=stopwords))
        for r in records
    ]


@dataclass(frozen=True)
class Prepared:
    """The embedded input of a run: its batches and one vector per record."""

    batches: list[Batch]
    vectors_by_batch: list[list[np.ndarray]]
    n_records: int
    skipped: int
    timings: dict[str, float]


def prepare(config: RunConfig) -> Prepared:
    """Ingest, plan batches and embed: the stages that `run` and `sweep` share.
    The provider and the stopwords load first, and book to embedding time."""
    t0 = time.perf_counter()
    provider = config.resolved_provider()
    load_stopwords(config.stopwords_path)  # cached for embed_records
    load_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    records, skipped = ingest(config)
    if not records:
        raise EmptyStream(f"no records after parsing/filtering {config.input}")
    ingest_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batches = plan_batches(records, config.resolved_plan())
    vectors_by_batch = [embed_records(config, list(b.records), provider) for b in batches]
    embed_s = load_s + time.perf_counter() - t0
    return Prepared(
        batches, vectors_by_batch, len(records), skipped, {"ingest_s": ingest_s, "embed_s": embed_s}
    )


def _gmm_process(config: RunConfig, prep: Prepared) -> list[BatchReport]:
    K, seed = config.gmm.get("K", 11), config.gmm.get("seed", 0)
    params = None
    reports = []
    for batch, vecs in zip(prep.batches, prep.vectors_by_batch):
        if not vecs:
            reports.append(BatchReport(batch.index, [], 0 if params is None else K, {}, []))
            continue
        X = np.array(vecs)
        if params is None:
            params = gmm.fit_batch(X, gmm.fresh_params(X, K, seed))
        else:
            params = gmm.fit_batch(X, params)
        labels = gmm.assign(X, params)
        members = [[] for _ in range(K)]
        for rec, vec, k in zip(batch.records, vecs, labels):
            members[k].append((rec.id, rec.scrubbed_text, vec))
        # each mixture component, shaped as the extractor expects a cluster
        reps = {
            k: representative_by_centroid(SimpleNamespace(id=k, cen=params.means[k], reservoir=m))
            for k, m in enumerate(members) if m
        }
        sizes = {k: len(members[k]) for k in reps}
        reports.append(BatchReport(batch.index, list(zip(vecs, labels)), K, reps, [], sizes))
    return reports


def _online_process(
    config: RunConfig, prep: Prepared, state: ClusterState
) -> list[BatchReport]:
    # None picks the reservoir member nearest the centroid
    pick = representative_by_levenshtein if config.representative == "LEVENSHTEIN" else None
    return [
        state.process_batch(batch, vecs, pick)
        for batch, vecs in zip(prep.batches, prep.vectors_by_batch)
    ]


def compute_scores(
    reports: list[BatchReport], weights: tuple[float, float, float]
) -> tuple[EvolutionScore, list[tuple[BatchMetricInput, BatchTerms]]]:
    """The score of a run and its per-batch series, each batch with its terms."""
    inputs = [
        BatchMetricInput(r.index, r.points, r.nr_clust, r.reps, silhouette_batch(r.points))
        for r in reports
    ]
    terms = batch_terms(inputs)
    return score_series(terms, weights), list(zip(inputs, terms))


def _write_outputs(
    out_dir: Path,
    config: RunConfig,
    prep: Prepared,
    reports: list[BatchReport],
    series: list[tuple[BatchMetricInput, BatchTerms]],
    score: EvolutionScore,
    state: ClusterState | None,
    timings: dict[str, float],
) -> dict:
    report_doc = {
        "config": asdict(config),
        "parse": {"records": prep.n_records, "skipped": prep.skipped},
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
            for b, (inp, _), rep in zip(prep.batches, series, reports)
        ],
        "score": {**asdict(score), "weights": list(score.weights)},
        "timings": timings,
    }
    problem = _schema_problem("report", report_doc)
    if problem is not None:  # a bug in the program: write nothing
        raise LogevoError(f"report.json breaks its schema: {problem}")
    out_dir.mkdir(parents=True, exist_ok=True)

    # metrics.csv: the plot-ready series whose defined terms S, R and C average
    with (out_dir / "metrics.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["batch_index", "nr_clust", "silhouette_raw", "S_term", "R_term", "C_term"]
        )
        for b, t in series:
            numbers = ("" if v is None else f"{v:.9f}" for v in (b.silhouette_raw, t.S, t.R, t.C))
            writer.writerow([b.index, b.nr_clust, *numbers])

    # clusters.jsonl: one line per active cluster per batch
    with (out_dir / "clusters.jsonl").open("w") as fh:
        for report in reports:
            for cid, rep in sorted(report.reps.items()):
                row = {
                    "batch_index": report.index,
                    "id": cid,
                    "len": report.sizes[cid],
                    "representative": rep.text,
                    "score": rep.score,
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    if state is not None:
        state.save(out_dir / "state.json")

    (out_dir / "report.json").write_text(
        json.dumps(report_doc, indent=1, sort_keys=True), encoding="utf-8"
    )
    return report_doc


def run(config: RunConfig, state: ClusterState | None = None) -> dict:
    """Execute the full pipeline and write reports; returns the report document.

    A preloaded ``state`` resumes a previous online-clustering run.
    """
    config = check_config(asdict(config))
    prep = prepare(config)
    timings = dict(prep.timings)

    t0 = time.perf_counter()
    if config.algorithm == "GMM":
        reports, state = _gmm_process(config, prep), None
    else:
        if state is None:
            state = ClusterState(config.resolved_params())
        reports = _online_process(config, prep, state)
    timings["cluster_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    score, series = compute_scores(reports, tuple(config.weights))
    timings["metrics_s"] = time.perf_counter() - t0

    return _write_outputs(
        Path(config.output_dir), config, prep, reports, series, score, state, timings
    )


_SWEEP_AXES = ("theta", "alpha", "gamma")


def _sweep_cells(config: RunConfig, grid: dict[str, list]) -> list[HyperParams]:
    """One HyperParams per grid cell, theta outermost; rejects a bad grid."""
    if config.algorithm != "ONLINE":
        raise ConfigError(
            f"sweep grids the online clusterer only, not algorithm {config.algorithm!r}"
        )
    if not isinstance(grid, dict) or not set(grid) <= set(_SWEEP_AXES):
        raise ConfigError(f"a sweep grid maps some of {_SWEEP_AXES} to lists, not {grid!r}")
    base = config.resolved_params()
    axes = [grid.get(name, [getattr(base, name)]) for name in _SWEEP_AXES]
    if not all(isinstance(values, (list, tuple)) and values for values in axes):
        raise ConfigError("each sweep grid entry must be a nonempty list")
    cells = []
    for theta, alpha, gamma in product(*axes):
        try:
            cells.append(replace(base, theta=theta, alpha=alpha, gamma=gamma))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"bad sweep grid cell theta={theta}, alpha={alpha}, gamma={gamma}: {exc}"
            ) from exc
    return cells


def sweep(config: RunConfig, grid: dict[str, list]) -> list[dict]:
    """Run the clustering+metrics stages across a theta/alpha/gamma grid.

    Only the online clusterer is swept. The config and the grid are checked before
    any input is read, and embeddings are computed once and shared across grid points.
    Returns rows sorted by LCE descending and writes sweep.csv to the output
    directory.
    """
    config = check_config(asdict(config))
    cells = _sweep_cells(config, grid)
    prep = prepare(config)

    rows = []
    for params in cells:
        row = {"theta": params.theta, "alpha": params.alpha, "gamma": params.gamma}
        try:
            reports = _online_process(config, prep, ClusterState(params))
            score, _ = compute_scores(reports, tuple(config.weights))
            row.update(S=score.S, R=score.R, C=score.C, lce=score.lce, status="OK")
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
