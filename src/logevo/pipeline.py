"""End-to-end run orchestration: ingest, embed, cluster, score, report."""

from __future__ import annotations

import csv
import functools
import json
import shutil
import tempfile
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timedelta
from importlib import resources
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import formats, gmm
from .clustering import ClusterState, HyperParams
from .embeddings import (
    HashingProvider,
    load_precomputed,
    load_word_vectors,
)
from .errors import ConfigError, DegenerateInput, EmptyStream, LogevoError
from .metrics import (
    BatchReport,
    BatchTerms,
    EvolutionScore,
    score_LCE,
    score_series,
    silhouette_batch,
    terms_of,
)
from .records import (
    Batch,
    BatchPlan,
    Level,
    LineFormat,
    LogRecord,
    plan_batches,
    read_jsonl,
    read_loghub_file,
)
from .representatives import (
    LEVENSHTEIN_CAP,
    representative_by_centroid,
    representative_by_levenshtein,
)
from .textnorm import load_stopwords, normalize, read_stopwords

_BATCH_SHORTHAND = {
    "1d": BatchPlan.fixed(timedelta(days=1)),
    "5d": BatchPlan.fixed(timedelta(days=5)),
    "snapshot30d+5d": BatchPlan.snapshot_plus(timedelta(days=30), timedelta(days=5)),
}
# Each batch mode, and whether it takes snapshot_days.
_BATCH_MODES = {"FIXED_WINDOW": False, "SNAPSHOT_PLUS_WINDOW": True}


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
        mode = self.batch["mode"]
        takes_snapshot = _lookup(_BATCH_MODES, mode, "batch mode")
        if takes_snapshot != ("snapshot_days" in self.batch):
            need = "needs" if takes_snapshot else "takes no"
            raise ValueError(f"mode {mode} {need} snapshot_days")
        days = {k: _days(k, v, _CALENDAR) for k, v in self.batch.items() if k != "mode"}
        return BatchPlan(days["window_days"], days.get("snapshot_days"))

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


@functools.cache
def _schema(name: str):
    """data/<name>.schema.json, read once per process."""
    data = resources.files("logevo.data").joinpath(f"{name}.schema.json")
    return json.loads(data.read_text(encoding="utf-8"))


# An integer is an int, not 2.0; neither it nor a number is a bool; a tuple is an array.
_TYPES = {"object": dict, "array": (list, tuple), "string": str, "integer": int,
          "number": (int, float), "boolean": bool, "null": type(None)}
_KEYWORDS = set("$schema title description type properties required additionalProperties items"
                " minItems maxItems minimum maximum enum const allOf if then".split())


def _is(doc, name: str) -> bool:
    return isinstance(doc, _TYPES[name]) and not (isinstance(doc, bool) and name != "boolean")


def _problems(schema, doc, path=()):
    """Each (path, message) by which ``doc`` breaks ``schema``, in schema key order and
    jsonschema's words. A keyword the checker does not know is a bug in the program."""
    if schema is True:
        return
    unknown = set(schema) - _KEYWORDS if isinstance(schema, dict) else {repr(schema)}
    if unknown:
        raise LogevoError(f"the schema checker does not know {sorted(unknown)}")
    for key, value in schema.items():
        if key == "type":
            types = [value] if isinstance(value, str) else value
            if not any(_is(doc, t) for t in types):
                yield path, f"{doc!r} is not of type {', '.join(map(repr, types))}"
        elif key == "properties" and _is(doc, "object"):
            for name in [k for k in value if k in doc]:
                yield from _problems(value[name], doc[name], (*path, name))
        elif key == "required" and _is(doc, "object"):
            yield from ((path, f"{k!r} is a required property") for k in value if k not in doc)
        elif key == "additionalProperties" and _is(doc, "object"):
            extra = sorted((k for k in doc if k not in schema.get("properties", {})), key=str)
            if value is False and extra:
                names, verb = ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were"
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
            elif value is not False:
                for name in extra:
                    yield from _problems(value, doc[name], (*path, name))
        elif key == "items" and _is(doc, "array"):
            for i, item in enumerate(doc):
                yield from _problems(value, item, (*path, i))
        elif key == "minItems" and _is(doc, "array") and len(doc) < value:
            yield path, f"{doc!r} is too short"
        elif key == "maxItems" and _is(doc, "array") and len(doc) > value:
            yield path, f"{doc!r} is too long"
        elif key == "minimum" and _is(doc, "number") and doc < value:
            yield path, f"{doc!r} is less than the minimum of {value!r}"
        elif key == "maximum" and _is(doc, "number") and doc > value:
            yield path, f"{doc!r} is greater than the maximum of {value!r}"
        elif key == "enum" and doc not in value:  # both files' enum and const values are strings
            yield path, f"{doc!r} is not one of {value!r}"
        elif key == "const" and doc != value:
            yield path, f"{value!r} was expected"
        elif key == "allOf":
            for sub in value:
                yield from _problems(sub, doc, path)
        elif key == "if" and "then" in schema and next(_problems(value, doc, path), None) is None:
            yield from _problems(schema["then"], doc, path)


def _schema_problem(name: str, doc) -> str | None:
    """``where: what`` of the shallowest, then first, way ``doc`` breaks data/<name>.schema.json."""
    problem = min(_problems(_schema(name), doc), key=lambda p: len(p[0]), default=None)
    if problem is not None:
        return f"{'.'.join(map(str, problem[0])) or name}: {problem[1]}"


def read_json(path: str | Path, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8", errors="replace"))
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
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


def embed_records(config: RunConfig, records: Sequence[LogRecord], provider, stopwords=None):
    """One unit row per record, in order; ``stopwords`` default to the config's list."""
    stopwords = load_stopwords(config.stopwords_path) if stopwords is None else stopwords
    table: dict[str, str | None] = {}  # each raw token's kept token, for this batch only
    return provider.embed(
        [normalize(r.scrubbed_text, r.id, stopwords, table) for r in records]
    )


# Where a file was read from; a resume compares what it held, by its SHA-256.
_WHERE = ("path", "stopwords")


def _embedding_record(config: RunConfig, provider, stopwords_hash: str) -> dict:
    """What a snapshot records of the embedding its centroids live in: the
    provider's kind with its ``d`` and ``seed``, or its file's path and SHA-256,
    then the stopword file's path (None for the packaged list) and SHA-256,
    each hash as its loader took it."""
    spec = config.provider
    if spec["kind"] == "hashing":
        found = {"d": provider.dim, "seed": provider.seed}
    else:
        found = {"path": spec["path"], "sha256": provider.sha256}
    return {"kind": spec["kind"], **found, "stopwords": config.stopwords_path,
            "stopwords_sha256": stopwords_hash}


@dataclass(frozen=True)
class Prepared:
    """The embedded input of a run: its batches, each batch's array of unit
    rows, and the record of the embedding that a snapshot of the run holds."""

    batches: list[Batch]
    vectors_by_batch: list[np.ndarray]
    skipped: int
    timings: dict[str, float]
    embedding: dict


def prepare(config: RunConfig, state: ClusterState | None = None) -> Prepared:
    """Ingest, plan batches and embed: the stages that `run` and `sweep` share.
    The provider and the stopwords load first, each file read once, and the
    embedding is recorded, all booked to embedding time; a resumed ``state`` is
    checked against them before any input is read."""
    t0 = time.perf_counter()
    provider = config.resolved_provider()
    stopwords, stopwords_hash = read_stopwords(config.stopwords_path)
    embedding = _embedding_record(config, provider, stopwords_hash)
    load_s = time.perf_counter() - t0
    if state is not None:
        _check_resume(config, state, provider.dim, embedding)

    t0 = time.perf_counter()
    records, skipped = ingest(config)
    if not records:
        raise EmptyStream(f"no records after parsing/filtering {config.input}")
    ingest_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batches = plan_batches(records, config.resolved_plan())
    vectors_by_batch = [embed_records(config, b.records, provider, stopwords) for b in batches]
    embed_s = load_s + time.perf_counter() - t0
    timings = {"ingest_s": ingest_s, "embed_s": embed_s}
    return Prepared(batches, vectors_by_batch, skipped, timings, embedding)


def _gmm_process(config: RunConfig, prep: Prepared) -> Iterator[BatchReport]:
    """Each batch's report, made as the batch is fitted."""
    K, seed = config.gmm.get("K", 11), config.gmm.get("seed", 0)
    params, reps = None, {}
    for batch, vecs in zip(prep.batches, prep.vectors_by_batch):
        labels = []  # an empty batch fits nothing
        if len(vecs):
            if params is None:
                try:
                    params = gmm.fresh_params(vecs, K, seed)
                except DegenerateInput as exc:
                    raise DegenerateInput(f"batch {batch.index}: {exc}") from exc
            params = gmm.fit_batch(vecs, params)
            labels = gmm.assign(vecs, params)
        members = [[] for _ in range(K)]
        for rec, vec, k in zip(batch.records, vecs, labels):
            members[k].append((rec.id, rec.scrubbed_text, vec))
        # Each mixture component, shaped as the extractor expects a cluster; one
        # with no member keeps its last representative, if it had one.
        reps = reps | {
            k: representative_by_centroid(SimpleNamespace(id=k, cen=params.means[k], reservoir=m))
            for k, m in enumerate(members) if m
        }
        sizes = {k: len(members[k]) for k in reps}
        points = list(zip(vecs, labels))
        yield BatchReport(batch.index, points, len(reps), reps, sizes=sizes)


def _online_process(
    config: RunConfig, prep: Prepared, state: ClusterState
) -> Iterator[BatchReport]:
    """Each batch's report, made as the batch is clustered."""
    # None picks the reservoir member nearest the centroid
    pick = representative_by_levenshtein if config.representative == "LEVENSHTEIN" else None
    return (
        state.process_batch(batch, vecs, pick)
        for batch, vecs in zip(prep.batches, prep.vectors_by_batch)
    )


def close_batch(report: BatchReport, prev: BatchReport | None) -> BatchTerms:
    """Score a batch as it closes: fill in its silhouette, drop its points,
    which nothing later reads, and return its terms against ``prev``, the
    batch before it. All that a later batch reads of it is its ``reps`` and
    ``nr_clust``."""
    report.silhouette_raw = silhouette_batch(report.points)
    report.points = []
    return terms_of(report, prev)


def compute_scores(
    reports: Iterable[BatchReport], weights: tuple[float, float, float]
) -> tuple[EvolutionScore, list[BatchTerms]]:
    """The score of a run and each batch's terms. Each report is closed in
    turn (``close_batch``), so only the one before it is held."""
    terms, prev = [], None
    for report in reports:
        terms.append(close_batch(report, prev))
        prev = report
    return score_series(terms, weights), terms


def _write_clusters(fh, report: BatchReport, tails: dict) -> dict:
    """A batch's clusters.jsonl lines: one per active cluster, keys sorted.
    ``tails`` maps the previous batch's cluster ids to their representative and
    its encoding without the "{"; a cluster that did not grow keeps its
    Representative, so its "representative" and "score" are not encoded again.
    Returns this batch's map."""
    mine = {}
    for cid, rep in sorted(report.reps.items()):
        last_rep, tail = tails.get(cid, (None, None))
        if last_rep is not rep:
            tail = json.dumps({"representative": rep.text, "score": rep.score})[1:]
        mine[cid] = (rep, tail)
        fh.write(f'{{"batch_index": {report.index}, "id": {cid}, '
                 f'"len": {report.sizes[cid]}, {tail}\n')
    return mine


def _write_outputs(
    out_dir: Path,
    config: RunConfig,
    prep: Prepared,
    rows: list[dict],
    terms: list[BatchTerms],
    score: EvolutionScore,
    state: ClusterState | None,
    clusters,
    timings: dict[str, float],
) -> dict:
    """Check report.json, then write every output; ``clusters`` holds the
    clusters.jsonl lines, written as each batch closed."""
    report_doc = {
        "config": asdict(config),
        "parse": {"records": sum(len(b.records) for b in prep.batches), "skipped": prep.skipped},
        "batches": rows,
        "score": {**asdict(score), "weights": list(score.weights)},
        "levenshtein_window": LEVENSHTEIN_CAP if config.representative == "LEVENSHTEIN" else None,
        "timings": timings,
    }
    problem = _schema_problem("report", report_doc)
    if problem is not None:  # a bug in the program: write nothing
        raise LogevoError(f"report.json breaks its schema: {problem}")
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    # metrics.csv: the plot-ready series whose defined terms S, R and C average
    with (out_dir / "metrics.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["batch_index", "nr_clust", "silhouette_raw", "S_term", "R_term", "C_term"]
        )
        for row, t in zip(rows, terms):
            numbers = (
                "" if v is None else f"{v:.9f}" for v in (row["silhouette_raw"], t.S, t.R, t.C)
            )
            writer.writerow([row["index"], row["nr_clust"], *numbers])

    clusters.seek(0)
    with (out_dir / "clusters.jsonl").open("w", encoding="utf-8") as fh:
        shutil.copyfileobj(clusters, fh)

    if state is not None:
        state.save(out_dir / "state.json")
    timings["write_s"] += time.perf_counter() - t0  # carried by report.json, written last

    (out_dir / "report.json").write_text(
        json.dumps(report_doc, indent=1, sort_keys=True), encoding="utf-8"
    )
    return report_doc


def run(config: RunConfig, state: ClusterState | None = None) -> dict:
    """Execute the full pipeline and write reports; returns the report document.

    Each batch is clustered, scored and its clusters.jsonl lines written as it
    closes; the lines wait in an anonymous temporary file until report.json
    passes its check, so a run that fails writes nothing. A preloaded
    ``state`` resumes a previous online-clustering run, whose params the
    config must repeat.
    """
    config = check_config(asdict(config))
    prep = prepare(config, state)
    # Each stage's seconds, summed over the batches.
    timings = {**prep.timings, "cluster_s": 0.0, "metrics_s": 0.0, "write_s": 0.0}

    if config.algorithm == "GMM":
        reports = _gmm_process(config, prep)
    else:
        if state is None:
            state = ClusterState(config.resolved_params())
        state.embedding = prep.embedding
        reports = _online_process(config, prep, state)

    clock = time.perf_counter
    rows, terms, prev, tails = [], [], None, {}
    with tempfile.TemporaryFile("w+", encoding="utf-8") as clusters:
        for batch in prep.batches:
            t0 = clock()
            report = next(reports)
            t1 = clock()
            terms.append(close_batch(report, prev))
            t2 = clock()
            tails = _write_clusters(clusters, report, tails)
            t3 = clock()
            timings["cluster_s"] += t1 - t0
            timings["metrics_s"] += t2 - t1
            timings["write_s"] += t3 - t2
            rows.append({
                "index": batch.index,
                "start": batch.start.isoformat(),
                "end": batch.end.isoformat(),
                "n_records": len(batch.records),
                "nr_clust": report.nr_clust,
                "silhouette_raw": report.silhouette_raw,
                "expired": report.expired,
            })
            prev = report

        t0 = clock()
        score = score_series(terms, tuple(config.weights))
        timings["metrics_s"] += clock() - t0

        return _write_outputs(
            Path(config.output_dir), config, prep, rows, terms, score, state, clusters, timings
        )


def _check_resume(config: RunConfig, state: ClusterState, dim: int, embedding: dict) -> None:
    """A snapshot resumes only the online clusterer, with its own params, vectors
    of its centroids' dimension and the embedding it records, if it records one."""
    if config.algorithm == "GMM":
        raise ConfigError("algorithm: GMM cannot resume from a cluster-state snapshot")
    params, snapshot = config.resolved_params(), state.params
    differ = [
        f"{f.name} {getattr(params, f.name)} is not the snapshot's {getattr(snapshot, f.name)}"
        for f in fields(HyperParams)
        if getattr(params, f.name) != getattr(snapshot, f.name)
    ]
    if differ:
        raise ConfigError(f"params: {'; '.join(differ)}")
    active = state.active_clusters()
    if active and len(active[0].cen) != dim:
        raise ConfigError(
            f"provider: its vectors have dimension {dim}, "
            f"the snapshot's centroids {len(active[0].cen)}"
        )
    recorded = state.embedding
    if recorded is None:  # an older snapshot
        return
    # Of another kind, every other field differs too: name the kind alone.
    same_kind = recorded.get("kind") == embedding["kind"]
    keys = [k for k in embedding if k not in _WHERE] if same_kind else ["kind"]
    differ = [f"{k} {embedding[k]} is not the snapshot's {recorded.get(k)}"
              for k in keys if embedding[k] != recorded.get(k)]
    if differ:
        raise ConfigError(f"provider: {'; '.join(differ)}")


_SWEEP_AXES = ("theta", "alpha", "gamma")


def _sweep_cells(config: RunConfig, grid: dict[str, list]) -> list[HyperParams]:
    """One HyperParams per grid cell, theta outermost. A bad grid shape or a cell
    that ``check_config`` rejects in ``params`` is a ConfigError."""
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
    doc = asdict(config)
    return [
        check_config({**doc, "params": {**config.params, **dict(zip(_SWEEP_AXES, cell))}})
        .resolved_params()
        for cell in product(*axes)
    ]


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
    with (out_dir / "sweep.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["theta", "alpha", "gamma", "S", "R", "C", "lce", "status"]
        )
        writer.writeheader()
        writer.writerows(rows)
    return rows
