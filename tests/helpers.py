"""Shared test utilities: independent oracles and synthetic data generators."""

from __future__ import annotations

import functools
import json
import math
from datetime import datetime, timedelta, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from logevo.errors import DegenerateInput, ProviderError
from logevo.gmm import MAX_ITERS, TOL, VAR_FLOOR, GmmParams
from logevo.records import Batch, Level, LogRecord

T0 = datetime(2017, 5, 16, tzinfo=timezone.utc)


def record(rid: str, text: str = "x", ts: datetime | None = None) -> LogRecord:
    return LogRecord.build(rid, ts or T0, Level.ERROR, text)


def unit_vectors(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# --- independent straight-line replay of the online clustering listing -------


class ReplayCluster:
    def __init__(self, cen, cid):
        self.cen = np.array(cen, dtype=float)
        self.len = 1
        self.id = cid


def replay_online(points, theta, alpha, gamma):
    """Literal transliteration of the published listing, one point at a time.

    Returns (clusters, assignments) where assignments is a list of
    (cluster id, was_new) tuples.
    """
    clusters: list[ReplayCluster] = []
    assignments = []
    for p in points:
        min_dist = math.inf
        c = None
        for clust in clusters:
            dist = 1.0 - float(
                np.dot(clust.cen, p) / (np.linalg.norm(clust.cen) * np.linalg.norm(p))
            )
            if dist < min_dist:
                min_dist = dist
                c = clust
        if min_dist <= theta:
            if c.len >= gamma:
                c.cen = (1.0 - alpha) * c.cen + alpha * p
            else:
                c.cen = (c.len / (c.len + 1)) * c.cen + (1.0 / (c.len + 1)) * p
            c.len += 1
            assignments.append((c.id, False))
        else:
            clust = ReplayCluster(p, len(clusters))
            clusters.append(clust)
            assignments.append((clust.id, True))
    return clusters, assignments


# --- brute-force silhouette reference ---------------------------------------


def silhouette_reference(points):
    """Plain double-loop cosine silhouette; singleton points score 0."""
    n = len(points)
    if n < 2:
        return None
    labels = [cid for _, cid in points]
    if len(set(labels)) < 2:
        return None

    def cos_dist(a, b):
        return 1.0 - float(np.dot(a, b)) / (
            float(np.linalg.norm(a)) * float(np.linalg.norm(b))
        )

    scores = []
    for i in range(n):
        same = [j for j in range(n) if j != i and labels[j] == labels[i]]
        if not same:
            scores.append(0.0)
            continue
        a = sum(cos_dist(points[i][0], points[j][0]) for j in same) / len(same)
        b = math.inf
        for lab in set(labels):
            if lab == labels[i]:
                continue
            other = [j for j in range(n) if labels[j] == lab]
            b = min(
                b,
                sum(cos_dist(points[i][0], points[j][0]) for j in other) / len(other),
            )
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return sum(scores) / n


# --- two-row edit-distance reference ------------------------------------------


def edit_distance_reference(a: str, b: str) -> int:
    """Classic two-row Levenshtein DP: insert, delete and substitute cost 1."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


# --- the batch planner as two loops: window bounds first, then a record scan --


def plan_batches_reference(records, plan):
    """Consecutive windows from midnight UTC of the first record's day, each
    filled by a scan of the stably sorted records; a window's end clamps at
    the last representable time."""
    end_of_time = datetime.max.replace(tzinfo=timezone.utc)

    def later(t, span):
        return t + span if span < end_of_time - t else end_of_time

    records = sorted(records, key=lambda r: r.timestamp)
    first, last = records[0].timestamp, records[-1].timestamp
    cursor = first.replace(hour=0, minute=0, second=0, microsecond=0)
    bounds = []
    if plan.snapshot is not None:
        bounds.append((cursor, later(cursor, plan.snapshot)))
        cursor = bounds[-1][1]
    while cursor <= last:
        bounds.append((cursor, later(cursor, plan.window)))
        cursor = bounds[-1][1]

    batches = []
    i = 0
    for index, (start, end) in enumerate(bounds):
        members = []
        while i < len(records) and records[i].timestamp < end:
            members.append(records[i])
            i += 1
        batches.append(Batch(index, start, end, tuple(members)))
    return batches


# --- the word-vectors loader that parses and checks every line up front -------


def load_word_vectors_reference(path):
    """(vocab, dim) of a word2vec-text file, every line parsed and checked as it
    is read; a repeated word, checked all the same, keeps its first vector. A
    line ends at "\\n" only, so the file is read as bytes: read_text would end
    a line at a lone "\\r" too."""
    lines = Path(path).read_bytes().decode("utf-8", errors="replace").split("\n")
    vocab = {}
    dim = None
    start = 0
    head = lines[0].split()
    if len(head) == 2 and all(p.removeprefix("-").isdecimal() for p in head):
        dim = int(head[1])
        start = 1
        if dim < 1:
            raise ProviderError(f"{path}:1: the header gives dimension {dim}, not at least 1")
    with np.errstate(over="ignore"):
        for lineno, line in enumerate(lines[start:], start=start + 1):
            if not line.strip():
                continue
            parts = line.split()
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if not dim:
                    raise ProviderError(f"{path}:{lineno}: the word {token!r} has no vector")
            if len(values) != dim:
                raise ProviderError(f"{path}:{lineno}: expected {dim} floats, got {len(values)}")
            try:
                vec = np.array(values, dtype=float)
            except ValueError as exc:
                raise ProviderError(f"{path}:{lineno}: non-numeric value: {exc}") from exc
            if not np.isfinite(vec @ vec):
                raise ProviderError(f"{path}:{lineno}: the vector of {token!r} is not finite")
            vocab.setdefault(token, vec)
    if dim is None or not vocab:
        raise ProviderError(f"{path}: no word vectors found")
    return vocab, dim


# --- the GMM baseline with a loop over its components -------------------------


def gmm_log_densities_reference(points, params):
    """Per-point, per-component log N(x | mu_k, diag(var_k)), one component at a
    time from the differences x - mu_k. Shape (n, K)."""
    n, d = points.shape
    out = np.empty((n, params.K))
    for k in range(params.K):
        var = params.variances[k]
        diff = points - params.means[k]
        out[:, k] = -0.5 * (
            d * np.log(2.0 * np.pi) + np.log(var).sum() + (diff**2 / var).sum(axis=1)
        )
    return out


def _gmm_log_resp_reference(points, params):
    weighted = gmm_log_densities_reference(points, params) + np.log(params.mixing)
    m = weighted.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(weighted - m).sum(axis=1))
    return weighted - lse[:, None], float(lse.sum())


def gmm_m_step_reference(points, resp):
    """Mixing, means and floored variances, each component's variance the
    responsibility-weighted mean of its squared differences."""
    nk = resp.sum(axis=0) + 1e-12
    means = (resp.T @ points) / nk[:, None]
    variances = np.empty_like(means)
    for k in range(len(nk)):
        diff = points - means[k]
        variances[k] = np.maximum((resp[:, k][:, None] * diff**2).sum(axis=0) / nk[k], VAR_FLOOR)
    return GmmParams(len(nk), means, variances, nk / nk.sum())


def gmm_fresh_params_reference(points, K, seed=0):
    """k-means++ seeding that recomputes each point's distance to every chosen
    mean; too few distinct rows is checked first, by sorting them."""
    n = points.shape[0]
    if n < K or np.unique(points, axis=0).shape[0] < K:
        raise DegenerateInput("fewer distinct points than components")
    rng = np.random.default_rng(seed)
    means = [points[rng.integers(n)]]
    for _ in range(K - 1):
        d2 = np.min([((points - m) ** 2).sum(axis=1) for m in means], axis=0)
        total = d2.sum()
        if total == 0.0:
            raise DegenerateInput("fewer distinct points than components")
        means.append(points[rng.choice(n, p=d2 / total)])
    var = np.maximum(points.var(axis=0), VAR_FLOOR)
    return GmmParams(K, np.array(means), np.tile(var, (K, 1)), np.full(K, 1.0 / K))


def gmm_fit_reference(points, init):
    """EM from ``init``, stopping as ``gmm.fit_batch`` does."""
    X = np.asarray(points, dtype=float)
    params, lls, prev_ll = init, [], -math.inf
    for _ in range(MAX_ITERS):
        log_r, ll = _gmm_log_resp_reference(X, params)
        lls.append(ll)
        if ll - prev_ll < TOL and math.isfinite(prev_ll):
            break
        prev_ll = ll
        params = gmm_m_step_reference(X, np.exp(log_r))
    return GmmParams(params.K, params.means, params.variances, params.mixing, lls)


def gmm_assign_reference(points, params):
    log_r, _ = _gmm_log_resp_reference(np.asarray(points, dtype=float), params)
    return [int(i) for i in np.argmax(log_r, axis=1)]


# --- jsonschema, the oracle of the schema checker ----------------------------


@functools.cache
def schema_oracle(name: str):
    """A jsonschema validator of data/<name>.schema.json with logevo's types: an
    integer is an int, not 2.0 or True, and a tuple is an array."""
    import jsonschema  # a test dependency only: a run never imports it

    schema = json.loads(resources.files("logevo.data").joinpath(f"{name}.schema.json").read_text())
    types = jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many({
        "integer": lambda _, v: isinstance(v, int) and not isinstance(v, bool),
        "array": lambda _, v: isinstance(v, (list, tuple)),
    })
    return jsonschema.validators.extend(jsonschema.Draft202012Validator, type_checker=types)(schema)


# --- synthetic raw log files in the preset layouts --------------------------

_MESSAGES = [
    ("Connection timeout to host db-{}", "ERROR"),
    ("Failed to replicate block blk-{} to datanode", "ERROR"),
    ("Out of memory while allocating buffer of size {}", "ERROR"),
    ("Disk quota exceeded on volume vol-{}", "ERROR"),
    ("Authentication failure for user svc-{}", "ERROR"),
    ("Unable to open session with quorum peer {}", "ERROR"),
    ("Request queue overflow, dropping {} requests", "ERROR"),
    ("Checksum mismatch reading segment {}", "ERROR"),
    ("Heartbeat received from node {}", "INFO"),
    ("Snapshot completed in {} ms", "INFO"),
]


def _sample_stream(n, seed):
    """Yields (timestamp, level, message) spread over ~8 days."""
    rng = np.random.default_rng(seed)
    step = timedelta(seconds=int(8 * 86400 / n))
    ts = T0
    for i in range(n):
        template, level = _MESSAGES[int(rng.integers(len(_MESSAGES)))]
        yield ts, level, template.format(int(rng.integers(1000)))
        ts += step


def make_loghub_sample(fmt_name: str, n: int, seed: int = 0) -> str:
    """Render n lines in the named preset layout, plus a few continuations."""
    lines = []
    for i, (ts, level, msg) in enumerate(_sample_stream(n, seed)):
        if fmt_name == "HDFS_2":
            stamp = ts.strftime("%Y-%m-%d %H:%M:%S,123")
            lines.append(f"{stamp} {level} [main] org.apache.hadoop.hdfs: {msg}")
        elif fmt_name == "Linux":
            stamp = ts.strftime("%b %d %H:%M:%S")
            lines.append(f"{stamp} combo kernel[{1000 + i % 50}]: {msg}")
        elif fmt_name == "Zookeeper":
            stamp = ts.strftime("%Y-%m-%d %H:%M:%S,648")
            lines.append(f"{stamp} - {level}  [main:QuorumPeer@913] - {msg}")
        elif fmt_name == "OpenStack":
            stamp = ts.strftime("%Y-%m-%d %H:%M:%S")
            lines.append(
                f"nova-api.log.1.2017-05-16_13:53:08 {stamp}.008 25746 {level} "
                f"nova.osapi_compute.wsgi.server {msg}"
            )
        else:
            raise ValueError(fmt_name)
        if i % 400 == 7:  # occasional stack-trace continuation
            lines.append("    at java.lang.Thread.run(Thread.java:748)")
    return "\n".join(lines) + "\n"


# --- three-direction synthetic evolution stream -----------------------------

BASE_PHRASES = [
    "database connection pool exhausted retry limit reached primary replica stalled",
    "filesystem checksum mismatch corrupted segment detected during compaction sweep",
    "scheduler queue saturation worker heartbeat missed deadline threshold breached",
]

NOISE_TOKENS = ["alpha", "beta", "delta", "sigma", "kappa", "omega", "lambda"]


def make_evolution_jsonl(days: int = 10, per_kind: int = 20, seed: int = 5):
    """Records for three stable defect families over daily batches.

    Each day each family emits one pure base-phrase log plus noisy variants
    carrying one extra token.
    """
    rng = np.random.default_rng(seed)
    rows = []
    rid = 0
    for day in range(days):
        for kind, phrase in enumerate(BASE_PHRASES):
            base_ts = T0 + timedelta(days=day, hours=kind)
            rows.append((f"r{rid}", base_ts, phrase))
            rid += 1
            for j in range(per_kind):
                noise = NOISE_TOKENS[int(rng.integers(len(NOISE_TOKENS)))]
                rows.append(
                    (f"r{rid}", base_ts + timedelta(minutes=1 + j), f"{phrase} {noise}")
                )
                rid += 1
    return [
        LogRecord.build(rid_, ts, Level.ERROR, text) for rid_, ts, text in rows
    ]


def write_jsonl(path, records):
    """``records`` as the JSONL input of a run, one ERROR row each."""
    with Path(path).open("w") as fh:
        for r in records:
            row = {"id": r.id, "timestamp": r.timestamp.isoformat(), "level": "ERROR",
                   "text": r.raw_text}
            fh.write(json.dumps(row) + "\n")


def write_precomputed(path, table):
    """``table``, id to vector, as a precomputed-vectors file, one JSON row each."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for rid, vec in table.items():
            fh.write(json.dumps({"id": rid, "vector": list(map(float, vec))}) + "\n")
