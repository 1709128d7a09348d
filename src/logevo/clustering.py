"""Online clustering of embedded logs.

Each incoming point merges into the nearest active cluster by cosine
distance when within the acceptance threshold, otherwise opens a new
cluster. Centroids follow a rolling mean until the cluster reaches the
minimum size, then switch to an exponential moving average so mature
clusters drift slowly. Clusters untouched for the staleness window are
retired from assignment and the census.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import deque
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .metrics import BatchReport
from .records import Batch, LogRecord
from .representatives import Representative, representative_by_centroid

# Distances this close to the minimum are re-scored one by one (nearest_cluster).
_TIE_SLACK = 1e-9
# ClusterState.save stops learning float texts once it holds this many, which
# bounds its memory when values do not repeat.
_SAVE_TEXTS = 2048


@dataclass(frozen=True)
class HyperParams:
    theta: float = 0.05
    alpha: float = 0.1
    gamma: int = 100
    staleness: timedelta = timedelta(days=30)
    reservoir_cap: int = 512

    def __post_init__(self):
        if not 0.0 <= self.theta <= 2.0:
            raise ValueError("theta must be in [0, 2]")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.gamma < 1 or not 1 <= self.reservoir_cap <= sys.maxsize:  # a deque's maxlen
            raise ValueError(f"gamma must be positive and reservoir_cap in [1, {sys.maxsize}]")
        if self.staleness <= timedelta(0):
            raise ValueError("staleness must be positive")


class Cluster:
    """One cluster of a ``ClusterState``, which is the only code that changes it.

    While the cluster is active its centroid is a row of the state's centroid
    array, the one place it is stored; ``cen`` reads a copy of that row. A
    retired cluster keeps only its history, its id, size and first and last
    times seen: retiring frees its centroid, so ``cen`` reads None, and its
    reservoir, which reads None too.
    """

    def __init__(self, id: int, len: int, created_at: datetime, last_updated: datetime,
                 reservoir: deque | None):
        self.id = id
        self.len = len
        self.created_at = created_at
        self.last_updated = last_updated
        # (record id, scrubbed text, vector), the newest ``reservoir_cap`` members, oldest first.
        self.reservoir: deque[tuple[str, str, np.ndarray]] | None = reservoir
        self._state: ClusterState | None = None
        self._row: int | None = None  # row in the state's centroid array while active

    @property
    def cen(self) -> np.ndarray | None:
        if self._row is None:
            return None
        return self._state._cen[self._row].copy()

    @property
    def active(self) -> bool:
        return self._row is not None


@dataclass(frozen=True)
class AssignmentOutcome:
    cluster_id: int
    was_new: bool
    distance: float


class ClusterState:
    """Every cluster ever opened, plus the centroids of the active ones.

    Cluster ids are dense: ``clusters[i].id == i``. The active centroids are
    the first ``len(self._rows)`` rows of one array, in id order, with their
    inverse norms cached, so the nearest active cluster is one matrix-vector product
    and, among equally near rows, the first is the oldest id. The array
    doubles its capacity when it fills; expiry compacts it.
    """

    _INITIAL_CAPACITY = 16

    def __init__(self, params: HyperParams | None = None):
        self.params = params or HyperParams()
        self.clusters: list[Cluster] = []
        self._rows: list[Cluster] = []  # active clusters, row order = id order
        self._cen = np.empty((0, 0))
        self._inv = np.empty(0)  # 1 / |centroid| per row, NaN for a zero centroid
        # The last batch's rule, {id: Representative} and {id: size}.
        self._last: tuple[Callable | None, dict, dict] = (None, {}, {})
        # What the run that fills the state records of the embedding its
        # centroids live in (pipeline.prepare); None when unknown.
        self.embedding: dict | None = None

    @property
    def next_id(self) -> int:
        """The id the next opened cluster gets; ids are dense."""
        return len(self.clusters)

    def active_clusters(self) -> list[Cluster]:
        return list(self._rows)

    def get(self, cluster_id: int) -> Cluster:
        if 0 <= cluster_id < len(self.clusters):
            return self.clusters[cluster_id]
        raise KeyError(cluster_id)

    # -- the centroid array --------------------------------------------------

    def _attach(self, cluster: Cluster, cen: np.ndarray) -> None:
        """Append the row of a cluster newer than every active one."""
        n = len(self._rows)
        if n == len(self._inv) or (n == 0 and self._cen.shape[1] != cen.shape[0]):
            capacity = max(2 * n, self._INITIAL_CAPACITY)
            grown, inv = np.empty((capacity, cen.shape[0])), np.empty(capacity)
            if n:
                grown[:n], inv[:n] = self._cen[:n], self._inv[:n]
            self._cen, self._inv = grown, inv
        self._rows.append(cluster)
        cluster._state, cluster._row = self, n
        self._cen[n] = cen
        self._inv[n] = _inverse_norm(self._cen[n])

    def _detach(self, retired: list[Cluster]) -> None:
        """Drop retired clusters' rows, compacting the array, and free their reservoirs."""
        n = len(self._rows)
        keep = np.ones(n, dtype=bool)
        for c in retired:
            keep[c._row] = False
            c._state, c._row, c.reservoir = None, None, None
        self._rows = [c for c in self._rows if c._row is not None]
        m = len(self._rows)
        self._cen[:m] = self._cen[:n][keep]
        self._inv[:m] = self._inv[:n][keep]
        for row, c in enumerate(self._rows):
            c._row = row

    def nearest_cluster(self, p: np.ndarray) -> tuple[int | None, float]:
        """Nearest active cluster by cosine distance; oldest id wins ties.
        (None, inf) when no active cluster has a defined distance."""
        n = len(self._rows)
        p_norm = math.sqrt(p @ p)
        if n == 0 or p_norm == 0.0:
            return None, np.inf
        sim = (self._cen[:n] @ p) * self._inv[:n]  # cosine times |p|; NaN for a zero row
        best = np.fmax.reduce(sim)  # skips the NaN; NaN when every row is
        # The matrix product may round equal rows differently, so the rows
        # within a hair of the maximum are scored again one by one, in id
        # order, exactly as a plain loop over the clusters would.
        best_id, best_dist = None, np.inf
        for row in (sim >= best - _TIE_SLACK * p_norm).nonzero()[0].tolist():
            c = self._cen[row]
            d = 1.0 - float(c @ p) / (math.sqrt(c @ c) * p_norm)
            if d < best_dist:
                best_id, best_dist = self._rows[row].id, d
        return best_id, best_dist

    # -- assignment ----------------------------------------------------------

    def ingest_point(self, record: LogRecord, p: np.ndarray) -> AssignmentOutcome:
        params = self.params
        cid, dist = self.nearest_cluster(p)
        if cid is not None and dist <= params.theta:
            c = self.clusters[cid]
            row = self._cen[c._row]
            keep, add = ((1.0 - params.alpha, params.alpha) if c.len >= params.gamma
                         else (c.len / (c.len + 1), 1.0 / (c.len + 1)))
            row *= keep
            row += add * p
            self._inv[c._row] = _inverse_norm(row)
            c.len += 1
            c.last_updated = record.timestamp
            c.reservoir.append((record.id, record.scrubbed_text, p))
            return AssignmentOutcome(cid, False, dist)

        member = deque([(record.id, record.scrubbed_text, p)], maxlen=params.reservoir_cap)
        c = Cluster(self.next_id, 1, record.timestamp, record.timestamp, member)
        self.clusters.append(c)
        self._attach(c, p)
        return AssignmentOutcome(c.id, True, dist)

    def expire_stale(self, now: datetime) -> list[int]:
        """Retire active clusters idle longer than the staleness window."""
        # now - staleness can fall before the first representable date for a
        # long staleness; a difference of two times cannot.
        retired = [c for c in self._rows if now - c.last_updated > self.params.staleness]
        if retired:
            self._detach(retired)
        return [c.id for c in retired]

    def process_batch(
        self,
        batch: Batch,
        vectors: np.ndarray,
        pick: Callable[[Cluster], Representative] | None = None,
    ) -> BatchReport:
        """Expire stale clusters, ingest the batch in order, report the census.

        ``vectors`` holds one unit row per record of ``batch``, in order; the
        points and reservoir members it adds are views of those rows. Expiry
        runs only at the batch boundary so in-batch behavior is clock-independent.
        ``pick`` chooses a cluster's representative, by default the reservoir
        member nearest the centroid. Every merge grows a cluster, so one whose
        size the last batch reported keeps its representative, unless ``pick`` changed.
        """
        expired = self.expire_stale(batch.start)
        points = [
            (vec, self.ingest_point(record, vec).cluster_id)
            for record, vec in zip(batch.records, vectors)
        ]
        if pick is None:
            pick = representative_by_centroid
        last_pick, last_reps, last_sizes = self._last
        reps, sizes = {}, {}
        for c in self._rows:
            reuse = pick is last_pick and last_sizes.get(c.id) == c.len
            reps[c.id] = last_reps[c.id] if reuse else pick(c)
            sizes[c.id] = c.len
        self._last = (pick, reps, sizes)
        return BatchReport(
            index=batch.index,
            points=points,
            nr_clust=len(self._rows),
            reps=reps,
            expired=expired,
            sizes=sizes,
        )

    # -- persistence ---------------------------------------------------------

    def to_snapshot(self) -> dict:
        """Params, embedding, next id and one row per cluster. An active row carries
        the centroid and the reservoir; a retired row only the cluster's history."""
        rows = [_snapshot_row(c) for c in self.clusters]
        for c, row in zip(self.clusters, rows):
            if c.active:
                row["reservoir_vectors"] = [v.tolist() for v in _member_vectors(c)]
        return {**self._snapshot_head(), "clusters": rows}

    def _snapshot_head(self) -> dict:
        """The snapshot's keys before ``clusters``, which comes last."""
        # HyperParams' fields in order, with staleness as whole microseconds in its place.
        params = {("staleness_us" if k == "staleness" else k): v
                  for k, v in asdict(self.params).items()}
        params["staleness_us"] //= timedelta(microseconds=1)
        return {
            "params": params,
            "embedding": self.embedding,
            "next_id": self.next_id,
        }

    @classmethod
    def from_snapshot(cls, doc: dict) -> "ClusterState":
        """The state a snapshot holds; a damaged snapshot raises ValueError."""
        try:
            return cls._from_snapshot(doc)
        except KeyError as exc:
            raise ValueError(f"snapshot: missing key {exc}") from exc
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"snapshot: {exc}") from exc

    @classmethod
    def _from_snapshot(cls, doc: dict) -> "ClusterState":
        p = doc["params"]
        try:  # a value out of range, or a staleness past timedelta's
            # Older snapshots hold float seconds, exact only up to 2**53 microseconds.
            staleness = (timedelta(microseconds=p["staleness_us"]) if "staleness_us" in p
                         else timedelta(seconds=p["staleness_seconds"]))
            state = cls(HyperParams(**{
                f.name: staleness if f.name == "staleness" else p[f.name]
                for f in fields(HyperParams)
            }))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"snapshot: params: {exc}") from exc
        # Older snapshots record no embedding.
        state.embedding = doc.get("embedding")
        if not isinstance(state.embedding, (dict, type(None))):
            raise ValueError(f"snapshot embedding {state.embedding!r} is not an object")
        cap = state.params.reservoir_cap
        # A retired row written by an older version may still carry a centroid
        # and a reservoir; they are ignored.
        for cd in doc["clusters"]:
            cid, n, active = cd["id"], cd["len"], cd["active"]
            if type(cid) is not int or cid != len(state.clusters):  # a bool is an int to Python
                raise ValueError(f"snapshot cluster ids are not 0, 1, 2, ...: found {cid}")
            try:  # a value that cannot be read, in Python's own words where it has them
                if type(n) is not int or n < 1:
                    raise ValueError(f"len {n!r} is not a positive integer")
                if type(active) is not bool:
                    raise ValueError(f"active {active!r} is not true or false")
                created_at, last_updated = (
                    datetime.fromisoformat(cd[k]).astimezone(timezone.utc)
                    for k in ("created_at", "last_updated")
                )
                cen = np.array(cd["cen"], dtype=float) if active else None  # null reads as NaN
                if cen is not None and not (cen.ndim == 1 and np.isfinite(cen).all()):
                    raise ValueError("centroid is not a list of numbers")
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"snapshot cluster {cid}: {exc}") from exc
            cluster = Cluster(cid, n, created_at, last_updated, None)
            state.clusters.append(cluster)
            if cen is not None:
                if state._rows and len(cen) != state._cen.shape[1]:
                    raise ValueError(
                        f"snapshot cluster {cid}: centroid dimension {len(cen)} is not the "
                        f"first active row's {state._cen.shape[1]}"
                    )
                ids, texts = cd["reservoir_ids"], cd.get("reservoir_texts")
                try:  # one (members, d) array; a ragged list raises, a missing one is shape ()
                    vectors = np.array(cd.get("reservoir_vectors"), dtype=float)
                except (TypeError, ValueError):
                    vectors = np.empty(0)
                # A resumed run writes its representatives from these texts.
                if not (type(ids) is type(texts) is list and 0 < len(ids) == len(texts)
                        and len(ids) <= min(n, cap) and all(type(s) is str for s in ids + texts)
                        and vectors.shape == (len(ids), len(cen)) and np.isfinite(vectors).all()):
                    raise ValueError(
                        f"snapshot cluster {cid} needs from 1 to min(len, reservoir_cap) = "
                        f"{min(n, cap)} reservoir ids, each a string with a string text and a "
                        f"finite vector of its centroid's dimension; it has {len(ids)} ids"
                    )
                cluster.reservoir = deque(zip(ids, texts, vectors), maxlen=cap)
                state._attach(cluster, cen)
        if doc["next_id"] != len(state.clusters):
            raise ValueError(
                f"snapshot next_id {doc['next_id']} does not follow its "
                f"{len(state.clusters)} clusters"
            )
        return state

    def save(self, path: str | Path) -> None:
        """Write ``json.dumps(self.to_snapshot(), separators=(",", ":"))``, one
        cluster row at a time and an active row's reservoir vectors one member
        at a time, so no more than one member's vector is encoded at once.

        Each distinct value's text is computed once per save. The encoder's
        output for a member teaches a table each of its values' text, until
        the table holds ``_SAVE_TEXTS`` values; a member whose values the table
        all holds is written from it, so the bytes are unchanged. Hashing
        rows, ±k/|r|, take few distinct values.

        The rows go to a temporary file beside ``path``, which replaces it only
        when complete: a save that fails leaves the previous snapshot whole.
        """
        # Compact: with ``indent`` the json module falls back to its pure-Python encoder.
        encode = json.JSONEncoder(separators=(",", ":")).encode
        # A float's 64-bit pattern -> its text; not the float, since 0.0 == -0.0.
        texts: dict[int, str] = {}

        def member_text(vector: np.ndarray) -> str:
            bits = memoryview(vector).cast("B").cast("q")  # ints made as they are read
            # Where values do not repeat, the first misses: a lookup is cheaper than a KeyError.
            if not bits or bits[0] in texts:
                try:
                    return "[" + ",".join(map(texts.__getitem__, bits)) + "]"
                except KeyError:
                    pass
            text = encode(vector.tolist())
            if len(texts) < _SAVE_TEXTS:
                texts.update(zip(bits, text[1:-1].split(",")))
            return text

        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                fh.write(encode({**self._snapshot_head(), "clusters": []})[:-2])  # cut "]}"
                for i, c in enumerate(self.clusters):
                    fh.write("," if i else "")
                    row = encode(_snapshot_row(c))
                    if not c.active:
                        fh.write(row)
                        continue
                    fh.write(row[:-2])  # cut the empty reservoir_vectors' "]}"
                    for j, vector in enumerate(_member_vectors(c)):
                        fh.write(("," if j else "") + member_text(vector))
                    fh.write("]}")
                fh.write("]}")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "ClusterState":
        text = Path(path).read_text(encoding="utf-8", errors="replace")
        try:
            doc = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
            raise ValueError(f"snapshot: {path} is not JSON: {exc}") from exc
        return cls.from_snapshot(doc)


def _inverse_norm(row: np.ndarray) -> float:
    """1 / |row|, with |row| in np.linalg.norm's own arithmetic; NaN for a zero
    row, to which no distance is defined."""
    norm = math.sqrt(row @ row)
    return 1.0 / norm if norm else math.nan


def _snapshot_row(c: Cluster) -> dict:
    """A cluster's snapshot row, with an active row's last key,
    ``reservoir_vectors``, left empty: ``_member_vectors`` gives its members."""
    row = {
        "id": c.id,
        "len": c.len,
        "created_at": c.created_at.isoformat(),
        "last_updated": c.last_updated.isoformat(),
        "active": c.active,
    }
    if c.active:
        row.update(
            cen=c.cen.tolist(),
            reservoir_ids=[rid for rid, _, _ in c.reservoir],
            reservoir_texts=[text for _, text, _ in c.reservoir],
            reservoir_vectors=[],
        )
    return row


def _member_vectors(c: Cluster):
    """Each reservoir member's vector as a contiguous float array, oldest first."""
    return (np.ascontiguousarray(vec, dtype=float) for *_, vec in c.reservoir)
