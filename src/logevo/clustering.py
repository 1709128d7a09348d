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
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .errors import NoActiveClusters
from .records import Batch, LogRecord
from .representatives import Representative, representative_by_centroid

# Distances this close to the minimum are re-scored one by one (nearest_cluster).
_TIE_SLACK = 1e-9


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
        if self.gamma < 1 or self.reservoir_cap < 1:
            raise ValueError("gamma and reservoir_cap must be positive integers")
        if self.staleness <= timedelta(0):
            raise ValueError("staleness must be positive")


class Cluster:
    """One cluster of a ``ClusterState``.

    While the cluster is active its centroid is a row of the state's centroid
    array, the one place it is stored; ``cen`` reads a copy of that row and
    assigning ``cen`` writes the row. A retired cluster keeps only its history,
    its id, size and first and last times seen: retiring frees its centroid,
    so ``cen`` reads None and cannot be assigned, and empties its reservoir.
    """

    def __init__(self, id: int, len: int, created_at: datetime, last_updated: datetime, cap: int):
        self.id = id
        self.len = len
        self.created_at = created_at
        self.last_updated = last_updated
        # (record id, scrubbed text, vector), the most recent ``cap`` members, oldest first.
        self.reservoir: deque[tuple[str, str, np.ndarray]] = deque(maxlen=cap)
        self._state: ClusterState | None = None
        self._row: int | None = None  # row in the state's centroid array while active

    @property
    def cen(self) -> np.ndarray | None:
        if self._row is None:
            return None
        return self._state._cen[self._row].copy()

    @cen.setter
    def cen(self, value: np.ndarray) -> None:
        if self._row is None:
            raise ValueError(f"cluster {self.id} is retired and has no centroid")
        self._state._write_row(self._row, value)
        self._state._stale_reps.add(self.id)

    @property
    def active(self) -> bool:
        return self._row is not None

    @active.setter
    def active(self, value: bool) -> None:
        if value and self._row is None:
            raise ValueError(f"cluster {self.id} is retired; a returning defect opens a new one")
        if not value and self._row is not None:
            self._state._detach([self])


@dataclass(frozen=True)
class AssignmentOutcome:
    record_id: str
    cluster_id: int
    was_new: bool
    distance: float


@dataclass
class BatchReport:
    index: int
    points: list[tuple[np.ndarray, int]]  # (vector, assigned cluster id)
    nr_clust: int  # active clusters at batch end
    reps: dict[int, Representative]
    expired: list[int]
    sizes: dict[int, int] = field(default_factory=dict)  # len of each reported cluster


class ClusterState:
    """Every cluster ever opened, plus the centroids of the active ones.

    Cluster ids are dense: ``clusters[i].id == i``. The active centroids are
    the first ``len(self._rows)`` rows of one array, in id order, with their
    norms cached, so the nearest active cluster is one matrix-vector product
    and, among equally near rows, the first is the oldest id. The array
    doubles its capacity when it fills; expiry compacts it.
    """

    _INITIAL_CAPACITY = 16

    def __init__(self, params: HyperParams | None = None):
        self.params = params or HyperParams()
        self.clusters: list[Cluster] = []
        self._rows: list[Cluster] = []  # active clusters, row order = id order
        self._cen = np.empty((0, 0))
        self._norm = np.empty(0)
        # Representatives of the last batch, the picker that chose them, and
        # the ids whose centroid or reservoir changed since.
        self._reps: dict[int, Representative] = {}
        self._rep_pick: Callable | None = None
        self._stale_reps: set[int] = set()

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

    def _write_row(self, row: int, value: np.ndarray) -> None:
        self._cen[row] = value
        self._norm[row] = np.linalg.norm(self._cen[row])

    def _attach(self, cluster: Cluster, cen: np.ndarray) -> None:
        """Append the row of a cluster newer than every active one."""
        n = len(self._rows)
        if n == len(self._norm) or (n == 0 and self._cen.shape[1] != cen.shape[0]):
            capacity = max(2 * n, self._INITIAL_CAPACITY)
            grown, norms = np.empty((capacity, cen.shape[0])), np.empty(capacity)
            if n:
                grown[:n], norms[:n] = self._cen[:n], self._norm[:n]
            self._cen, self._norm = grown, norms
        self._rows.append(cluster)
        cluster._state, cluster._row = self, n
        self._write_row(n, cen)

    def _detach(self, retired: list[Cluster]) -> None:
        """Drop retired clusters' rows, compacting the array, and free their reservoirs."""
        n = len(self._rows)
        keep = np.ones(n, dtype=bool)
        for c in retired:
            keep[c._row] = False
            c._state, c._row = None, None
            c.reservoir.clear()
        self._rows = [c for c in self._rows if c._row is not None]
        m = len(self._rows)
        self._cen[:m] = self._cen[:n][keep]
        self._norm[:m] = self._norm[:n][keep]
        for row, c in enumerate(self._rows):
            c._row = row

    def nearest_cluster(self, p: np.ndarray) -> tuple[int, float]:
        """Nearest active cluster by cosine distance; oldest id wins ties."""
        n = len(self._rows)
        if n == 0:
            raise NoActiveClusters("no active clusters")
        p_norm = np.linalg.norm(p)
        with np.errstate(invalid="ignore"):  # a zero centroid gives 0/0
            dist = 1.0 - (self._cen[:n] @ p) / (self._norm[:n] * p_norm)
        best = np.fmin.reduce(dist)  # skips the NaN
        if np.isnan(best):
            raise NoActiveClusters("no active cluster has a defined distance")
        # The matrix product may round equal rows differently, so the rows
        # within a hair of the minimum are scored again one by one, in id
        # order, exactly as a plain loop over the clusters would.
        near = np.flatnonzero(dist <= best + _TIE_SLACK)
        best_row, best_dist = -1, np.inf
        for row in near.tolist():
            d = 1.0 - float(np.dot(self._cen[row], p) / (self._norm[row] * p_norm))
            if d < best_dist:
                best_row, best_dist = row, d
        return self._rows[best_row].id, best_dist

    # -- assignment ----------------------------------------------------------

    def ingest_point(self, record: LogRecord, p: np.ndarray) -> AssignmentOutcome:
        params = self.params
        try:
            cid, dist = self.nearest_cluster(p)
        except NoActiveClusters:
            cid, dist = None, np.inf

        if cid is not None and dist <= params.theta:
            c = self.clusters[cid]
            row = self._cen[c._row]
            if c.len >= params.gamma:
                row *= 1.0 - params.alpha
                row += params.alpha * p
            else:
                row *= c.len / (c.len + 1)
                row += (1.0 / (c.len + 1)) * p
            self._norm[c._row] = np.linalg.norm(row)
            c.len += 1
            c.last_updated = record.timestamp
            c.reservoir.append((record.id, record.scrubbed_text, p))
            self._stale_reps.add(cid)
            return AssignmentOutcome(record.id, cid, False, dist)

        c = Cluster(self.next_id, 1, record.timestamp, record.timestamp, params.reservoir_cap)
        c.reservoir.append((record.id, record.scrubbed_text, p))
        self.clusters.append(c)
        self._attach(c, p)
        return AssignmentOutcome(record.id, c.id, True, dist)

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
        vectors: list[np.ndarray],
        pick: Callable[[Cluster], Representative] | None = None,
    ) -> BatchReport:
        """Expire stale clusters, ingest the batch in order, report the census.

        ``vectors`` aligns one-to-one with ``batch.records``. Expiry runs only
        at the batch boundary so in-batch behavior is clock-independent.
        ``pick`` chooses a cluster's representative, by default the reservoir
        member nearest the centroid. A cluster whose centroid and reservoir
        did not change since the last batch keeps its representative.
        """
        expired = self.expire_stale(batch.start)
        points = [
            (vec, self.ingest_point(record, vec).cluster_id)
            for record, vec in zip(batch.records, vectors)
        ]
        active = self._rows
        if pick is None:
            pick = representative_by_centroid
        previous = self._reps if pick is self._rep_pick else {}
        reps = {}
        for c in active:
            if c.reservoir:
                rep = None if c.id in self._stale_reps else previous.get(c.id)
                reps[c.id] = rep if rep is not None else pick(c)
        self._reps, self._rep_pick = reps, pick
        self._stale_reps.clear()
        return BatchReport(
            index=batch.index,
            points=points,
            nr_clust=len(active),
            reps=reps,
            expired=expired,
            sizes={cid: self.clusters[cid].len for cid in reps},
        )

    # -- persistence ---------------------------------------------------------

    def to_snapshot(self) -> dict:
        """Params, next id and one row per cluster. An active row carries the
        centroid and the reservoir; a retired row only the cluster's history."""
        return {
            "params": {
                "theta": self.params.theta,
                "alpha": self.params.alpha,
                "gamma": self.params.gamma,
                "staleness_seconds": self.params.staleness.total_seconds(),
                "reservoir_cap": self.params.reservoir_cap,
            },
            "next_id": self.next_id,
            "clusters": [_snapshot_row(c) for c in self.clusters],
        }

    @classmethod
    def from_snapshot(cls, doc: dict) -> "ClusterState":
        p = doc["params"]
        state = cls(
            HyperParams(
                theta=p["theta"],
                alpha=p["alpha"],
                gamma=p["gamma"],
                staleness=timedelta(seconds=p["staleness_seconds"]),
                reservoir_cap=p["reservoir_cap"],
            )
        )
        # A retired row written by an older version may still carry a centroid
        # and a reservoir; they are ignored.
        for cd in doc["clusters"]:
            if cd["id"] != len(state.clusters):
                raise ValueError(f"snapshot cluster ids are not 0, 1, 2, ...: found {cd['id']}")
            cluster = Cluster(
                id=cd["id"],
                len=cd["len"],
                created_at=datetime.fromisoformat(cd["created_at"]).astimezone(timezone.utc),
                last_updated=datetime.fromisoformat(cd["last_updated"]).astimezone(timezone.utc),
                cap=state.params.reservoir_cap,
            )
            state.clusters.append(cluster)
            if cd["active"]:
                cen = np.array(cd["cen"], dtype=float)
                ids, texts = cd["reservoir_ids"], cd.get("reservoir_texts")
                vectors = cd.get("reservoir_vectors")
                reservoir = [(rid, text, np.array(vec, dtype=float))
                             for rid, text, vec in zip(ids, texts or (), vectors or ())]
                # A resumed run writes its representatives from these texts.
                if texts is None or vectors is None or not len(ids) == len(texts) == len(vectors) or any(
                    vec.shape != cen.shape for *_, vec in reservoir
                ):
                    raise ValueError(
                        f"snapshot cluster {cd['id']} needs one reservoir text and one reservoir "
                        f"vector of its centroid's dimension for each of its {len(ids)} reservoir ids"
                    )
                cluster.reservoir.extend(reservoir)
                state._attach(cluster, cen)
        if doc["next_id"] != len(state.clusters):
            raise ValueError(
                f"snapshot next_id {doc['next_id']} does not follow its "
                f"{len(state.clusters)} clusters"
            )
        return state

    def save(self, path: str | Path) -> None:
        # Compact: with ``indent`` the json module falls back to its pure-Python encoder.
        Path(path).write_text(
            json.dumps(self.to_snapshot(), separators=(",", ":")), encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "ClusterState":
        return cls.from_snapshot(json.loads(Path(path).read_text(encoding="utf-8")))


def _snapshot_row(c: Cluster) -> dict:
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
            reservoir_vectors=[np.asarray(vec, dtype=float).tolist() for *_, vec in c.reservoir],
        )
    return row
