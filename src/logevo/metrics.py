"""Cluster-evolution scoring: scaled silhouette S, representative similarity R,
cluster-count smoothness C, and their weighted combination LCE."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllUndefined, NoSharedClusters, WeightError
from .representatives import Representative

_SILHOUETTE_BLOCK = 1024  # rows of the n x k product held at once


@dataclass
class BatchReport:
    """One batch's result: the clusterer fills in all but the silhouette, which
    scoring adds when the batch closes and drops the points."""

    index: int
    points: list[tuple[np.ndarray, int]]  # (vector, cluster id) ingested this batch
    nr_clust: int  # active clusters at batch end
    reps: dict[int, Representative]
    silhouette_raw: float | None = None
    expired: list[int] = field(default_factory=list)  # ids retired at the batch's start
    sizes: dict[int, int] = field(default_factory=dict)  # len of each reported cluster


BatchMetricInput = BatchReport  # a second name, for callers that build a batch only to score it


@dataclass(frozen=True)
class EvolutionScore:
    S: float
    R: float
    C: float
    weights: tuple[float, float, float]
    lce: float


def silhouette_batch(points: list[tuple[np.ndarray, int]]) -> float | None:
    """Mean silhouette under cosine distance; None when degenerate.

    Points in singleton clusters score 0, matching the usual convention.
    With unit rows x_i and S_L the sum of cluster L's members, the mean
    distance from x_i to another cluster L' is 1 - x_i.S_L'/|L'| and to the
    rest of its own cluster L it is (|L| - x_i.S_L)/(|L| - 1), so the work is
    one n x k product instead of an n x n distance matrix. The unit rows are
    built one block at a time, twice: once for the sums, in row order, and
    once for the scores, so no n x d array is held.
    """
    n = len(points)
    if n < 2:
        return None
    column: dict[int, int] = {}
    labels = np.fromiter(
        (column.setdefault(cid, len(column)) for _, cid in points), dtype=np.intp, count=n
    )
    k = len(column)
    if k < 2:
        return None

    def unit_rows(lo: int) -> np.ndarray:
        X = np.array([v for v, _ in points[lo:lo + _SILHOUETTE_BLOCK]], dtype=float)
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        return X

    starts = range(0, n, _SILHOUETTE_BLOCK)
    sums = np.zeros((k, len(points[0][0])))
    for lo in starts:
        np.add.at(sums, labels[lo:lo + _SILHOUETTE_BLOCK], unit_rows(lo))
    counts = np.bincount(labels, minlength=k).astype(float)
    own_count = counts[labels]
    scores = np.zeros(n)
    for lo in starts:
        rows = slice(lo, lo + _SILHOUETTE_BLOCK)
        own, size = labels[rows], own_count[rows]
        at = np.arange(len(own))
        dots = unit_rows(lo) @ sums.T  # block x k
        mean_dist = 1.0 - dots / counts
        mean_dist[at, own] = np.inf
        b = mean_dist.min(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            # NaN for singletons. A mean distance is never negative, but x.x can
            # round to 1 + 2**-52: unclipped, identical members would score above 1.
            a = np.maximum((size - dots[at, own]) / (size - 1.0), 0.0)
            denom = np.maximum(a, b)
            scores[rows] = np.where((size == 1.0) | (denom == 0.0), 0.0, (b - a) / denom)
    return float(scores.mean())


@dataclass(frozen=True)
class BatchTerms:
    """A batch's S, R and C terms. None where undefined: S without a silhouette,
    R and C on the first batch, R when it shares no cluster id with the one before.
    """

    S: float | None
    R: float | None
    C: float | None


def _s_term(silhouette_raw: float | None) -> float | None:
    return None if silhouette_raw is None else (silhouette_raw + 1.0) / 2.0


def _r_term(prev: dict[int, Representative], cur: dict[int, Representative]) -> float | None:
    """Mean similarity of the representatives two batches share by cluster id.

    Each similarity is a dot product of unit vectors, clipped into [0, 1]:
    opposed representatives count 0, and x.x can round to 1 + 2**-52.
    """
    shared = sorted(prev.keys() & cur.keys())
    if not shared:
        return None
    left = np.array([prev[c].vector for c in shared])
    right = np.array([cur[c].vector for c in shared])
    return float(np.clip(np.einsum("ij,ij->i", left, right), 0.0, 1.0).mean())


def _c_term(prev: int, cur: int) -> float:
    """1 - |delta| / max of two cluster counts; two empty batches count as no change."""
    return 1.0 if prev == cur == 0 else 1.0 - abs(cur - prev) / max(cur, prev)


def terms_of(cur: BatchReport, prev: BatchReport | None) -> BatchTerms:
    """A batch's terms, given the batch before it (None for the first): what
    metrics.csv writes and S, R, C average."""
    return BatchTerms(
        _s_term(cur.silhouette_raw),
        None if prev is None else _r_term(prev.reps, cur.reps),
        None if prev is None else _c_term(prev.nr_clust, cur.nr_clust),
    )


def _mean_S(terms: list[float | None]) -> float:
    defined = [t for t in terms if t is not None]
    if not defined:
        raise AllUndefined("no batch has a defined silhouette")
    return float(np.mean(defined))


def _mean_R(pair_terms: list[float | None]) -> float:
    if not pair_terms:
        raise NoSharedClusters("need at least two batches")
    defined = [t for t in pair_terms if t is not None]
    if not defined:
        raise NoSharedClusters("no consecutive batch pair shares a cluster id")
    return float(np.mean(defined))


def score_S(batches: list[BatchReport]) -> float:
    """Mean S term over batches with a defined silhouette."""
    return _mean_S([_s_term(b.silhouette_raw) for b in batches])


def score_R(batches: list[BatchReport]) -> float:
    """Mean R term over consecutive batch pairs that share a cluster id."""
    return _mean_R([_r_term(prev.reps, cur.reps) for prev, cur in zip(batches, batches[1:])])


def score_C(counts: list[int]) -> float:
    """Mean C term: the smoothness of the cluster-count trajectory."""
    if len(counts) < 2:
        raise ValueError("need at least two batch counts")
    return float(np.mean([_c_term(prev, cur) for prev, cur in zip(counts, counts[1:])]))


def score_series(series: list[BatchTerms], weights: tuple[float, float, float]) -> EvolutionScore:
    """LCE of a term series: S, R and C are the means of its defined terms."""
    pairs = series[1:]  # C is defined on each of them
    S, R = _mean_S([t.S for t in series]), _mean_R([t.R for t in pairs])
    return score_LCE(S, R, float(np.mean([t.C for t in pairs])), weights)


def score_LCE(
    S: float,
    R: float,
    C: float,
    weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3),
) -> EvolutionScore:
    wS, wR, wC = weights
    if not (min(wS, wR, wC) >= 0 and abs(wS + wR + wC - 1.0) <= 1e-9):  # NaN fails too
        raise WeightError(f"weights must be nonnegative and sum to 1, got {weights}")
    for name, value in (("S", S), ("R", R), ("C", C)):
        if not 0.0 <= value <= 1.0:
            raise WeightError(f"component {name}={value} outside [0, 1]")
    return EvolutionScore(S, R, C, (wS, wR, wC), wS * S + wR * R + wC * C)
