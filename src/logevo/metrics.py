"""Cluster-evolution scoring: scaled silhouette S, representative similarity R,
cluster-count smoothness C, and their weighted combination LCE."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllUndefined, NoSharedClusters, WeightError
from .representatives import Representative

UNDEFINED = None  # silhouette sentinel for degenerate batches
_SILHOUETTE_BLOCK = 1024  # rows of the n x k product held at once


@dataclass(frozen=True)
class BatchMetricInput:
    index: int
    points: list[tuple[np.ndarray, int]]  # (vector, cluster id) ingested this batch
    nr_clust: int  # active clusters at batch end
    reps: dict[int, Representative]
    silhouette_raw: float | None = None


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
    one n x k product instead of an n x n distance matrix.
    """
    n = len(points)
    if n < 2:
        return UNDEFINED
    column: dict[int, int] = {}
    labels = np.fromiter(
        (column.setdefault(cid, len(column)) for _, cid in points), dtype=np.intp, count=n
    )
    k = len(column)
    if k < 2:
        return UNDEFINED
    X = np.array([v for v, _ in points], dtype=float)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    sums = np.zeros((k, X.shape[1]))
    np.add.at(sums, labels, X)
    counts = np.bincount(labels, minlength=k).astype(float)
    own_count = counts[labels]
    scores = np.zeros(n)
    for lo in range(0, n, _SILHOUETTE_BLOCK):
        rows = slice(lo, lo + _SILHOUETTE_BLOCK)
        own, size = labels[rows], own_count[rows]
        at = np.arange(len(own))
        dots = X[rows] @ sums.T  # block x k
        mean_dist = 1.0 - dots / counts
        mean_dist[at, own] = np.inf
        b = mean_dist.min(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            a = (size - dots[at, own]) / (size - 1.0)  # NaN for singletons
            denom = np.maximum(a, b)
            scores[rows] = np.where((size == 1.0) | (denom == 0.0), 0.0, (b - a) / denom)
    return float(scores.mean())


def score_S(batches: list[BatchMetricInput]) -> float:
    """Mean of (silhouette+1)/2 over batches with a defined silhouette."""
    defined = [b.silhouette_raw for b in batches if b.silhouette_raw is not None]
    if not defined:
        raise AllUndefined("no batch has a defined silhouette")
    return float(np.mean([(s + 1.0) / 2.0 for s in defined]))


def _clamped_cos(a: np.ndarray, b: np.ndarray) -> float:
    sim = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return max(sim, 0.0)


def score_R(batches: list[BatchMetricInput], batch_mean: bool = False) -> float:
    """Mean representative similarity across consecutive batch pairs.

    Representatives pair by persistent cluster id; pairs sharing no id are
    excluded. batch_mean=True compares mean representative vectors instead.
    """
    if len(batches) < 2:
        raise NoSharedClusters("need at least two batches")
    pair_scores = []
    for prev, cur in zip(batches, batches[1:]):
        if batch_mean:
            if not prev.reps or not cur.reps:
                continue
            left = np.mean([r.vector for r in prev.reps.values()], axis=0)
            right = np.mean([r.vector for r in cur.reps.values()], axis=0)
            pair_scores.append(_clamped_cos(left, right))
            continue
        shared = sorted(set(prev.reps) & set(cur.reps))
        if not shared:
            continue
        pair_scores.append(
            float(
                np.mean(
                    [_clamped_cos(prev.reps[c].vector, cur.reps[c].vector) for c in shared]
                )
            )
        )
    if not pair_scores:
        raise NoSharedClusters("no consecutive batch pair shares a cluster id")
    return float(np.mean(pair_scores))


def score_C(counts: list[int]) -> float:
    """Smoothness of the cluster-count trajectory.

    Each consecutive pair contributes |delta| / max; two empty batches count
    as no change, one empty batch as total disruption.
    """
    if len(counts) < 2:
        raise ValueError("need at least two batch counts")
    terms = []
    for prev, cur in zip(counts, counts[1:]):
        if prev == 0 and cur == 0:
            terms.append(0.0)
        else:
            terms.append(abs(cur - prev) / max(cur, prev))
    return 1.0 - float(np.mean(terms))


def score_LCE(
    S: float,
    R: float,
    C: float,
    weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3),
) -> EvolutionScore:
    wS, wR, wC = weights
    if min(wS, wR, wC) < 0 or abs(wS + wR + wC - 1.0) > 1e-9:
        raise WeightError(f"weights must be nonnegative and sum to 1, got {weights}")
    for name, value in (("S", S), ("R", R), ("C", C)):
        if not 0.0 <= value <= 1.0:
            raise WeightError(f"component {name}={value} outside [0, 1]")
    return EvolutionScore(S, R, C, (wS, wR, wC), wS * S + wR * R + wC * C)
