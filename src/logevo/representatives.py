"""Per-cluster representative extraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyReservoir, TooLarge

LEVENSHTEIN_CAP = 256


@dataclass(frozen=True)
class Representative:
    cluster_id: int
    record_id: str
    score: float
    vector: np.ndarray
    text: str = ""


def representative_by_centroid(cluster) -> Representative:
    """The reservoir member most cosine-similar to the centroid.

    Members are unit rows, so a member's cosine is its dot product with the
    unit centroid; against a zero centroid every member scores 0. Ties break
    toward the earliest reservoir insertion, so repeated calls on an unchanged
    cluster are stable.
    """
    if not cluster.reservoir:
        raise EmptyReservoir(f"cluster {cluster.id} has an empty reservoir")
    cen = cluster.cen
    norm = np.linalg.norm(cen)
    u = cen / norm if norm else cen  # zero for a zero centroid: every member scores 0
    # Row by row: a matrix product may round identical members differently.
    scores = (np.array([vec for _, _, vec in cluster.reservoir]) * u).sum(axis=1)
    best = int(np.argmax(scores))
    rid, text, vec = cluster.reservoir[best]
    return Representative(cluster.id, rid, float(scores[best]), vec, text)


def levenshtein(a: str, b: str) -> int:
    """Classic two-row edit-distance DP."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def representative_by_levenshtein(
    cluster,
    cap: int = LEVENSHTEIN_CAP,
    force: bool = False,
) -> Representative:
    """The medoid under pairwise edit distance.

    Quadratic in both member count and text length, hence the size cap;
    pass force=True to run anyway.
    """
    members = cluster.reservoir
    if not members:
        raise EmptyReservoir(f"cluster {cluster.id} has an empty reservoir")
    if len(members) > cap and not force:
        raise TooLarge(
            f"cluster {cluster.id} reservoir has {len(members)} members (cap {cap})"
        )
    strings = [text for _, text, _ in members]
    n = len(strings)
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = levenshtein(strings[i], strings[j])
            dist[i][j] = dist[j][i] = d
    sums = [sum(row) for row in dist]
    best_idx = min(range(n), key=lambda i: (sums[i], i))
    rid, text, vec = members[best_idx]
    return Representative(cluster.id, rid, -float(sums[best_idx]), vec, text)
