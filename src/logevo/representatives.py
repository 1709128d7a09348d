"""Per-cluster representative extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    cen = cluster.cen
    norm = math.sqrt(cen @ cen)  # np.linalg.norm's arithmetic, as clustering._inverse_norm
    u = cen / norm if norm else cen  # zero for a zero centroid: every member scores 0
    # Row by row: a matrix product may round identical members differently.
    scores = (np.array([vec for _, _, vec in cluster.reservoir]) * u).sum(axis=1)
    best = int(np.argmax(scores))
    rid, text, vec = cluster.reservoir[best]
    return Representative(cluster.id, rid, float(scores[best]), vec, text)


def levenshtein(a: str, b: str) -> int:
    """Edit distance by Myers/Hyyrö bit vectors: one DP column per Python int.

    The shared prefix and suffix are cut off first, since they add nothing to
    the distance, so two texts of one template cost only the span where they
    differ. Bit i of ``pv``/``mv`` says that D[i+1][j] - D[i][j] is +1/-1 in
    the current column j; the last column's deltas sum to D[len(a)][len(b)]
    less D[0][len(b)] = len(b).
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    short = min(la, lb)
    # Binary searches by slice comparison, done in C: the longest common
    # prefix, then the longest common suffix that does not overlap it.
    lo, hi = 0, short
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    pre, lo, hi = lo, 0, short - lo
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[la - mid:la - lo] == b[lb - mid:lb - lo]:
            lo = mid
        else:
            hi = mid - 1
    a, b = a[pre:la - lo], b[pre:lb - lo]
    if len(a) < len(b):
        a, b = b, a  # scan the shorter string
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | 1 << i
    mask = (1 << len(a)) - 1
    pv, mv = mask, 0
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        ph = ph << 1 | 1  # row 0 grows by one per column
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return len(b) + pv.bit_count() - mv.bit_count()


def representative_by_levenshtein(cluster) -> Representative:
    """The medoid of the newest LEVENSHTEIN_CAP reservoir members under edit
    distance; ties go to the earliest of them.

    Its cost is quadratic in the members considered, hence the window.
    """
    members = list(cluster.reservoir)[-LEVENSHTEIN_CAP:]
    sums = [0] * len(members)
    for i, (_, s, _) in enumerate(members):
        for j in range(i + 1, len(members)):
            d = levenshtein(s, members[j][1])
            sums[i] += d
            sums[j] += d
    best = sums.index(min(sums))
    rid, text, vec = members[best]
    return Representative(cluster.id, rid, -float(sums[best]), vec, text)
