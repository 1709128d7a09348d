"""Representative extraction."""

import numpy as np
import pytest

from logevo.clustering import ClusterState, HyperParams
from logevo.errors import EmptyReservoir, TooLarge
from logevo.representatives import (
    levenshtein,
    representative_by_centroid,
    representative_by_levenshtein,
)

from helpers import record, unit_vectors


def cluster_with(vectors, cen=None, texts=None):
    state = ClusterState(HyperParams(theta=2.0))
    for i, v in enumerate(vectors):
        state.ingest_point(record(f"m{i}", "x" if texts is None else texts[i]), np.array(v, dtype=float))
    c = state.get(0)
    if cen is not None:
        c.cen = np.array(cen, dtype=float)
    return c


class TestCentroid:
    def test_singleton(self):
        c = cluster_with([(1, 0)])
        rep = representative_by_centroid(c)
        assert rep.record_id == "m0"
        assert rep.score == pytest.approx(1.0)

    def test_picks_closest_axis(self):
        c = cluster_with([(1, 0), (0, 1)], cen=(0.7, 0.3))
        assert representative_by_centroid(c).record_id == "m0"

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        vectors = unit_vectors(rng, 50, 6)
        c = cluster_with(vectors)
        rep = representative_by_centroid(c)
        cen = c.cen / np.linalg.norm(c.cen)
        sims = [float(v @ cen) for _, _, v in c.reservoir]
        assert rep.record_id == c.reservoir[int(np.argmax(sims))][0]

    def test_tie_breaks_to_earliest(self):
        c = cluster_with([(1, 0), (1, 0)], cen=(1, 0))
        assert representative_by_centroid(c).record_id == "m0"

    def test_stable_on_recompute(self):
        rng = np.random.default_rng(12)
        c = cluster_with(unit_vectors(rng, 20, 4))
        assert (
            representative_by_centroid(c).record_id
            == representative_by_centroid(c).record_id
        )

    def test_carries_the_member_text(self):
        c = cluster_with([(1, 0), (0.6, 0.8), (0, 1)], cen=(0.5, 0.9), texts=["a", "b", "c"])
        rep = representative_by_centroid(c)
        assert (rep.record_id, rep.text) == ("m1", "b")
        assert rep.score == pytest.approx((0.6 * 0.5 + 0.8 * 0.9) / np.hypot(0.5, 0.9))

    def test_zero_centroid_scores_zero_and_first_member_wins(self):
        # (1, 0) and (-1, 0) at theta 2 merge into a cluster whose centroid is exactly zero.
        c = cluster_with([(1, 0), (-1, 0)], texts=["first", "second"])
        assert not c.cen.any()
        rep = representative_by_centroid(c)
        assert (rep.record_id, rep.text, rep.score) == ("m0", "first", 0.0)

    def test_empty_reservoir(self):
        c = cluster_with([(1, 0)])
        c.reservoir.clear()
        with pytest.raises(EmptyReservoir):
            representative_by_centroid(c)


class TestLevenshteinDistance:
    @pytest.mark.parametrize(
        "a,b,d",
        [("abc", "abc", 0), ("abc", "abd", 1), ("abc", "xyz", 3), ("", "abc", 3),
         ("kitten", "sitting", 3), ("flaw", "lawn", 2)],
    )
    def test_known_distances(self, a, b, d):
        assert levenshtein(a, b) == d
        assert levenshtein(b, a) == d


class TestLevenshteinMedoid:
    def test_spec_example(self):
        c = cluster_with([(1, 0)] * 3, texts=["abc", "abd", "xyz"])
        rep = representative_by_levenshtein(c)
        assert rep.record_id == "m0"  # sums 4, 4, 6; tie goes earliest
        assert rep.text == "abc"

    def test_singleton(self):
        c = cluster_with([(1, 0)], texts=["hello"])
        rep = representative_by_levenshtein(c)
        assert rep.record_id == "m0"
        assert rep.score == 0.0

    def test_identical_texts_first_member(self):
        c = cluster_with([(1, 0)] * 4, texts=["same text"] * 4)
        assert representative_by_levenshtein(c).record_id == "m0"

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(13)
        words = ["alpha", "beta", "gamma", "delta"]
        for trial in range(5):
            n = int(rng.integers(2, 10))
            strings = [
                " ".join(words[int(k)] for k in rng.integers(0, len(words), size=3))
                for _ in range(n)
            ]
            c = cluster_with([(1, 0)] * n, texts=strings)
            rep = representative_by_levenshtein(c)
            sums = [
                sum(levenshtein(s, t) for t in strings) for s in strings
            ]
            assert rep.record_id == f"m{int(np.argmin(sums))}"

    def test_size_cap(self):
        c = cluster_with([(1, 0)] * 6, texts=["t"] * 6)
        with pytest.raises(TooLarge):
            representative_by_levenshtein(c, cap=5)
        rep = representative_by_levenshtein(c, cap=5, force=True)
        assert rep.record_id == "m0"
