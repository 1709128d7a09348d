"""Representative extraction."""

import functools
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from logevo.clustering import ClusterState, HyperParams
from logevo.representatives import (
    LEVENSHTEIN_CAP,
    levenshtein,
    representative_by_centroid,
    representative_by_levenshtein,
)

from helpers import edit_distance_reference, record, unit_vectors


def cluster_with(vectors, cen=None, texts=None):
    """The one cluster of ``vectors`` at theta 2; with ``cen``, its reservoir
    under that centroid, shaped as the extractors read a cluster."""
    state = ClusterState(HyperParams(theta=2.0))
    for i, v in enumerate(vectors):
        state.ingest_point(record(f"m{i}", "x" if texts is None else texts[i]), np.array(v, dtype=float))
    c = state.get(0)
    if cen is None:
        return c
    return SimpleNamespace(id=c.id, cen=np.array(cen, dtype=float), reservoir=c.reservoir)


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


class TestLevenshteinDistance:
    @pytest.mark.parametrize(
        "a,b,d",
        [("abc", "abc", 0), ("abc", "abd", 1), ("abc", "xyz", 3), ("", "abc", 3),
         ("kitten", "sitting", 3), ("flaw", "lawn", 2)],
    )
    def test_known_distances(self, a, b, d):
        assert levenshtein(a, b) == d
        assert levenshtein(b, a) == d

    # A small alphabet keeps distances well below the lengths; the lengths
    # straddle the 64- and 128-bit word sizes of the bit vectors.
    _TEXTS = st.one_of(
        st.text(alphabet="ab\u00e9\ufffd\u6f22 ", max_size=140),
        st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]).flatmap(
            lambda n: st.text(alphabet="ab\ufffd", min_size=n, max_size=n)),
    )

    @given(_TEXTS, _TEXTS)
    @example("", "")
    @example("", "\ufffd" * 64)
    @example("a" * 65, "a" * 64 + "\u00e9")
    @example("ab" * 64, "ba" * 64)
    def test_equals_the_reference_and_is_symmetric(self, a, b):
        d = edit_distance_reference(a, b)
        assert levenshtein(a, b) == d
        assert levenshtein(b, a) == d

    # Shared ends are trimmed before the bit vectors run. The ends share
    # letters with the cores, so a core can extend a shared end and the trim
    # must still stop where the two strings differ.
    _ENDS = st.text(alphabet="ab\U0001F600 ", max_size=110)

    @given(_ENDS, _TEXTS, _TEXTS, _ENDS)
    @example("", "aa", "a", "")  # a prefix and a suffix that would overlap
    @example("", "abab", "ab", "")
    @example("", "aXa", "a", "")
    @example("abc", "def", "", "")  # one string is a prefix of the other
    @example("", "abc", "", "def")  # one string is a suffix of the other
    # cores of 63, 64, 65 and 129 characters that differ at both of their ends
    @example("p" * 100, ("ab" * 65)[:63], ("ba" * 65)[:63], "")
    @example("p" * 100, ("ab" * 65)[:64], ("ba" * 65)[:64], "s")
    @example("p" * 100, ("ab" * 65)[:65], ("ba" * 65)[:65], "")
    @example("p" * 100, ("ab" * 65)[:129], ("ba" * 65)[:129], "ss")
    @example("\U0001F600" * 3, "\U0001F600a", "a\U0001F600", "\U0001F600")
    def test_shared_ends_do_not_count(self, p, x, y, s):
        a, b = p + x + s, p + y + s
        d = edit_distance_reference(a, b)
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
                sum(edit_distance_reference(s, t) for t in strings) for s in strings
            ]
            assert rep.record_id == f"m{int(np.argmin(sums))}"

    def test_matches_brute_force_on_templated_texts(self):
        # One template with variable fields, as a cluster's members share one:
        # the texts are longer than a 64-bit word and differ in short spans.
        rng = np.random.default_rng(15)
        strings = [
            f"Exception in receiveBlock for block blk_{int(rng.integers(10 ** 9))} "
            f"java.io.IOException: Connection reset by peer at 10.251.{int(rng.integers(256))}."
            f"{int(rng.integers(256))}:{int(rng.integers(50010, 50020))} after {int(rng.integers(10))} retries"
            for _ in range(12)
        ]
        assert min(map(len, strings)) > 64
        c = cluster_with([(1, 0)] * len(strings), texts=strings)
        sums = [0] * len(strings)
        for (i, s), (j, t) in itertools.combinations(enumerate(strings), 2):
            d = edit_distance_reference(s, t)
            sums[i] += d
            sums[j] += d
        best = sums.index(min(sums))
        rep = representative_by_levenshtein(c)
        assert (rep.record_id, rep.text, rep.score) == (f"m{best}", strings[best], -float(sums[best]))

    def test_medoid_of_the_newest_members(self):
        # 44 old members of one text, then 130 "aaaaaa" and 126 "aaabbb" in a
        # shuffled order. Over the newest 256 the first "aaaaaa" wins (sums
        # 378 against 390); over all 300 an "aaabbb" would (522 against 642).
        rng = np.random.default_rng(14)
        newest = ["aaaaaa"] * 130 + ["aaabbb"] * 126
        rng.shuffle(newest)
        strings = ["bbbbbb"] * 44 + newest
        c = cluster_with([(1, 0)] * 300, texts=strings)
        assert len(c.reservoir) == 300 > LEVENSHTEIN_CAP == 256

        dist = functools.cache(edit_distance_reference)  # three distinct texts

        def medoid(window):
            sums = [sum(dist(s, t) for t in window) for s in window]
            return sums.index(min(sums)), min(sums)

        best, total = medoid(newest)
        rep = representative_by_levenshtein(c)
        assert (rep.record_id, rep.text, rep.score) == (f"m{44 + best}", "aaaaaa", -float(total))
        assert strings[medoid(strings)[0]] == "aaabbb"
