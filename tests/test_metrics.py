"""Evolution scoring."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logevo.errors import AllUndefined, NoSharedClusters, WeightError
from logevo.metrics import (
    BatchMetricInput,
    score_C,
    score_LCE,
    score_R,
    score_S,
    score_series,
    silhouette_batch,
    terms_of,
)
from logevo.representatives import Representative

from helpers import silhouette_reference, unit_vectors


def batch_input(index, reps=None, sil=None, points=None, nr_clust=0):
    return BatchMetricInput(
        index=index,
        points=points or [],
        nr_clust=nr_clust,
        reps=reps or {},
        silhouette_raw=sil,
    )


def rep(cid, vec):
    v = np.array(vec, dtype=float)
    return Representative(cid, f"rec{cid}", 1.0, v / np.linalg.norm(v))


class TestSilhouette:
    def test_two_tight_orthogonal_pairs(self):
        points = [
            (np.array([1.0, 0.0]), 0),
            (np.array([0.9998, 0.0175]), 0),
            (np.array([0.0, 1.0]), 1),
            (np.array([0.0175, 0.9998]), 1),
        ]
        assert silhouette_batch(points) >= 0.95

    def test_single_cluster_undefined(self):
        points = [(np.array([1.0, 0.0]), 0), (np.array([0.0, 1.0]), 0)]
        assert silhouette_batch(points) is None

    def test_single_point_undefined(self):
        assert silhouette_batch([(np.array([1.0, 0.0]), 0)]) is None

    def test_singleton_cluster_scores_zero(self):
        points = [
            (np.array([1.0, 0.0]), 0),
            (np.array([0.99, 0.14]), 0),
            (np.array([0.0, 1.0]), 1),
        ]
        assert silhouette_batch(points) == pytest.approx(silhouette_reference(points))

    def test_matches_reference_on_random_inputs(self):
        rng = np.random.default_rng(21)
        cases = []
        for _ in range(10):  # a few clusters
            n = int(rng.integers(5, 40))
            cases.append((n, rng.integers(0, 3, size=n)))
        for _ in range(10):  # mostly singletons
            n = int(rng.integers(5, 40))
            cases.append((n, rng.integers(0, 3 * n, size=n)))
        for _ in range(10):  # many clusters, k near n/2
            n = int(rng.integers(10, 60))
            cases.append((n, rng.integers(0, n // 2, size=n)))
        for n, labels in cases:
            vectors = unit_vectors(rng, n, 6)
            # sparse, non-contiguous ids, as an online run produces
            points = list(zip(vectors, (7 * labels + 100).tolist()))
            got = silhouette_batch(points)
            want = silhouette_reference(points)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-9)

    def test_identical_members_score_at_most_one(self):
        # For about a third of unit vectors x.x rounds to 1 + 2**-52, which
        # puts the within-cluster distance of identical members below 0.
        X = unit_vectors(np.random.default_rng(24), 200, 64)
        over = [x for x in X if float(x @ x) > 1.0][:4]
        assert len(over) == 4
        points = [(x, cid) for cid, x in enumerate(over) for _ in range(3)]
        value = silhouette_batch(points)
        assert value <= 1.0
        assert value == pytest.approx(silhouette_reference(points), abs=1e-9)

    def test_scale_invariant(self):
        rng = np.random.default_rng(22)
        vectors = unit_vectors(rng, 30, 5)
        labels = rng.integers(0, 4, size=30).tolist()
        scaled = vectors * rng.uniform(0.1, 10.0, size=(30, 1))
        assert silhouette_batch(list(zip(scaled, labels))) == pytest.approx(
            silhouette_batch(list(zip(vectors, labels))), abs=1e-12
        )

    def test_large_batch_memory_is_linear(self):
        # An n x n float64 matrix at n = 20k would take 3.2 GB.
        rng = np.random.default_rng(23)
        n, d, k = 20_000, 32, 40
        vectors = unit_vectors(rng, n, d)
        points = list(zip(vectors, rng.integers(0, k, size=n).tolist()))
        tracemalloc.start()
        try:
            value = silhouette_batch(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value is not None
        assert peak < 50 * 2**20, peak

    def test_holds_a_block_of_unit_rows_not_the_batch(self):
        # The batch's vectors as one 20,000 x 64 array would take 10 MB.
        rng = np.random.default_rng(24)
        n, d = 20_000, 64
        points = list(zip(unit_vectors(rng, n, d), rng.integers(0, 10, size=n).tolist()))
        tracemalloc.start()
        try:
            silhouette_batch(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


class TestScoreS:
    def test_zero_raws(self):
        batches = [batch_input(0, sil=0.0), batch_input(1, sil=0.0)]
        assert score_S(batches) == pytest.approx(0.5)

    def test_symmetric_raws(self):
        batches = [batch_input(0, sil=1.0), batch_input(1, sil=-1.0)]
        assert score_S(batches) == pytest.approx(0.5)

    def test_reported_scaling_inversion(self):
        # raw silhouette 0.944 scales to the reported 0.972
        assert score_S([batch_input(0, sil=0.944)]) == pytest.approx(0.972)

    def test_undefined_excluded(self):
        batches = [batch_input(0, sil=None), batch_input(1, sil=1.0)]
        assert score_S(batches) == pytest.approx(1.0)

    def test_all_undefined(self):
        with pytest.raises(AllUndefined):
            score_S([batch_input(0, sil=None)])


class TestScoreR:
    def test_identical_reps(self):
        b0 = batch_input(0, reps={1: rep(1, (1, 0))})
        b1 = batch_input(1, reps={1: rep(1, (1, 0))})
        assert score_R([b0, b1]) == pytest.approx(1.0)

    def test_hand_cosine(self):
        b0 = batch_input(0, reps={3: rep(3, (1, 0))})
        b1 = batch_input(1, reps={3: rep(3, (0.7071, 0.7071))})
        assert score_R([b0, b1]) == pytest.approx(0.7071, abs=1e-4)

    def test_pair_without_shared_ids_excluded(self):
        b0 = batch_input(0, reps={1: rep(1, (1, 0))})
        b1 = batch_input(1, reps={2: rep(2, (0, 1))})
        b2 = batch_input(2, reps={2: rep(2, (0, 1))})
        assert score_R([b0, b1, b2]) == pytest.approx(1.0)

    def test_no_shared_anywhere(self):
        b0 = batch_input(0, reps={1: rep(1, (1, 0))})
        b1 = batch_input(1, reps={2: rep(2, (0, 1))})
        with pytest.raises(NoSharedClusters):
            score_R([b0, b1])

    def test_negative_cosine_clamped(self):
        b0 = batch_input(0, reps={1: rep(1, (1, 0))})
        b1 = batch_input(1, reps={1: rep(1, (-1, 0))})
        assert score_R([b0, b1]) == 0.0

    def test_self_similarity_clipped_to_one(self):
        # x.x of a unit vector can round to 1 + 2**-52
        for v in unit_vectors(np.random.default_rng(31), 20, 64):
            reps = {0: Representative(0, "r0", 1.0, v)}
            assert score_R([batch_input(0, reps=reps), batch_input(1, reps=reps)]) <= 1.0


class TestBatchTerms:
    def test_series_and_its_means(self):
        b0 = batch_input(0, reps={1: rep(1, (1, 0))}, sil=0.5, nr_clust=2)
        b1 = batch_input(1, reps={1: rep(1, (0, 1))}, sil=None, nr_clust=4)
        b2 = batch_input(2, reps={2: rep(2, (1, 0))}, sil=-0.5, nr_clust=4)
        terms = [terms_of(cur, prev) for prev, cur in zip([None, b0, b1], [b0, b1, b2])]
        assert [(t.S, t.R, t.C) for t in terms] == [
            (0.75, None, None),
            (None, 0.0, 0.5),
            (0.25, None, 1.0),
        ]
        score = score_series(terms, (1 / 3, 1 / 3, 1 / 3))
        assert (score.S, score.R, score.C) == (0.5, 0.0, 0.75)
        assert score.S == score_S([b0, b1, b2])
        assert score.R == score_R([b0, b1, b2])
        assert score.C == score_C([2, 4, 4])

    def test_single_batch_has_no_pair_terms(self):
        terms = [terms_of(batch_input(0, sil=0.0, nr_clust=3), None)]
        assert [(t.S, t.R, t.C) for t in terms] == [(0.5, None, None)]
        with pytest.raises(NoSharedClusters):
            score_series(terms, (1 / 3, 1 / 3, 1 / 3))


class TestScoreC:
    def test_constant_counts(self):
        assert score_C([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_hand_example(self):
        assert score_C([2, 4, 4]) == pytest.approx(0.75)

    def test_total_disruption(self):
        assert score_C([3, 0]) == 0.0

    def test_both_zero_is_no_change(self):
        assert score_C([0, 0]) == pytest.approx(1.0)

    def test_reversal_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            counts = rng.integers(0, 12, size=int(rng.integers(2, 10))).tolist()
            assert score_C(counts) == pytest.approx(score_C(counts[::-1]))

    def test_needs_two(self):
        with pytest.raises(ValueError):
            score_C([4])


class TestScoreLCE:
    def test_identity(self):
        assert score_LCE(1.0, 1.0, 1.0).lce == pytest.approx(1.0)

    def test_paper_gmm_one_day_row(self):
        score = score_LCE(S=0.727, R=0.914, C=1.0)
        assert score.lce == pytest.approx(0.8803, abs=1e-4)

    def test_paper_word2vec_five_day_row(self):
        score = score_LCE(S=0.865, R=0.999, C=0.96)
        assert score.lce == pytest.approx(0.9413, abs=1e-4)

    def test_bad_weights(self):
        with pytest.raises(WeightError):
            score_LCE(0.5, 0.5, 0.5, weights=(0.5, 0.5, 0.5))
        with pytest.raises(WeightError):
            score_LCE(0.5, 0.5, 0.5, weights=(-0.5, 1.0, 0.5))

    def test_out_of_range_component(self):
        with pytest.raises(WeightError):
            score_LCE(1.5, 0.5, 0.5)

    @given(
        st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
        st.floats(0, 1), st.floats(0, 1),
    )
    def test_monotone_in_each_component(self, s, r, c, bump_frac, w):
        base = score_LCE(s, r, c).lce
        s2 = min(1.0, s + bump_frac * (1 - s))
        assert score_LCE(s2, r, c).lce >= base - 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_component_ranges_under_fuzz(data):
    rng_seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(rng_seed)
    n_batches = int(rng.integers(2, 8))
    batches = []
    for i in range(n_batches):
        n_reps = int(rng.integers(0, 4))
        reps = {
            cid: rep(cid, rng.normal(size=3) + 1e-3)
            for cid in rng.integers(0, 5, size=n_reps).tolist()
        }
        sil = float(rng.uniform(-1, 1)) if rng.random() < 0.8 else None
        batches.append(batch_input(i, reps=reps, sil=sil, nr_clust=int(rng.integers(0, 9))))
    try:
        S = score_S(batches)
        assert 0.0 <= S <= 1.0
    except AllUndefined:
        S = None
    try:
        R = score_R(batches)
        assert 0.0 <= R <= 1.0
    except NoSharedClusters:
        R = None
    C = score_C([b.nr_clust for b in batches])
    assert 0.0 <= C <= 1.0
    if S is not None and R is not None:
        assert 0.0 <= score_LCE(S, R, C).lce <= 1.0
