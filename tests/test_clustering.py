"""Online clustering engine."""

import functools
import json
import re
import sys
import tempfile
import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from logevo import clustering
from logevo.clustering import ClusterState, HyperParams
from logevo.embeddings import HashingProvider
from logevo.records import Batch, BatchPlan, plan_batches
from logevo.representatives import representative_by_centroid, representative_by_levenshtein
from logevo.textnorm import TokenSeq

from helpers import T0, record, replay_online, unit_vectors


def daily_batches(points, per_day):
    """(batch, vectors) pairs of ``per_day`` points a day, one batch a day from T0."""
    out = []
    for index, first in enumerate(range(0, len(points), per_day)):
        start = T0 + timedelta(days=index)
        vecs = list(points[first:first + per_day])
        records = tuple(
            record(f"p{first + i}", ts=start + timedelta(hours=i)) for i in range(len(vecs))
        )
        out.append((Batch(index, start, start + timedelta(days=1), records), vecs))
    return out


def state_with_centroids(*centroids, **kw):
    state = ClusterState(HyperParams(**kw))
    for i, cen in enumerate(centroids):
        state.ingest_point(record(f"seed{i}"), np.array(cen, dtype=float))
    return state


def mixed_state(texts):
    """A state with retired and active clusters whose texts cycle through ``texts``."""
    rng = np.random.default_rng(14)
    state = ClusterState(HyperParams(theta=0.4, staleness=timedelta(days=2)))
    for i, p in enumerate(unit_vectors(rng, 30, 5)):
        text = f"{texts[i % len(texts)]} {i}"
        state.ingest_point(record(f"p{i}", text, ts=T0 + timedelta(days=i // 10)), p)
    assert state.expire_stale(T0 + timedelta(days=3, hours=12))
    assert state.active_clusters()
    return state


def repeated_values_state():
    """One cluster whose reservoir repeats hashing rows, holds two members that
    differ only in the sign of a zero, values whose text has an exponent or is
    subnormal, and more distinct values than one save learns the text of."""
    hashing = HashingProvider(16).embed(
        [TokenSeq(("disk", "full", f"v{i % 3}"), f"r{i}") for i in range(6)])
    zero = int(np.flatnonzero(hashing[0] == 0.0)[0])
    negative_zero = hashing[0].copy()
    negative_zero[zero] = -0.0
    odd = hashing[1].copy()
    odd[:4] = [1e-05, 5e-324, 1.5e+16, -2.5e-310]
    distinct = unit_vectors(np.random.default_rng(18), 3 * clustering._SAVE_TEXTS // 16, 16)
    members = [*hashing, hashing[0], negative_zero, odd, *distinct, *hashing, negative_zero,
               *unit_vectors(np.random.default_rng(19), 2, 16)]
    state = ClusterState(HyperParams(theta=2.0, reservoir_cap=len(members)))
    for i, p in enumerate(members):
        state.ingest_point(record(f"p{i}"), p)
    assert len(state.active_clusters()) == 1
    return state


def edited(state, cen=(), retired=()):
    """``state`` loaded back from its snapshot, with the centroids in ``cen``
    (id -> vector) replaced and the clusters in ``retired`` retired."""
    doc = state.to_snapshot()
    for cid, vec in dict(cen).items():
        doc["clusters"][cid]["cen"] = np.asarray(vec, dtype=float).tolist()
    for cid in retired:
        doc["clusters"][cid]["active"] = False
    return ClusterState.from_snapshot(doc)


@functools.cache
def run_snapshot() -> str:
    """The snapshot, as JSON, of a small run with active and retired clusters
    and a recorded embedding."""
    rng = np.random.default_rng(12)
    state = ClusterState(HyperParams(theta=0.4, staleness=timedelta(days=2)))
    for batch, vecs in daily_batches(unit_vectors(rng, 60, 5), per_day=10):
        state.process_batch(batch, vecs)
    state.embedding = {"kind": "hashing", "d": 5, "seed": 0}
    return json.dumps(state.to_snapshot())


def python_says(call, *args, **kw) -> str:
    """The message of the exception that ``call(*args, **kw)`` raises."""
    try:
        call(*args, **kw)
    except Exception as exc:
        return str(exc)
    raise AssertionError(f"{call.__name__} raised nothing")


def needs(cid, most, has) -> str:
    """The message for an active row whose reservoir breaks the snapshot's rules."""
    return (f"snapshot cluster {cid} needs from 1 to min(len, reservoir_cap) = {most} reservoir "
            f"ids, each a string with a string text and a finite vector of its centroid's "
            f"dimension; it has {has} ids")


def walk(node, path=()):
    """Each (path, node) of a JSON document, the document itself first."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from walk(child, (*path, key))


# Each scalar of a row of run_snapshot(): its id, len, active and two times, and
# each element of its centroid, reservoir ids, texts and vectors.
_ROW_SCALARS = [
    path for path, node in walk(json.loads(run_snapshot()))
    if path[:1] == ("clusters",) and not isinstance(node, (dict, list))
]


class TestNearest:
    def test_identical_direction(self):
        state = state_with_centroids((1, 0), (0, 1), theta=0.0)
        cid, dist = state.nearest_cluster(np.array([1.0, 0.0]))
        assert (cid, dist) == (0, 0.0)

    def test_tie_breaks_to_oldest(self):
        state = state_with_centroids((1, 0), (0, 1), theta=0.0)
        cid, dist = state.nearest_cluster(np.array([0.7071, 0.7071]))
        assert cid == 0
        assert dist == pytest.approx(0.2929, abs=1e-4)

    def test_empty_state(self):
        assert ClusterState().nearest_cluster(np.array([1.0, 0.0])) == (None, np.inf)

    @pytest.mark.parametrize("cid", [-1, 2])
    def test_get_outside_the_ids_is_a_key_error(self, cid):
        state = state_with_centroids((1, 0), (0, 1), theta=0.0)
        with pytest.raises(KeyError):
            state.get(cid)

    def test_inactive_clusters_skipped(self):
        state = edited(state_with_centroids((1, 0), (0, 1), theta=0.0), retired=[0])
        cid, _ = state.nearest_cluster(np.array([1.0, 0.0]))
        assert cid == 1


def loop_nearest(state, p):
    """The nearest active cluster by a plain loop in id order, first minimum wins."""
    best_id, best_dist = None, np.inf
    for c in state.clusters:
        if c.active:
            cen = c.cen
            dist = 1.0 - float(np.dot(cen, p) / (np.linalg.norm(cen) * np.linalg.norm(p)))
            if dist < best_dist:
                best_id, best_dist = c.id, dist
    return best_id, best_dist


class TestNearestMatchesLoop:
    @pytest.mark.parametrize("n_clusters", [17, 40, 1000])
    def test_random_states_with_expiry(self, n_clusters):
        rng = np.random.default_rng(n_clusters)
        d = 24
        state = ClusterState(HyperParams(theta=0.0, staleness=timedelta(days=30)))
        for i, p in enumerate(unit_vectors(rng, n_clusters, d)):
            state.ingest_point(record(f"p{i}", ts=T0 + timedelta(days=int(rng.integers(60)))), p)
        assert len(state.clusters) == n_clusters  # theta=0: every point opens a cluster
        expired = state.expire_stale(T0 + timedelta(days=60))
        assert 0 < len(expired) < n_clusters - 1
        # one more retired out of turn, between batch boundaries
        retired = state.active_clusters()[len(state.active_clusters()) // 2].id
        state = edited(state, retired=[retired])
        assert retired not in [c.id for c in state.active_clusters()]
        for p in unit_vectors(rng, 50, d):
            cid, dist = state.nearest_cluster(p)
            want_id, want_dist = loop_nearest(state, p)
            assert cid == want_id
            assert dist == want_dist

    @pytest.mark.parametrize("centroids", [(), ((1, 0), (-1, 0))], ids=["empty", "zero_centroid"])
    def test_no_defined_distance(self, centroids):
        # At theta 2 an antipodal pair merges into one cluster whose centroid is zero.
        state = state_with_centroids(*centroids, theta=2.0)
        assert all(not c.cen.any() for c in state.active_clusters())
        p = np.array([0.6, 0.8])
        with np.errstate(invalid="ignore"):  # the loop's 0/0
            expected = loop_nearest(state, p)
        assert state.nearest_cluster(p) == expected == (None, np.inf)

    def test_identical_centroids_oldest_wins(self):
        rng = np.random.default_rng(31)
        d = 64
        state = ClusterState(HyperParams(theta=0.0))
        for i, p in enumerate(unit_vectors(rng, 40, d)):
            state.ingest_point(record(f"p{i}"), p)
        shared = unit_vectors(rng, 1, d)[0]
        state = edited(state, cen={cid: shared for cid in (37, 5, 21)}, retired=[2])
        for p in list(unit_vectors(rng, 20, d)) + [shared]:
            expected = loop_nearest(state, p)
            assert state.nearest_cluster(p) == expected
        cid, _ = state.nearest_cluster(shared + 1e-3 * unit_vectors(rng, 1, d)[0])
        assert cid == 5

    def test_centroids_survive_growth_and_compaction(self):
        rng = np.random.default_rng(32)
        state = ClusterState(HyperParams(theta=0.0, staleness=timedelta(days=5)))
        points = unit_vectors(rng, 100, 8)
        for i, p in enumerate(points):
            state.ingest_point(record(f"p{i}", ts=T0 + timedelta(days=i % 10)), p)
        state.expire_stale(T0 + timedelta(days=10))
        for c in state.clusters:
            assert c.active == (c.id % 10 >= 5)
            if c.active:
                np.testing.assert_array_equal(c.cen, points[c.id])
            else:  # a retired cluster keeps only its history
                assert c.cen is None and not c.reservoir


class TestIngest:
    def test_rolling_mean_branch(self):
        state = state_with_centroids((1, 0), theta=2.0, gamma=100)
        out = state.ingest_point(record("p"), np.array([0.0, 1.0]))
        assert not out.was_new
        c = state.get(0)
        np.testing.assert_allclose(c.cen, [0.5, 0.5])
        assert c.len == 2

    def test_ema_branch_at_gamma(self):
        # len == gamma takes the EMA branch
        state = state_with_centroids((1, 0), theta=2.0, gamma=100, alpha=0.1)
        state.get(0).len = 100
        state.ingest_point(record("p"), np.array([0.0, 1.0]))
        np.testing.assert_allclose(state.get(0).cen, [0.9, 0.1])

    def test_orthogonal_opens_new_cluster(self):
        state = state_with_centroids((1, 0), theta=0.05)
        out = state.ingest_point(record("p"), np.array([0.0, 1.0]))
        assert out.was_new and out.cluster_id == 1
        np.testing.assert_array_equal(state.get(1).cen, [0.0, 1.0])
        assert state.get(1).len == 1

    def test_last_updated_tracks_point_time(self):
        state = state_with_centroids((1, 0), theta=2.0)
        later = T0 + timedelta(days=3)
        state.ingest_point(record("p", ts=later), np.array([1.0, 0.0]))
        assert state.get(0).last_updated == later


class TestAlgebra:
    def test_rolling_mean_equals_arithmetic_mean(self):
        rng = np.random.default_rng(1)
        points = unit_vectors(rng, 40, 8)
        state = ClusterState(HyperParams(theta=2.0, gamma=100))
        for i, p in enumerate(points):
            state.ingest_point(record(f"p{i}"), p)
        np.testing.assert_allclose(state.get(0).cen, points.mean(axis=0), atol=1e-9)

    def test_ema_closed_form(self):
        rng = np.random.default_rng(2)
        alpha, m = 0.1, 50
        cen0 = np.array([1.0, 0.0, 0.0])
        updates = unit_vectors(rng, m, 3)
        state = state_with_centroids(cen0, theta=2.0, gamma=1, alpha=alpha)
        state.get(0).len = 1  # gamma=1 so every update is EMA
        for i, q in enumerate(updates):
            state.ingest_point(record(f"q{i}"), q)
        expected = (1 - alpha) ** m * cen0
        for i, q in enumerate(updates, start=1):
            expected = expected + alpha * (1 - alpha) ** (m - i) * q
        np.testing.assert_allclose(state.get(0).cen, expected, atol=1e-9)


class TestProcessBatch:
    def _batch(self, vectors, index=0, start=None):
        start = start or T0
        records = tuple(
            record(f"b{index}p{i}", ts=start + timedelta(seconds=i))
            for i in range(len(vectors))
        )
        return Batch(index, start, start + timedelta(days=1), records)

    def test_identical_vectors_one_cluster(self):
        state = ClusterState(HyperParams(theta=0.05))
        vecs = [np.array([1.0, 0.0])] * 3
        report = state.process_batch(self._batch(vecs), vecs)
        assert report.nr_clust == 1
        assert state.get(0).len == 3

    def test_orthogonal_vectors_three_clusters(self):
        state = ClusterState(HyperParams(theta=0.05))
        vecs = [np.eye(3)[i] for i in range(3)]
        report = state.process_batch(self._batch(vecs), vecs)
        assert report.nr_clust == 3

    def test_empty_batch_census_only(self):
        state = state_with_centroids((1, 0))
        report = state.process_batch(self._batch([]), [])
        assert report.points == []
        assert report.nr_clust == 1

    def _counting(self, rule, calls):
        def pick(c):
            calls.append(c.id)
            return rule(c)
        return pick

    def _three_clusters(self, rule=representative_by_centroid):
        """A state whose first batch opened clusters 0, 1 and 2, that batch's
        report, and a ``pick`` by ``rule`` that logs the cluster ids it is called on."""
        calls = []
        pick = self._counting(rule, calls)
        state = ClusterState(HyperParams(theta=0.05))
        vecs = [np.eye(3)[i] for i in range(3)]
        first = state.process_batch(self._batch(vecs), vecs, pick)
        assert calls == [0, 1, 2]
        calls.clear()
        return state, first, pick, calls

    def _next_day(self, index, vecs=()):
        return self._batch(list(vecs), index, T0 + timedelta(days=index)), list(vecs)

    def test_only_a_cluster_that_grew_is_picked_again(self):
        state, first, pick, calls = self._three_clusters()
        second = state.process_batch(*self._next_day(1, [np.eye(3)[1]]), pick)
        assert calls == [1]
        assert second.sizes == {0: 1, 1: 2, 2: 1}
        assert second.reps[0] is first.reps[0] and second.reps[2] is first.reps[2]
        assert second.reps[1] == representative_by_centroid(state.get(1))

    def test_a_point_ingested_between_batches_makes_its_cluster_picked_again(self):
        state, first, pick, calls = self._three_clusters()
        state.ingest_point(record("between", ts=T0 + timedelta(hours=12)), np.eye(3)[2])
        second = state.process_batch(*self._next_day(1), pick)
        assert calls == [2]
        assert second.reps[0] is first.reps[0] and second.reps[1] is first.reps[1]

    def test_a_change_of_rule_picks_every_cluster_again(self, monkeypatch):
        state, first, _, _ = self._three_clusters(representative_by_levenshtein)
        calls = []
        counting = self._counting(representative_by_centroid, calls)
        monkeypatch.setattr(clustering, "representative_by_centroid", counting)
        by_centroid = state.process_batch(*self._next_day(1))
        assert calls == [0, 1, 2]
        assert all(by_centroid.reps[cid] is not first.reps[cid] for cid in range(3))
        again = state.process_batch(*self._next_day(2))
        assert calls == [0, 1, 2]
        assert all(again.reps[cid] is by_centroid.reps[cid] for cid in range(3))

    def test_antipodal_stream_matches_replay(self):
        rng = np.random.default_rng(3)
        base = np.array([1.0] + [0.0] * 7)
        points = []
        for _ in range(200):
            direction = base if rng.random() < 0.5 else -base
            p = direction + rng.normal(scale=0.05, size=8)
            points.append(p / np.linalg.norm(p))
        state = ClusterState(HyperParams(theta=0.3))
        vecs = list(points)
        report = state.process_batch(self._batch(vecs), vecs)
        assert report.nr_clust == 2
        clusters, assignments = replay_online(points, theta=0.3, alpha=0.1, gamma=100)
        assert [cid for _, cid in report.points] == [c for c, _ in assignments]
        for oracle in clusters:
            np.testing.assert_allclose(
                state.get(oracle.id).cen, oracle.cen, atol=1e-12
            )


class TestExpiry:
    def test_stale_cluster_expired(self):
        state = state_with_centroids((1, 0), staleness=timedelta(days=30))
        expired = state.expire_stale(T0 + timedelta(days=31))
        assert expired == [0]
        assert not state.get(0).active

    def test_longest_staleness_expires_nothing(self):
        # now - staleness would fall before the first representable date
        state = state_with_centroids((1, 0), staleness=timedelta(days=999_999_999))
        assert state.expire_stale(T0 + timedelta(days=1)) == []
        assert state.get(0).active

    def test_fresh_cluster_untouched(self):
        state = state_with_centroids((1, 0))
        assert state.expire_stale(T0 + timedelta(days=1)) == []
        assert state.get(0).active

    def test_regular_updates_never_expire(self):
        state = state_with_centroids((1, 0), theta=2.0)
        for day in range(5, 65, 5):
            now = T0 + timedelta(days=day)
            assert state.expire_stale(now) == []
            state.ingest_point(record(f"d{day}", ts=now), np.array([1.0, 0.0]))
        assert state.get(0).active

    def test_retiring_frees_the_reservoirs(self):
        vectors = unit_vectors(np.random.default_rng(33), 2000, 16)
        tracemalloc.start()  # before the clusters, so that freeing them shows
        try:
            state = ClusterState(HyperParams(theta=0.0))  # each point opens a cluster
            for i, p in enumerate(vectors):
                state.ingest_point(record(f"p{i}", f"member {i}"), p)
            before = tracemalloc.get_traced_memory()[0]
            state.expire_stale(T0 + timedelta(days=31))
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert not state.active_clusters()
        assert all(c.reservoir is None for c in state.clusters)
        assert after < before, (before, after)


class TestInvariants:
    def test_len_sum_and_monotone_ids(self):
        rng = np.random.default_rng(4)
        points = unit_vectors(rng, 100, 6)
        state = ClusterState(HyperParams(theta=0.4))
        new_ids = []
        for i, p in enumerate(points):
            out = state.ingest_point(record(f"p{i}"), p)
            if out.was_new:
                new_ids.append(out.cluster_id)
        assert sum(c.len for c in state.clusters) == 100
        assert new_ids == sorted(new_ids)
        assert len(set(new_ids)) == len(new_ids)

    def test_centroid_scale_invariance(self):
        rng = np.random.default_rng(5)
        points = unit_vectors(rng, 30, 4)
        state = ClusterState(HyperParams(theta=0.5))
        for i, p in enumerate(points):
            state.ingest_point(record(f"p{i}"), p)
        probes = unit_vectors(rng, 10, 4)
        before = [state.nearest_cluster(p) for p in probes]
        state = edited(state, cen={c.id: c.cen * 7.5 for c in state.clusters})
        after = [state.nearest_cluster(p) for p in probes]
        assert [cid for cid, _ in before] == [cid for cid, _ in after]

    def test_theta_zero_exact_duplicates(self):
        state = ClusterState(HyperParams(theta=0.0))
        v = np.array([0.6, 0.8])
        state.ingest_point(record("a"), v)
        state.ingest_point(record("b"), v.copy())
        state.ingest_point(record("c"), np.array([0.8, 0.6]))
        assert len(state.clusters) == 2
        assert state.get(0).len == 2

    def test_theta_two_single_cluster(self):
        rng = np.random.default_rng(6)
        state = ClusterState(HyperParams(theta=2.0))
        for i, p in enumerate(unit_vectors(rng, 20, 5)):
            state.ingest_point(record(f"p{i}"), p)
        assert len(state.clusters) == 1

    def test_determinism(self):
        rng = np.random.default_rng(7)
        points = unit_vectors(rng, 60, 5)

        def run():
            state = ClusterState(HyperParams(theta=0.4))
            outs = [
                state.ingest_point(record(f"p{i}"), p) for i, p in enumerate(points)
            ]
            return state, outs

        s1, o1 = run()
        s2, o2 = run()
        assert [a.cluster_id for a in o1] == [a.cluster_id for a in o2]
        for c1, c2 in zip(s1.clusters, s2.clusters):
            assert (c1.id, c1.len) == (c2.id, c2.len)
            np.testing.assert_allclose(c1.cen, c2.cen, atol=1e-12)


class TestPersistence:
    def test_snapshot_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        points = unit_vectors(rng, 40, 5)
        state = ClusterState(HyperParams(theta=0.4))
        for i, p in enumerate(points):
            state.ingest_point(record(f"p{i}", f"text {i}"), p)
        path = tmp_path / "state.json"
        state.save(path)
        loaded = ClusterState.load(path)
        assert loaded.next_id == state.next_id
        assert loaded.params == state.params
        for a, b in zip(state.clusters, loaded.clusters):
            assert (a.id, a.len, a.active) == (b.id, b.len, b.active)
            np.testing.assert_array_equal(a.cen, b.cen)
            assert [(rid, text) for rid, text, _ in a.reservoir] == [
                (rid, text) for rid, text, _ in b.reservoir
            ]

    def test_staleness_round_trips_exactly(self):
        # Float seconds lost 1779 of these 2000 values; whole microseconds keep all.
        rng = np.random.default_rng(12)
        for us in rng.integers(1, 3_000_000 * 86_400_000_000, size=2000).tolist():
            params = HyperParams(staleness=timedelta(microseconds=us))
            doc = json.loads(json.dumps(ClusterState(params).to_snapshot()))
            assert ClusterState.from_snapshot(doc).params == params

    def test_reads_staleness_seconds_of_an_older_snapshot(self):
        doc = ClusterState(HyperParams(staleness=timedelta(days=2))).to_snapshot()
        doc["params"]["staleness_seconds"] = 172800.5
        del doc["params"]["staleness_us"]
        loaded = ClusterState.from_snapshot(doc).params.staleness
        assert loaded == timedelta(days=2, microseconds=500_000)

    def test_reads_indented_snapshot(self, tmp_path):
        rng = np.random.default_rng(10)
        state = ClusterState(HyperParams(theta=0.4, staleness=timedelta(days=2)))
        for i, p in enumerate(unit_vectors(rng, 30, 5)):
            state.ingest_point(record(f"p{i}", ts=T0 + timedelta(days=i // 10)), p)
        assert len(state.expire_stale(T0 + timedelta(days=3, hours=12))) > 0
        assert len(state.active_clusters()) > 0
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        state.save(compact)
        indented.write_text(json.dumps(state.to_snapshot(), indent=1))
        assert "\n" not in compact.read_text()
        a, b = ClusterState.load(compact), ClusterState.load(indented)
        assert a.to_snapshot() == b.to_snapshot() == state.to_snapshot()

    def test_embedding_round_trips_and_must_be_an_object(self):
        state = state_with_centroids((1, 0), (0, 1), theta=0.0)
        doc = state.to_snapshot()
        assert doc["embedding"] is None  # a state the pipeline did not fill
        doc["embedding"] = {"kind": "hashing", "d": 2, "seed": 0}
        assert ClusterState.from_snapshot(doc).to_snapshot() == doc
        del doc["embedding"]  # older snapshots record none
        assert ClusterState.from_snapshot(doc).embedding is None
        doc["embedding"] = "hashing"
        with pytest.raises(ValueError, match="^snapshot embedding 'hashing' is not an object$"):
            ClusterState.from_snapshot(doc)

    @pytest.mark.parametrize("cid", [2, 4])
    def test_rejects_ids_out_of_step(self, cid):
        state = state_with_centroids((1, 0), (0, 1), (-1, 0), (0, -1), theta=0.0)
        doc = state.to_snapshot()
        doc["clusters"][3]["id"] = cid
        with pytest.raises(ValueError, match=f"ids are not 0, 1, 2, ...: found {cid}$"):
            ClusterState.from_snapshot(doc)

    @pytest.mark.parametrize("shift", [-1, 1, 5])
    def test_rejects_next_id_out_of_step(self, shift):
        rng = np.random.default_rng(11)
        state = ClusterState(HyperParams(theta=0.4))
        for i, p in enumerate(unit_vectors(rng, 20, 5)):
            state.ingest_point(record(f"p{i}"), p)
        doc = state.to_snapshot()
        assert doc["next_id"] == len(doc["clusters"])
        doc["next_id"] += shift
        with pytest.raises(ValueError, match="next_id"):
            ClusterState.from_snapshot(doc)

    def test_reload_reproduces_subsequent_behavior(self, tmp_path):
        rng = np.random.default_rng(9)
        batches = daily_batches(unit_vectors(rng, 160, 5), per_day=10)
        for older_format in (False, True):
            cont = ClusterState(HyperParams(theta=0.4, staleness=timedelta(days=2)))
            members: dict[int, list] = {}  # cluster id -> [(record id, vector)]
            for batch, vecs in batches[:8]:
                report = cont.process_batch(batch, vecs)
                for rec, (vec, cid) in zip(batch.records, report.points):
                    members.setdefault(cid, []).append((rec.id, vec))
            retired = [c.id for c in cont.clusters if not c.active]
            assert retired and cont.active_clusters()
            doc = cont.to_snapshot()
            if older_format:
                # Older versions kept a retired cluster's centroid and reservoir.
                for cid in retired:
                    ids, vecs = zip(*members[cid])
                    doc["clusters"][cid].update(
                        cen=np.mean(vecs, axis=0).tolist(),
                        reservoir_ids=list(ids),
                        reservoir_vectors=[v.tolist() for v in vecs],
                    )
            path = tmp_path / f"state_{older_format}.json"
            path.write_text(json.dumps(doc))
            resumed = ClusterState.load(path)
            assert resumed.to_snapshot() == cont.to_snapshot()
            for batch, vecs in batches[8:]:
                a, b = cont.process_batch(batch, vecs), resumed.process_batch(batch, vecs)
                assert [cid for _, cid in a.points] == [cid for _, cid in b.points]
                assert (a.nr_clust, a.expired, a.sizes) == (b.nr_clust, b.expired, b.sizes)
                assert [(r.record_id, r.score) for r in a.reps.values()] == [
                    (r.record_id, r.score) for r in b.reps.values()
                ]
            assert len(cont.clusters) > len(doc["clusters"])
            assert resumed.to_snapshot() == cont.to_snapshot()

    def test_retired_rows_hold_only_history(self):
        rng = np.random.default_rng(12)
        state = ClusterState(HyperParams(theta=0.4, staleness=timedelta(days=2)))
        for batch, vecs in daily_batches(unit_vectors(rng, 60, 5), per_day=10):
            state.process_batch(batch, vecs)
        rows = state.to_snapshot()["clusters"]
        history = {"id", "len", "created_at", "last_updated", "active"}
        assert {frozenset(r) for r in rows} == {
            frozenset(history),
            frozenset(history | {"cen", "reservoir_ids", "reservoir_texts", "reservoir_vectors"}),
        }
        assert all(r["active"] == ("cen" in r) for r in rows)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda row: row.pop("reservoir_vectors"),
            lambda row: row["reservoir_vectors"].pop(),
            lambda row: row["reservoir_vectors"].__setitem__(0, []),
            lambda row: row.pop("reservoir_texts"),
            lambda row: row["reservoir_texts"].pop(),
            lambda row: [row[f"reservoir_{k}"].clear() for k in ("ids", "texts", "vectors")],
        ],
        ids=["missing", "too_few", "wrong_dimension", "texts_missing", "texts_too_few", "empty"],
    )
    def test_rejects_active_row_without_its_reservoir_vectors(self, damage):
        rng = np.random.default_rng(13)
        state = ClusterState(HyperParams(theta=0.4))
        for i, p in enumerate(unit_vectors(rng, 20, 5)):
            state.ingest_point(record(f"p{i}"), p)
        doc = state.to_snapshot()
        damage(doc["clusters"][3])
        with pytest.raises(ValueError, match="snapshot cluster 3 "):
            ClusterState.from_snapshot(doc)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_a_damaged_snapshot_raises_one_value_error(self, data):
        # Deleting any one key or replacing any one object with []; the keys
        # inside the embedding are the resume check's to judge.
        doc = json.loads(run_snapshot())
        rows = doc["clusters"]
        assert not all(r["active"] for r in rows) and any(r["active"] for r in rows)
        nodes = list(walk(doc))
        keys = [p for p, _ in nodes if p and isinstance(p[-1], str) and "embedding" not in p[:-1]]
        objects = [p for p, node in nodes if isinstance(node, dict)]
        delete = data.draw(st.booleans())
        path = data.draw(st.sampled_from(keys if delete else objects))
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        if delete:
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = []
        else:
            doc = []
        if delete and path == ("embedding",):  # as an older snapshot
            assert ClusterState.from_snapshot(doc).embedding is None
            return
        with pytest.raises(ValueError, match="^snapshot"):
            ClusterState.from_snapshot(doc)

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(_ROW_SCALARS),
           value=st.sampled_from([None, True, 0, -1, 2.5, "x", [], {}]))
    @example(path=("clusters", 1, "len"), value="x")
    def test_a_damaged_row_fails_at_load_or_is_harmless(self, path, value):
        doc, written = json.loads(run_snapshot()), json.loads(run_snapshot())
        functools.reduce(lambda node, key: node[key], path[:-1], doc)[path[-1]] = value
        try:
            state = ClusterState.from_snapshot(doc)
        except ValueError as exc:
            assert str(exc).startswith("snapshot"), exc
            return
        # What loads is written back as JSON, each value of the type the writer gave it.
        again = json.loads(json.dumps(state.to_snapshot(), allow_nan=False))
        assert [(p, type(node)) for p, node in walk(again)] == [
            (p, type(node)) for p, node in walk(written)
        ]
        # One point on each written centroid, so every active cluster that is
        # not retired first takes a merge.
        cens = [row["cen"] for row in written["clusters"] if row["active"]]
        start = T0 + timedelta(days=6)
        records = tuple(record(f"q{i}", ts=start + timedelta(hours=i)) for i in range(len(cens)))
        vecs = np.array(cens) / np.linalg.norm(cens, axis=1, keepdims=True)
        state.process_batch(Batch(0, start, start + timedelta(days=1), records), vecs)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), per_day=st.integers(1, 8),
           cap=st.integers(1, 4), gamma=st.integers(1, 3))
    def test_every_snapshot_the_writer_makes_loads_back(self, seed, n, per_day, cap, gamma):
        # Reservoirs of 1 to 4 fill and clusters idle for two days retire, so
        # rows of every kind the writer makes reach the loader.
        params = HyperParams(theta=0.5, gamma=gamma, staleness=timedelta(days=1),
                             reservoir_cap=cap)
        batches = daily_batches(unit_vectors(np.random.default_rng(seed), n, 3), per_day)
        state = ClusterState(params)
        for batch, vecs in batches[:-1]:
            state.process_batch(batch, vecs)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/state.json"
            state.save(path)
            resumed = ClusterState.load(path)
            assert resumed.to_snapshot() == state.to_snapshot()
            resumed.process_batch(*batches[-1])
            resumed.save(path)
            assert ClusterState.load(path).to_snapshot() == resumed.to_snapshot()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda doc: doc.pop("next_id"), "snapshot: missing key 'next_id'"),
            (lambda doc: doc["clusters"][0].pop("len"), "snapshot: missing key 'len'"),
            (lambda doc: doc.update(params=[]), "snapshot: list indices must be integers"),
        ],
        ids=["next_id", "len", "params"],
    )
    def test_a_damaged_snapshot_names_the_damage(self, damage, message):
        doc = json.loads(run_snapshot())
        damage(doc)
        with pytest.raises(ValueError, match=f"^{message}"):
            ClusterState.from_snapshot(doc)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda doc: doc["params"].update(theta=5),
             "snapshot: params: theta must be in [0, 2]"),
            (lambda doc: doc["params"].update(staleness_us=1e300),
             f"snapshot: params: {python_says(timedelta, microseconds=1e300)}"),
            (lambda doc: doc["params"].update(staleness_us=10**30),
             f"snapshot: params: {python_says(timedelta, microseconds=10**30)}"),
            (lambda doc: doc["clusters"][0].update(created_at="yesterday"),
             "snapshot cluster 0: Invalid isoformat string: 'yesterday'"),
            (lambda doc: doc["clusters"][1].update(last_updated=5),
             f"snapshot cluster 1: {python_says(datetime.fromisoformat, 5)}"),
            (lambda doc: doc["clusters"][2].update(created_at="0001-01-01T00:00:00+01:00"),
             "snapshot cluster 2: date value out of range"),
            (lambda doc: doc["clusters"][1].update(cen="abc"),
             "snapshot cluster 1: could not convert string to float: 'abc'"),
            (lambda doc: doc["clusters"][1].update(cen=0.5),
             "snapshot cluster 1: centroid is not a list of numbers"),
            (lambda doc: [v.append(0.0) for v in (doc["clusters"][2]["cen"],
                                                  *doc["clusters"][2]["reservoir_vectors"])],
             "snapshot cluster 2: centroid dimension 6 is not the first active row's 5"),
            (lambda doc: [v.pop() for v in (doc["clusters"][3]["cen"],
                                            *doc["clusters"][3]["reservoir_vectors"])],
             "snapshot cluster 3: centroid dimension 4 is not the first active row's 5"),
            (lambda doc: doc["clusters"][1]["cen"].__setitem__(2, None),
             "snapshot cluster 1: centroid is not a list of numbers"),
            (lambda doc: doc["clusters"][1].update(id=True),
             "snapshot cluster ids are not 0, 1, 2, ...: found True"),
            (lambda doc: doc["clusters"][1].update(len="x"),
             "snapshot cluster 1: len 'x' is not a positive integer"),
            (lambda doc: doc["clusters"][2].update(len=-3),
             "snapshot cluster 2: len -3 is not a positive integer"),
            (lambda doc: doc["clusters"][3].update(len=2.5),
             "snapshot cluster 3: len 2.5 is not a positive integer"),
            (lambda doc: doc["clusters"][0].update(active="no"),
             "snapshot cluster 0: active 'no' is not true or false"),
            (lambda doc: doc["clusters"][2]["reservoir_vectors"][1].__setitem__(0, None),
             needs(2, 4, 4)),
            (lambda doc: doc["clusters"][1].update(reservoir_ids=[7, 8, 9]), needs(1, 3, 3)),
            (lambda doc: doc["clusters"][1].update(reservoir_texts=[5, 6, 7]), needs(1, 3, 3)),
            (lambda doc: doc["clusters"][1].update(reservoir_ids="abc"), needs(1, 3, 3)),
            (lambda doc: doc["params"].update(reservoir_cap=3), needs(2, 3, 4)),
            (lambda doc: doc["clusters"][3].update(len=1), needs(3, 1, 7)),
        ],
        ids=["theta", "staleness_float", "staleness_int", "time_text", "time_number",
             "time_before_calendar", "cen_text", "cen_number", "cen_longer", "cen_shorter",
             "cen_null", "id_bool", "len_text", "len_negative", "len_fraction", "active_text",
             "vector_null", "ids_numbers", "texts_numbers", "ids_text", "ids_past_cap",
             "ids_past_len"],
    )
    def test_a_damaged_value_is_named_with_its_place(self, damage, message):
        doc = json.loads(run_snapshot())
        damage(doc)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ClusterState.from_snapshot(doc)

    def test_a_file_that_is_not_json_is_named(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("")
        message = f"snapshot: {path} is not JSON: Expecting value: line 1 column 1 (char 0)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ClusterState.load(path)

    def test_a_number_past_the_digit_limit_is_named(self, tmp_path):
        path, text = tmp_path / "state.json", "[" + "1" * (sys.get_int_max_str_digits() + 1) + "]"
        path.write_text(text)
        message = f"snapshot: {path} is not JSON: {python_says(json.loads, text)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ClusterState.load(path)

    @pytest.mark.parametrize(
        "make_state",
        [ClusterState, lambda: mixed_state(("text",)),
         lambda: mixed_state(("défaut ☃", "磁盘 full 𝄞", "plain")), repeated_values_state],
        ids=["no_clusters", "active_and_retired", "non_ascii", "repeated_values"],
    )
    def test_save_writes_the_compact_encoding_of_the_snapshot(self, tmp_path, make_state):
        state = make_state()
        state.save(tmp_path / "state.json")
        expected = json.dumps(state.to_snapshot(), separators=(",", ":"))
        assert (tmp_path / "state.json").read_bytes() == expected.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_save_holds_about_one_row_in_memory(self, tmp_path):
        # 16 clusters of 512 members in 64 dimensions, each member near its
        # cluster's own axis.
        rng = np.random.default_rng(15)
        state = ClusterState(HyperParams(theta=0.3, reservoir_cap=512))
        for i, p in enumerate(unit_vectors(rng, 16 * 512, 64)):
            v = 0.2 * p
            v[i % 16] += 1.0
            state.ingest_point(record(f"p{i}", f"member {i}"), v / np.linalg.norm(v))
        assert [len(c.reservoir) for c in state.active_clusters()] == [512] * 16

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole = peak(lambda: json.dumps(state.to_snapshot()))
        streamed = peak(lambda: state.save(tmp_path / "state.json"))
        assert streamed < whole / 2, (streamed, whole)

    def test_save_encodes_one_reservoir_member_at_a_time(self, tmp_path):
        # One full reservoir of 512 x 64 floats: encoded whole, the floats and
        # their text would take over 4 MB.
        rng = np.random.default_rng(17)
        state = ClusterState(HyperParams(theta=2.0))
        for i, p in enumerate(unit_vectors(rng, 512, 64)):
            state.ingest_point(record(f"p{i}", f"member {i}"), p)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            state.save(tmp_path / "state.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - live < 0.5 * 2**20, (peak, live)

    def test_save_encodes_each_distinct_member_once(self, tmp_path, monkeypatch):
        # 512 members share one hashing row: the encoder is handed its values
        # once, and the other members are written from the text it gave.
        row = HashingProvider(64).embed([TokenSeq(("disk", "full", "on", "dn7"), "r0")])[0]
        state = ClusterState(HyperParams())
        for i in range(512):
            state.ingest_point(record(f"p{i}"), row)
        assert len(state.get(0).reservoir) == 512
        expected = json.dumps(state.to_snapshot(), separators=(",", ":"))
        member_lists = []

        class CountingEncoder(json.JSONEncoder):
            def encode(self, o):
                if isinstance(o, list):
                    member_lists.append(o)
                return super().encode(o)

        monkeypatch.setattr(clustering.json, "JSONEncoder", CountingEncoder)
        state.save(tmp_path / "state.json")
        assert len(member_lists) <= 2, len(member_lists)
        assert (tmp_path / "state.json").read_text(encoding="utf-8") == expected

    def test_a_loaded_retired_row_holds_no_reservoir(self):
        rows = [{"id": i, "len": 1, "created_at": T0.isoformat(),
                 "last_updated": T0.isoformat(), "active": False} for i in range(2000)]
        doc = {**ClusterState().to_snapshot(), "clusters": rows, "next_id": len(rows)}
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            state = ClusterState.from_snapshot(doc)
            size = tracemalloc.get_traced_memory()[0] - live
        finally:
            tracemalloc.stop()
        assert all(c.reservoir is None for c in state.clusters)
        assert size / len(rows) < 500, size / len(rows)

    def test_a_failed_save_leaves_the_previous_snapshot(self, tmp_path, monkeypatch):
        state = mixed_state(("text",))
        path = tmp_path / "state.json"
        state.save(path)
        before = path.read_bytes()
        for i, p in enumerate(unit_vectors(np.random.default_rng(16), 10, 5)):
            state.ingest_point(record(f"q{i}", ts=T0 + timedelta(days=4)), p)
        real, calls = clustering._snapshot_row, []

        def third_row_fails(c):
            calls.append(c.id)
            if len(calls) == 3:
                raise RuntimeError("row 3")
            return real(c)

        monkeypatch.setattr(clustering, "_snapshot_row", third_row_fails)
        with pytest.raises(RuntimeError, match="row 3"):
            state.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_reservoir_cap_ring(self):
        state = ClusterState(HyperParams(theta=2.0, reservoir_cap=5))
        for i in range(8):
            state.ingest_point(record(f"p{i}"), np.array([1.0, 0.0]))
        reservoir_ids = [rid for rid, _, _ in state.get(0).reservoir]
        assert reservoir_ids == [f"p{i}" for i in range(3, 8)]
