"""Online clustering engine."""

import json
from datetime import timedelta

import numpy as np
import pytest

from logevo.clustering import ClusterState, HyperParams
from logevo.errors import NoActiveClusters
from logevo.records import Batch, BatchPlan, plan_batches

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
        with pytest.raises(NoActiveClusters):
            ClusterState().nearest_cluster(np.array([1.0, 0.0]))

    def test_inactive_clusters_skipped(self):
        state = state_with_centroids((1, 0), (0, 1), theta=0.0)
        state.get(0).active = False
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
        retired = state.active_clusters()[len(state.active_clusters()) // 2]
        retired.active = False
        assert retired.id not in [c.id for c in state.active_clusters()]
        with pytest.raises(ValueError):
            retired.active = True
        for p in unit_vectors(rng, 50, d):
            cid, dist = state.nearest_cluster(p)
            want_id, want_dist = loop_nearest(state, p)
            assert cid == want_id
            assert dist == want_dist

    def test_identical_centroids_oldest_wins(self):
        rng = np.random.default_rng(31)
        d = 64
        state = ClusterState(HyperParams(theta=0.0))
        for i, p in enumerate(unit_vectors(rng, 40, d)):
            state.ingest_point(record(f"p{i}"), p)
        shared = unit_vectors(rng, 1, d)[0]
        for cid in (37, 5, 21):
            state.get(cid).cen = shared
        state.get(2).active = False
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
                with pytest.raises(ValueError, match="retired"):
                    c.cen = points[c.id]


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
        for c in state.clusters:
            c.cen = c.cen * 7.5
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
        ],
        ids=["missing", "too_few", "wrong_dimension", "texts_missing", "texts_too_few"],
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

    def test_reservoir_cap_ring(self):
        state = ClusterState(HyperParams(theta=2.0, reservoir_cap=5))
        for i in range(8):
            state.ingest_point(record(f"p{i}"), np.array([1.0, 0.0]))
        reservoir_ids = [rid for rid, _, _ in state.get(0).reservoir]
        assert reservoir_ids == [f"p{i}" for i in range(3, 8)]
