"""Warm-start diagonal GMM baseline."""

import numpy as np
import pytest

from logevo import gmm
from logevo.errors import DegenerateInput
from logevo.gmm import assign, fit_batch, fresh_params


def blobs(rng, centers, n_per, scale=0.05):
    points = []
    for c in centers:
        points.append(rng.normal(loc=c, scale=scale, size=(n_per, len(c))))
    return np.vstack(points)


def test_two_blobs_recovered():
    rng = np.random.default_rng(31)
    centers = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    X = blobs(rng, centers, 100)
    params = fit_batch(X, fresh_params(X, K=2, seed=0))
    recovered = sorted(params.means.tolist())
    expected = sorted(c.tolist() for c in centers)
    for got, want in zip(recovered, expected):
        assert np.linalg.norm(np.array(got) - np.array(want)) < 0.05


def test_k1_closed_form():
    rng = np.random.default_rng(32)
    X = rng.normal(size=(50, 4))
    params = fit_batch(X, fresh_params(X, K=1, seed=0))
    np.testing.assert_allclose(params.means[0], X.mean(axis=0), atol=1e-9)


def test_warm_start_improves_or_holds(monkeypatch):
    rng = np.random.default_rng(33)
    X = blobs(rng, [np.zeros(3), np.ones(3)], 60)
    first = fit_batch(X, fresh_params(X, K=2, seed=0))
    monkeypatch.setattr(gmm, "MAX_ITERS", 2)
    warm = fit_batch(X, first)
    assert len(warm.log_likelihoods) <= 2
    assert warm.log_likelihoods[-1] >= warm.log_likelihoods[0] - 1e-8
    assert warm.K == first.K


def test_loglik_nondecreasing():
    rng = np.random.default_rng(34)
    X = blobs(rng, [np.zeros(4), np.ones(4), 2 * np.ones(4)], 40, scale=0.3)
    params = fit_batch(X, fresh_params(X, K=3, seed=1))
    lls = params.log_likelihoods
    assert len(lls) >= 2
    for prev, cur in zip(lls, lls[1:]):
        assert cur >= prev - 1e-8


def test_mixing_sums_to_one():
    rng = np.random.default_rng(35)
    X = blobs(rng, [np.zeros(3), np.ones(3)], 50)
    params = fit_batch(X, fresh_params(X, K=2, seed=0))
    assert params.mixing.sum() == pytest.approx(1.0, abs=1e-9)
    assert (params.variances >= 1e-6).all()


def test_degenerate_input():
    X = np.tile(np.array([1.0, 2.0]), (10, 1))
    with pytest.raises(DegenerateInput):
        fresh_params(X, K=2, seed=0)
    with pytest.raises(DegenerateInput):
        fresh_params(X[:1], K=2, seed=0)
    # Two distinct points whose squared distance underflows to zero.
    with pytest.raises(DegenerateInput):
        fresh_params(np.array([[0.0], [1e-200]]), K=2, seed=0)


class TestAssign:
    def _params(self):
        rng = np.random.default_rng(36)
        X = blobs(rng, [np.zeros(2), 3 * np.ones(2)], 50)
        return fit_batch(X, fresh_params(X, K=2, seed=0))

    def test_point_at_mean(self):
        params = self._params()
        for k in range(2):
            assert assign([params.means[k]], params)[0] == k or (
                # identical components would tie to the lower index
                np.allclose(params.means[0], params.means[1])
            )

    def test_symmetric_tie_to_component_zero(self):
        params = self._params()
        params.means = np.array([[0.0, 0.0], [2.0, 0.0]])
        params.variances = np.ones((2, 2))
        params.mixing = np.array([0.5, 0.5])
        assert assign([np.array([1.0, 0.0])], params)[0] == 0

    def test_labels_match_brute_force_posterior(self):
        rng = np.random.default_rng(37)
        params = self._params()
        X = rng.normal(size=(40, 2)) * 2
        labels = assign(X, params)
        # independent responsibility computation in plain math
        for x, lab in zip(X, labels):
            dens = []
            for k in range(params.K):
                var = params.variances[k]
                log_d = -0.5 * (
                    2 * np.log(2 * np.pi)
                    + np.log(var).sum()
                    + (((x - params.means[k]) ** 2) / var).sum()
                )
                dens.append(np.log(params.mixing[k]) + log_d)
            assert lab == int(np.argmax(dens))
