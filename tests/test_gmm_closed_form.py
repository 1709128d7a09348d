"""The closed-form GMM steps against their loops over the components (helpers)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logevo import gmm
from logevo.errors import DegenerateInput
from logevo.gmm import VAR_FLOOR, GmmParams
from logevo.pipeline import RunConfig, prepare

from helpers import (
    gmm_assign_reference,
    gmm_fit_reference,
    gmm_fresh_params_reference,
    gmm_log_densities_reference,
    gmm_m_step_reference,
    make_evolution_jsonl,
    make_loghub_sample,
    unit_vectors,
    write_jsonl,
)


@st.composite
def mixtures(draw):
    """Unit rows, some of them near-duplicates of an earlier row, and mixture
    params whose means lie inside the unit ball, some components collapsed to
    the variance floor and some centered on a row."""
    n, d, K = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = unit_vectors(rng, n, d)
    for i in range(1, n):
        nudge = draw(st.sampled_from([None, 0.0, 1e-12, 1e-9, 1e-6]))
        if nudge is not None:
            v = X[rng.integers(i)] + nudge * rng.normal(size=d)
            X[i] = v / np.linalg.norm(v)
    means = unit_vectors(rng, K, d) * rng.uniform(0.0, 1.0, size=(K, 1))
    variances = rng.uniform(VAR_FLOOR, 1.0, size=(K, d))
    for k in range(K):
        if draw(st.booleans()):
            variances[k] = VAR_FLOOR
        if draw(st.booleans()):
            means[k] = X[rng.integers(n)]
    return X, GmmParams(K, means, variances, rng.dirichlet(np.ones(K)))


@settings(max_examples=300, deadline=None)
@given(mixtures())
def test_log_densities_match_the_loop(mixture):
    X, params = mixture
    np.testing.assert_allclose(
        gmm._log_densities(X, params), gmm_log_densities_reference(X, params), rtol=0, atol=1e-6
    )


@settings(max_examples=300, deadline=None)
@given(mixtures(), st.booleans())
def test_m_step_matches_the_loop(mixture, starve_last):
    X, params = mixture
    resp = np.exp(gmm._log_resp(X, params)[0])
    if starve_last:  # a component with no responsibility at all
        resp[:, -1] = 0.0
    got, want = gmm._m_step(X, resp), gmm_m_step_reference(X, resp)
    np.testing.assert_allclose(got.variances, want.variances, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(got.means, want.means)
    np.testing.assert_array_equal(got.mixing, want.mixing)


def _evolution_batches(tmp_path):
    write_jsonl(tmp_path / "events.jsonl", make_evolution_jsonl(days=10))
    return prepare(RunConfig(input=str(tmp_path / "events.jsonl"), format="jsonl"))


def _workspace_batches(tmp_path):
    # The input of test_cli's workspace.
    (tmp_path / "sample.log").write_text(make_loghub_sample("HDFS_2", 600, seed=1))
    return prepare(RunConfig(input=str(tmp_path / "sample.log"), line_format="HDFS_2"))


@pytest.mark.parametrize("K", [3, 11])
@pytest.mark.parametrize("batches", [_evolution_batches, _workspace_batches],
                         ids=["evolution", "workspace"])
def test_a_warm_started_run_matches_the_loops(tmp_path, batches, K):
    fit = ref = None
    for vecs in batches(tmp_path).vectors_by_batch:
        if not len(vecs):
            continue
        fit = gmm.fit_batch(vecs, fit or gmm.fresh_params(vecs, K))
        ref = gmm_fit_reference(vecs, ref or gmm_fresh_params_reference(vecs, K))
        assert gmm.assign(vecs, fit) == gmm_assign_reference(vecs, ref)
        assert len(fit.log_likelihoods) == len(ref.log_likelihoods)
        np.testing.assert_allclose(fit.log_likelihoods, ref.log_likelihoods, rtol=1e-9)


@pytest.mark.parametrize("K", [1, 2, 5])
def test_seeding_picks_the_means_of_the_loop(K):
    rng = np.random.default_rng(41)
    X = unit_vectors(rng, 30, 4)
    for seed in range(20):
        got, want = gmm.fresh_params(X, K, seed), gmm_fresh_params_reference(X, K, seed)
        np.testing.assert_array_equal(got.means, want.means)
        np.testing.assert_array_equal(got.variances, want.variances)


@pytest.mark.parametrize(
    "rows, K, found",
    [([[1.0, 0.0]] * 10, 2, 1),
     ([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], 3, 2),
     ([[1.0, 0.0]], 2, 1),
     ([[0.0], [1e-200]], 2, 1)],  # two rows whose squared distance underflows to zero
    ids=["one_row_repeated", "two_of_three", "fewer_points_than_K", "underflow"],
)
def test_too_few_distinct_points_names_how_many(rows, K, found):
    with pytest.raises(DegenerateInput,
                       match=f"^{found} distinct points, fewer than K={K} components$"):
        gmm.fresh_params(np.array(rows), K, seed=0)


def test_fit_leaves_its_init_as_it_was():
    X = unit_vectors(np.random.default_rng(42), 40, 3)
    init = gmm.fresh_params(X, 3, seed=0)
    before = [a.copy() for a in (init.means, init.variances, init.mixing)]
    fitted = gmm.fit_batch(X, init)
    assert len(fitted.log_likelihoods) > 1 and init.log_likelihoods == []
    for a, b in zip((init.means, init.variances, init.mixing), before):
        np.testing.assert_array_equal(a, b)
