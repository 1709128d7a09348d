"""Warm-start diagonal-covariance Gaussian mixture baseline.

Each batch re-runs EM initialized from the previous batch's fitted
parameters, giving the otherwise-offline model a crude online adaptation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput

VAR_FLOOR = 1e-6
MAX_ITERS = 100  # EM iterations per batch at most
TOL = 1e-4  # EM stops once the log-likelihood gains less than this


@dataclass
class GmmParams:
    K: int
    means: np.ndarray  # (K, d)
    variances: np.ndarray  # (K, d), diagonal, floored
    mixing: np.ndarray  # (K,), sums to 1
    log_likelihoods: list[float] = field(default_factory=list)  # per EM iteration


def _log_densities(points: np.ndarray, params: GmmParams) -> np.ndarray:
    """Per-point, per-component log N(x | mu_k, diag(var_k)). Shape (n, K)."""
    n, d = points.shape
    out = np.empty((n, params.K))
    for k in range(params.K):
        var = params.variances[k]
        diff = points - params.means[k]
        out[:, k] = -0.5 * (
            d * np.log(2.0 * np.pi) + np.log(var).sum() + (diff**2 / var).sum(axis=1)
        )
    return out


def _log_resp(points: np.ndarray, params: GmmParams) -> tuple[np.ndarray, float]:
    """Log responsibilities and total log-likelihood."""
    weighted = _log_densities(points, params) + np.log(params.mixing)
    # logsumexp along components, stabilized
    m = weighted.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(weighted - m).sum(axis=1))
    return weighted - lse[:, None], float(lse.sum())


def _kmeanspp_means(points: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    means = [points[rng.integers(n)]]
    for _ in range(K - 1):
        d2 = np.min(
            [((points - m) ** 2).sum(axis=1) for m in means], axis=0
        )
        total = d2.sum()
        if total == 0.0:
            raise DegenerateInput("fewer distinct points than components")
        means.append(points[rng.choice(n, p=d2 / total)])
    return np.array(means)


def fresh_params(points: np.ndarray, K: int, seed: int = 0) -> GmmParams:
    """k-means++-style seeding: spread means, global variance, uniform mixing."""
    if points.shape[0] < K:
        raise DegenerateInput(f"{points.shape[0]} points < K={K}")
    if np.unique(points, axis=0).shape[0] < K:
        raise DegenerateInput("fewer distinct points than components")
    rng = np.random.default_rng(seed)
    means = _kmeanspp_means(points, K, rng)
    var = np.maximum(points.var(axis=0), VAR_FLOOR)
    return GmmParams(
        K=K,
        means=means,
        variances=np.tile(var, (K, 1)),
        mixing=np.full(K, 1.0 / K),
    )


def fit_batch(points: list[np.ndarray] | np.ndarray, init: GmmParams) -> GmmParams:
    """EM from ``init`` until the log-likelihood gain drops below ``TOL``
    or ``MAX_ITERS`` iterations run out."""
    X = np.asarray(points, dtype=float)
    params = GmmParams(
        K=init.K,
        means=init.means.copy(),
        variances=init.variances.copy(),
        mixing=init.mixing.copy(),
    )
    prev_ll = -np.inf
    for _ in range(MAX_ITERS):
        log_r, ll = _log_resp(X, params)
        params.log_likelihoods.append(ll)
        if ll - prev_ll < TOL and np.isfinite(prev_ll):
            break
        prev_ll = ll
        resp = np.exp(log_r)  # (n, K)
        nk = resp.sum(axis=0) + 1e-12
        params.mixing = nk / nk.sum()
        params.means = (resp.T @ X) / nk[:, None]
        for k in range(params.K):
            diff = X - params.means[k]
            params.variances[k] = np.maximum(
                (resp[:, k][:, None] * diff**2).sum(axis=0) / nk[k], VAR_FLOOR
            )
    return params


def assign(points: list[np.ndarray] | np.ndarray, params: GmmParams) -> list[int]:
    """Label each point with its maximum-responsibility component."""
    X = np.asarray(points, dtype=float)
    log_r, _ = _log_resp(X, params)
    # argmax takes the lowest index on ties
    return [int(i) for i in np.argmax(log_r, axis=1)]
