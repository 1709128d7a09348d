"""Warm-start diagonal-covariance Gaussian mixture baseline.

Each batch re-runs EM initialized from the previous batch's fitted
parameters, giving the otherwise-offline model a crude online adaptation.
Each EM step is one closed-form expression over all K components.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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


def _log_densities(X: np.ndarray, params: GmmParams) -> np.ndarray:
    """Per-point, per-component log N(x | mu_k, diag(var_k)), shape (n, K):
    the squared scaled distance expanded as x²/v - 2 x mu/v + mu²/v."""
    M, V = params.means, params.variances
    c = X.shape[1] * np.log(2.0 * np.pi) + np.log(V).sum(axis=1) + (M**2 / V).sum(axis=1)
    return -0.5 * (c + X**2 @ (1.0 / V).T - 2.0 * X @ (M / V).T)


def _log_resp(X: np.ndarray, params: GmmParams) -> tuple[np.ndarray, float]:
    """Log responsibilities and total log-likelihood."""
    weighted = _log_densities(X, params) + np.log(params.mixing)
    # logsumexp along components, stabilized
    m = weighted.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(weighted - m).sum(axis=1))
    return weighted - lse[:, None], float(lse.sum())


def _m_step(X: np.ndarray, resp: np.ndarray) -> GmmParams:
    """Mixing, means and floored variances from the (n, K) responsibilities."""
    r = resp.sum(axis=0)
    nk = r + 1e-12  # keeps a component with no responsibility finite
    means = (resp.T @ X) / nk[:, None]
    # sum_i resp_ik (x_i - mu_k)² / nk expands to E[x²] - mu² (2 - r / nk), and
    # r / nk is 1 but for the 1e-12.
    spread = (resp.T @ X**2) / nk[:, None] - means**2 * (2.0 - r / nk)[:, None]
    return GmmParams(len(nk), means, np.maximum(spread, VAR_FLOOR), nk / nk.sum())


def fresh_params(points: np.ndarray, K: int, seed: int = 0) -> GmmParams:
    """k-means++ seeding: spread means, global variance, uniform mixing.

    Each next mean is drawn with probability proportional to a point's squared
    distance to the nearest mean so far. When every such distance is 0, the
    points have fewer distinct rows than K, and the mixture cannot be seeded.
    """
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    chosen = [rng.integers(n)]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(K - 1):
        total = d2.sum()
        if total == 0.0:
            raise DegenerateInput(f"{len(chosen)} distinct points, fewer than K={K} components")
        chosen.append(rng.choice(n, p=d2 / total))
        d2 = np.minimum(d2, ((points - points[chosen[-1]]) ** 2).sum(axis=1))
    var = np.maximum(points.var(axis=0), VAR_FLOOR)
    return GmmParams(K, points[chosen], np.tile(var, (K, 1)), np.full(K, 1.0 / K))


def fit_batch(points: list[np.ndarray] | np.ndarray, init: GmmParams) -> GmmParams:
    """EM from ``init`` until the log-likelihood gain drops below ``TOL``
    or ``MAX_ITERS`` iterations run out. ``init`` is left as it was."""
    X = np.asarray(points, dtype=float)
    params, lls, prev_ll = init, [], -np.inf
    for _ in range(MAX_ITERS):
        log_r, ll = _log_resp(X, params)
        lls.append(ll)
        if ll - prev_ll < TOL and np.isfinite(prev_ll):
            break
        prev_ll = ll
        params = _m_step(X, np.exp(log_r))
    return replace(params, log_likelihoods=lls)


def assign(points: list[np.ndarray] | np.ndarray, params: GmmParams) -> list[int]:
    """Label each point with its maximum-responsibility component."""
    X = np.asarray(points, dtype=float)
    log_r, _ = _log_resp(X, params)
    # argmax takes the lowest index on ties
    return [int(i) for i in np.argmax(log_r, axis=1)]
