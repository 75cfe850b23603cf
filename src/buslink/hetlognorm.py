"""Heteroscedastic log-normal road-time model fitted by maximum likelihood.

Log road time y is normal with mean beta'z and variance exp(gamma'z),
where z = [1, rain, peak, weekday, traffic]. Fitting is Fisher scoring
with analytic score and the closed-form block-diagonal information
matrix, started from OLS. The information matrix is stored as the total
over observations; interval variances are a' (F^-1)_bb a with no extra
sample-size division.

A coefficient whose covariate column was constant in the fit is masked
and held as 0.0. ``linear_rows`` is the one beta'z of every prediction:
point, interval, evaluate's test-row scores and each forecast's speeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import FitError, NumericalError
from .stats import active_columns

COVARIATE_COUNT = 4
COEF_COUNT = COVARIATE_COUNT + 1  # intercept + covariates
GAMMA_FLOOR = -30.0  # exp floor guarding 1/sigma^2 overflow
SCORE_TOL = 1e-6  # converged when the score norm over n is at most this
MAX_ITER = 500  # Fisher-scoring steps before no_convergence


def design_matrix(X) -> np.ndarray:
    """Augment an (n, 4) covariate matrix with an intercept column."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.shape[1] != COVARIATE_COUNT:
        raise ValueError(f"expected {COVARIATE_COUNT} covariates, got {X.shape[1]}")
    return np.column_stack([np.ones(X.shape[0]), X])


def linear_rows(Z, coef) -> np.ndarray:
    """coef'z per row of ``Z * coef`` (design rows against one coefficient
    vector, or one row against stacked coefficient rows), summed term by
    term in column order; ``Z @ coef`` can differ from it in the last bit."""
    return (Z * coef).sum(axis=1)


def log_likelihood(beta, gamma, ys, Z) -> float:
    """Gaussian log-likelihood with log-linear variance, summed over rows."""
    ys = np.asarray(ys, dtype=float)
    Z = np.asarray(Z, dtype=float)
    n = ys.shape[0]
    gz = Z @ np.asarray(gamma, dtype=float)
    resid = ys - Z @ np.asarray(beta, dtype=float)
    return float(-0.5 * n * np.log(2.0 * np.pi)
                 - 0.5 * np.sum(gz)
                 - np.sum(resid * resid / (2.0 * np.exp(gz))))


def score(beta, gamma, ys, Z) -> np.ndarray:
    """Gradient of the log-likelihood, beta block then gamma block."""
    ys = np.asarray(ys, dtype=float)
    Z = np.asarray(Z, dtype=float)
    gz = Z @ np.asarray(gamma, dtype=float)
    inv_var = np.exp(-gz)
    resid = ys - Z @ np.asarray(beta, dtype=float)
    g_beta = Z.T @ (resid * inv_var)
    g_gamma = Z.T @ (-0.5 + 0.5 * resid * resid * inv_var)
    return np.concatenate([g_beta, g_gamma])


def fisher_information(beta, gamma, Z) -> np.ndarray:
    """Expected information: blockdiag(Z'SZ, Z'Z/2), cross blocks exactly 0."""
    Z = np.asarray(Z, dtype=float)
    k = Z.shape[1]
    inv_var = np.exp(-(Z @ np.asarray(gamma, dtype=float)))
    fim = np.zeros((2 * k, 2 * k))
    fim[:k, :k] = Z.T @ (Z * inv_var[:, None])
    fim[k:, k:] = 0.5 * (Z.T @ Z)
    return fim


@dataclass(frozen=True)
class HetLogNormalModel:
    """Fitted per-link model. Masked (constant-column) coefficients are 0.0
    in ``beta``/``gamma``, so they contribute nothing to beta'z; ``fim`` is
    the 10x10 total information with zero rows/columns at masked positions."""

    beta: np.ndarray  # (5,)
    gamma: np.ndarray  # (5,)
    fim: np.ndarray  # (10, 10)
    n: int
    active_mask: np.ndarray  # (5,) bool, intercept always True
    loglik: float


def fit(ys, X, min_samples: int = 30) -> HetLogNormalModel:
    """Maximum-likelihood fit of (beta, gamma) for one link.

    ys are log road seconds, X the (n, 4) binary covariates. Starts from
    OLS (gamma0 = log mean squared residual), then Fisher-scoring steps
    with halving on likelihood decrease until the score norm scaled by n
    drops to ``SCORE_TOL``.
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.shape[0]
    if n < min_samples:
        raise FitError("insufficient_data", f"need at least {min_samples} observations, have {n}")
    Z_full = design_matrix(X)
    mask = active_columns(Z_full)
    Z = Z_full[:, mask]
    k = Z.shape[1]
    if np.linalg.matrix_rank(Z) < k:
        raise FitError("singular_design", "active design is rank deficient")

    beta, *_ = np.linalg.lstsq(Z, ys, rcond=None)
    resid = ys - Z @ beta
    msr = float(np.mean(resid * resid))
    if msr <= 0.0:
        raise FitError("degenerate_variance", "zero-variance sample")
    gamma = np.zeros(k)
    gamma[0] = np.log(msr)

    ll = log_likelihood(beta, gamma, ys, Z)
    for _ in range(MAX_ITER):
        if np.min(Z @ gamma) < GAMMA_FLOOR:
            raise FitError("degenerate_variance",
                           f"log variance below {GAMMA_FLOOR}; sample is (near) deterministic")
        grad = score(beta, gamma, ys, Z)
        if np.linalg.norm(grad) / n <= SCORE_TOL:
            break
        fim = fisher_information(beta, gamma, Z)
        try:
            step = np.linalg.solve(fim, grad)
        except np.linalg.LinAlgError as exc:
            raise FitError("singular_design", f"information matrix singular: {exc}") from exc
        scale = 1.0
        for _ in range(40):
            b_new = beta + scale * step[:k]
            g_new = gamma + scale * step[k:]
            ll_new = log_likelihood(b_new, g_new, ys, Z)
            if ll_new >= ll - 1e-12:
                beta, gamma, ll = b_new, g_new, ll_new
                break
            scale *= 0.5
        else:
            break  # no step length raised the likelihood
    score_norm = np.linalg.norm(score(beta, gamma, ys, Z)) / n
    if score_norm > SCORE_TOL:
        raise FitError("no_convergence",
                       f"score norm {score_norm:.3e} after {MAX_ITER} iterations")

    coefs = np.zeros((2, COEF_COUNT))  # masked coefficients stay 0.0
    coefs[:, mask] = beta, gamma
    fim10 = np.zeros((2 * COEF_COUNT, 2 * COEF_COUNT))
    fim10[np.ix_(np.tile(mask, 2), np.tile(mask, 2))] = fisher_information(beta, gamma, Z)
    return HetLogNormalModel(beta=coefs[0], gamma=coefs[1], fim=fim10, n=n,
                             active_mask=mask, loglik=float(ll))


def predict_point(model: HetLogNormalModel, x):
    """Median road time in seconds, exp(beta'z) through ``linear_rows``: a
    float for one covariate row x, an array for an (n, 4) matrix of rows."""
    points = np.exp(linear_rows(design_matrix(x), model.beta))
    return float(points[0]) if np.ndim(x) == 1 else points


@dataclass(frozen=True)
class PredictionWithBounds:
    point: float
    lower: float
    upper: float
    level: float = 0.95

    @property
    def width(self) -> float:
        return self.upper - self.lower


def mu_interval_stddev(model: HetLogNormalModel, x) -> float:
    """Asymptotic std dev of the fitted mean at covariates x."""
    a = design_matrix(x)[0, model.active_mask]
    f_bb = model.fim[np.ix_(model.active_mask, model.active_mask)]
    try:
        sol = np.linalg.solve(f_bb, a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular_fim", f"cannot invert information matrix: {exc}") from exc
    var = float(a @ sol)
    if var < 0.0:
        raise NumericalError("singular_fim", "negative interval variance")
    return float(np.sqrt(var))


def predict_interval(model: HetLogNormalModel, x, level: float = 0.95) -> PredictionWithBounds:
    """Point estimate with confidence bounds exp(mu_hat -+ z * sd(mu_hat))."""
    mu = float(linear_rows(design_matrix(x), model.beta)[0])
    sd = mu_interval_stddev(model, x)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    lower, point, upper = np.exp([mu - z * sd, mu, mu + z * sd]).tolist()
    return PredictionWithBounds(point=point, lower=lower, upper=upper, level=level)
