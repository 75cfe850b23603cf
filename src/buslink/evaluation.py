"""Baselines (historical mean, linear regression on raw seconds), point
metrics, and the train/test comparison driver.

The historical-mean band takes its 2.5/97.5 quantiles from
``np.percentile``'s linear rule. The LN points
at the test rows are ``hetlognorm.predict_point`` and the LR points
``hetlognorm.linear_rows``, the one beta'z rule of every prediction;
both fits hold 0.0 at masked coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, FitError, MetricError
from .hetlognorm import (COVARIATE_COUNT, DEFAULT_MIN_FIT_SAMPLES, PredictionWithBounds,
                         design_matrix, fit as ln_fit, linear_rows, predict_interval, predict_point)
from .ingest import day_number
from .stats import active_columns


def hm_fit(samples, min_samples: int = 10) -> PredictionWithBounds:
    """Historical-mean band: point = training mean, bounds = training
    2.5/97.5 quantiles. The mean is not guaranteed to lie inside the band."""
    s = np.asarray(samples, dtype=float)
    if s.shape[0] < min_samples:
        raise FitError("insufficient_data", f"need {min_samples} samples, have {s.shape[0]}")
    q2_5, q97_5 = np.percentile(s, [2.5, 97.5]).tolist()
    return PredictionWithBounds(point=float(np.mean(s)), lower=q2_5, upper=q97_5)


@dataclass(frozen=True)
class LinearBaseline:
    coef: np.ndarray  # (5,), 0.0 at masked positions
    active_mask: np.ndarray  # (5,) bool
    residual_variance: float  # unbiased, raw seconds^2
    gram_inv: np.ndarray  # (k, k) inverse of Z'Z on the active design

    def mean_variance(self, a: np.ndarray):
        """Sampling variance of the fitted mean at an active design row a."""
        return self.residual_variance * (a @ self.gram_inv @ a)


def lr_fit(ys, X, min_samples: int = 11) -> LinearBaseline:
    """OLS of raw seconds on the binary covariates with intercept."""
    y = np.asarray(ys, dtype=float)
    n = y.shape[0]
    if n < min_samples:
        raise FitError("insufficient_data", f"need {min_samples} samples, have {n}")
    Z_full = design_matrix(X)
    mask = active_columns(Z_full)
    Z = Z_full[:, mask]
    k = Z.shape[1]
    if np.linalg.matrix_rank(Z) < k:
        raise FitError("rank_deficient", "active design is rank deficient")
    gram_inv = np.linalg.inv(Z.T @ Z)
    coef = gram_inv @ (Z.T @ y)
    resid = y - Z @ coef
    dof = max(n - k, 1)
    s2 = float(resid @ resid) / dof
    coef5 = np.zeros(Z_full.shape[1])
    coef5[mask] = coef
    return LinearBaseline(coef=coef5, active_mask=mask, residual_variance=s2, gram_inv=gram_inv)


def lr_predict(m: LinearBaseline, x, level: float = 0.95) -> PredictionWithBounds:
    """Mean prediction with its sampling CI (constant-variance normal errors)."""
    row = design_matrix(x)
    point = float(linear_rows(row, m.coef)[0])
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * np.sqrt(m.mean_variance(row[0, m.active_mask]))
    return PredictionWithBounds(point=point, lower=point - float(half),
                                upper=point + float(half), level=level)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _paired(obs, pred):
    o = np.asarray(obs, dtype=float)
    p = np.asarray(pred, dtype=float)
    if o.shape[0] == 0:
        raise MetricError("empty", "no observations")
    if o.shape != p.shape:
        raise MetricError("length_mismatch", f"{o.shape} vs {p.shape}")
    return o, p


def rmse(obs, pred) -> float:
    o, p = _paired(obs, pred)
    return float(np.sqrt(np.mean((o - p) ** 2)))


def mae(obs, pred) -> float:
    o, p = _paired(obs, pred)
    return float(np.mean(np.abs(o - p)))


# ---------------------------------------------------------------------------
# train/test comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkEvaluation:
    route_key: tuple
    link_index: int
    n_train: int
    n_test: int
    mae_ln: float | None = None
    rmse_ln: float | None = None
    bw_ln: float | None = None
    mae_hm: float | None = None
    rmse_hm: float | None = None
    bw_hm: float | None = None
    mae_lr: float | None = None
    rmse_lr: float | None = None
    bw_lr: float | None = None
    note: str = ""


# the nine scores in column order, the fields a failed fit leaves None
METRICS = tuple(f.name for f in fields(LinkEvaluation) if f.default is None)


def modal_covariates(X) -> np.ndarray:
    """Most frequent row of a 0/1 covariate matrix; a tie goes to the
    lexicographically smallest row, which has the smallest code."""
    bits = 1 << np.arange(COVARIATE_COUNT)[::-1]  # a row's code: first column highest
    code = np.argmax(np.bincount(X.astype(bool) @ bits))
    return ((code & bits) > 0).astype(float)


def split_by_date(table, cut_date: str, tz_offset: float) -> np.ndarray:
    """Date-cut split of an ``ObservationTable`` on depart_prev: True where
    the local date (``ingest.local_day_hour``) is before the ``YYYY-MM-DD``
    cut (train), False from it on (test)."""
    try:
        cut_day = day_number(cut_date)
    except ValueError:
        raise ConfigError("bad_config", f"cut_date {cut_date!r} is not a YYYY-MM-DD date") from None
    return table.depart_prev + 3600 * tz_offset < 86400 * cut_day


def evaluate_split(table, cut_date: str, tz_offset: float,
                   min_fit_samples: int = DEFAULT_MIN_FIT_SAMPLES) -> list:
    """Fit LN-MLE / HM / LR per link of an ``ObservationTable`` on the
    training side of the date cut and score them on the test side. Per-link
    failures become table gaps."""
    train = split_by_date(table, cut_date, tz_offset)
    n_train = int(np.count_nonzero(train))
    if not 0 < n_train < train.size:
        raise MetricError("empty_split", f"train={n_train} test={train.size - n_train} "
                          f"at cut {cut_date}")

    results = []
    for (route_key, link_index), rows in table.groups.items():
        tr, te = rows[train[rows]], rows[~train[rows]]
        base = dict(route_key=route_key, link_index=link_index,
                    n_train=len(tr), n_test=len(te))
        if not len(tr) or not len(te):
            results.append(LinkEvaluation(**base, note="empty side"))
            continue
        y_tr, X_tr = table.road[tr], table.covariates[tr]
        y_te, X_te = table.road[te], table.covariates[te]
        modal = modal_covariates(X_tr)
        # (name, fit, points at the test rows, bounds at x), scored in this order
        models = (
            ("ln", lambda: ln_fit(np.log(y_tr), X_tr, min_samples=min_fit_samples),
             lambda m: predict_point(m, X_te), predict_interval),
            ("hm", lambda: hm_fit(y_tr), lambda b: np.full(len(te), b.point), lambda b, x: b),
            ("lr", lambda: lr_fit(y_tr, X_tr),
             lambda m: linear_rows(design_matrix(X_te), m.coef), lr_predict),
        )
        vals: dict = {}
        notes = []
        for name, fit, points, bounds in models:
            try:
                m = fit()
            except FitError as exc:
                notes.append(f"{name.upper()}: {exc.kind}")
                continue
            pred = points(m)
            vals[f"mae_{name}"] = mae(y_te, pred)
            vals[f"rmse_{name}"] = rmse(y_te, pred)
            vals[f"bw_{name}"] = bounds(m, modal).width
        results.append(LinkEvaluation(**base, **vals, note="; ".join(notes)))
    return results
