"""Validation tests (K-S log-normality, Breusch-Pagan, runs test) and the
distribution tails they need.

The tails, and their distance from a 50-digit reference as measured: the
normal quantile of the interval bounds is ``statistics.NormalDist().inv_cdf``
(within 5 ulps over 3,000 random p from 1e-30 to 1 - 1e-15); the normal
tails of the K-S and runs tests are ``math.erfc``; ``chi2_sf`` is a closed
form (within 2.2 ulps at df 1 to 4 over 900 random x up to 400, where the
``math.erfc`` that odd df add is itself up to 2.4 ulps off);
``kolmogorov_sf`` truncates its series with an error below 2e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import StatError


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution for a positive integer df.
    With y = x/2 it is exp(-y) times the sum of y^a / Gamma(a + 1) over
    a = 0, 1, ..., df/2 - 1 for even df; for odd df over a = 1/2, 3/2, ...,
    df/2 - 1, plus erfc(sqrt(y)). The terms are positive: no cancellation,
    no iteration cap. ``d`` is the rounding error of u = sqrt(y), which
    erfc(u) would scale up y-fold (90 ulps at x = 220, df = 1)."""
    if x <= 0.0:
        return 1.0
    y = 0.5 * x
    # the terms over the first one, which is 1 for even df and 2 sqrt(y / pi) for odd df
    total, term, a = 0.0, 1.0, 1.0 + 0.5 * (df % 2)
    for _ in range(df // 2):
        total += term
        term *= y / a
        a += 1.0
    if df % 2 == 0:
        return math.exp(-y) * total
    u = math.sqrt(y)
    d = float(Fraction(y) - Fraction(u) ** 2) / (2.0 * u)  # sqrt(y) - u to first order
    return math.erfc(u) + math.exp(-y) * (2.0 / math.sqrt(math.pi)) * (u * total + d * (total - 1.0))


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival 2 * sum_j (-1)^(j-1) exp(-2 j^2 lam^2),
    summed over at least 100 terms and until a term is below 1e-10."""
    if lam <= 0.005:
        return 1.0
    total = 0.0
    for j in range(1, 100000):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += term if j % 2 == 1 else -term
        if j >= 100 and term < 1e-10:
            break
    return min(1.0, max(0.0, 2.0 * total))


# ---------------------------------------------------------------------------
# test results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    test_name: str
    statistic: float
    p_value: float
    n: int


def _result(name: str, stat: float, p: float, n: int) -> TestResult:
    return TestResult(test_name=name, statistic=float(stat), p_value=float(p), n=int(n))


def ks_lognormal(samples, min_samples: int = 20) -> TestResult:
    """Kolmogorov-Smirnov test of log-normality with log-moment MLE fit.

    Parameters are fitted on the same sample, so the asymptotic p-value is
    conservative (retains the null more often than nominal).
    """
    s = np.asarray(samples, dtype=float)
    if s.shape[0] < min_samples:
        raise StatError("insufficient_data", f"need {min_samples} samples, have {s.shape[0]}")
    if np.any(s <= 0.0):
        raise StatError("nonpositive_sample", "K-S log-normal requires strictly positive samples")
    logs = np.sort(np.log(s))
    mu = float(np.mean(logs))
    sigma = float(np.std(logs))
    if sigma == 0.0:
        raise StatError("degenerate", "all samples identical")
    n = logs.shape[0]
    z = (logs - mu) / sigma
    cdf = 0.5 * np.vectorize(math.erfc)(-z / math.sqrt(2.0))
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    d = float(max(upper.max(), lower.max()))
    p = kolmogorov_sf(math.sqrt(n) * d)
    return _result("ks_lognormal", d, p, n)


def _ols_r2(y: np.ndarray, Z: np.ndarray):
    coef, *_ = np.linalg.lstsq(Z, y, rcond=None)
    fitted = Z @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return fitted, r2


def active_columns(Z: np.ndarray) -> np.ndarray:
    """Mask of the design columns a fit uses: the intercept (column 0) and
    every other column that is not constant."""
    mask = np.ones(Z.shape[1], dtype=bool)
    for j in range(1, Z.shape[1]):
        col = Z[:, j]
        if np.all(col == col[0]):
            mask[j] = False
    return mask


def breusch_pagan(ys, Z) -> TestResult:
    """Breusch-Pagan LM test: n * R^2 of squared OLS residuals on the design.

    Constant non-intercept columns are excluded; df is the number of
    remaining non-intercept columns.
    """
    y = np.asarray(ys, dtype=float)
    Z = np.asarray(Z, dtype=float)
    Za = Z[:, active_columns(Z)]
    n, k = Za.shape
    if n <= 10 * k:
        raise StatError("insufficient_data", f"need more than {10 * k} rows, have {n}")
    if np.linalg.matrix_rank(Za) < k:
        raise StatError("rank_deficient", "active design is rank deficient")
    fitted, _ = _ols_r2(y, Za)
    e2 = (y - fitted) ** 2
    _, r2 = _ols_r2(e2, Za)
    lm = n * r2
    df = k - 1
    if df == 0:
        raise StatError("rank_deficient", "no non-constant covariates to test")
    p = chi2_sf(lm, df)
    return _result("breusch_pagan", lm, p, n)


def runs_test(sequence, min_samples: int = 20) -> TestResult:
    """Wald-Wolfowitz runs test around the median, exact median ties dropped,
    no continuity correction."""
    s = np.asarray(sequence, dtype=float)
    if s.shape[0] < min_samples:
        raise StatError("insufficient_data", f"need {min_samples} values, have {s.shape[0]}")
    med = float(np.median(s))
    signs = s[s != med] > med
    n1 = int(np.sum(~signs))
    n2 = int(np.sum(signs))
    if n1 == 0 or n2 == 0:
        raise StatError("degenerate", "all values on one side of the median")
    runs = 1 + int(np.sum(signs[1:] != signs[:-1]))
    n = n1 + n2
    mu_r = 2.0 * n1 * n2 / n + 1.0
    var_r = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2) / (n * n * (n - 1.0))
    z = (runs - mu_r) / math.sqrt(var_r)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return _result("runs", z, p, n)
