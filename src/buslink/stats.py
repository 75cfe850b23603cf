"""Validation tests (K-S log-normality, Breusch-Pagan, runs test), the
special functions they need, and the package's one quantile rule.

The special functions are implemented here rather than imported: normal
CDF/quantile via the C library error function, the regularized upper
incomplete gamma for chi-square tails, and the alternating Kolmogorov
series. Target accuracy 1e-10 absolute, checked against tabulated values
in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StatError


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def percentile_band(offsets: np.ndarray) -> np.ndarray:
    """The 2.5 and 97.5 percentiles of each column from one partition, bit for
    bit ``np.percentile(offsets, [2.5, 97.5], axis=0, method="linear")``, whose
    lerp counts down from the upper value when the weight is >= 0.5."""
    v = np.array([2.5, 97.5]) / 100 * (len(offsets) - 1)
    lo = np.minimum(np.floor(v).astype(np.intp), len(offsets) - 2)  # M = 1: -1, weight v + 1
    g = (v - lo)[:, None]
    part = np.partition(offsets, [*lo, *lo + 1], axis=0)
    a, b = part[lo], part[lo + 1]
    return np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (Acklam's rational fit plus one Halley
    refinement; good to ~1e-15 over (0, 1))."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile domain is (0, 1), got {p}")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    err = normal_cdf(x) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


_GAMMA_EPS = 1e-14
_GAMMA_ITMAX = 500


def _gamma_series_p(a: float, x: float) -> float:
    ap = a
    total = 1.0 / a
    term = total
    for _ in range(_GAMMA_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf_q(a: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x)."""
    if a <= 0.0 or x < 0.0:
        raise ValueError("reg_upper_gamma needs a > 0 and x >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series_p(a, x)
    return _gamma_cf_q(a, x)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution."""
    if x <= 0.0:
        return 1.0
    return reg_upper_gamma(0.5 * df, 0.5 * x)


def kolmogorov_sf(lam: float, min_terms: int = 100, tol: float = 1e-10) -> float:
    """Asymptotic Kolmogorov survival 2 * sum_j (-1)^(j-1) exp(-2 j^2 lam^2)."""
    if lam <= 0.005:
        return 1.0
    total = 0.0
    for j in range(1, 100000):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += term if j % 2 == 1 else -term
        if j >= min_terms and term < tol:
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
    decision_at_0_05: str  # "reject" | "retain"


def _result(name: str, stat: float, p: float, n: int) -> TestResult:
    return TestResult(test_name=name, statistic=float(stat), p_value=float(p),
                      n=int(n), decision_at_0_05="reject" if p < 0.05 else "retain")


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
    return coef, fitted, r2


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
    _, fitted, _ = _ols_r2(y, Za)
    e2 = (y - fitted) ** 2
    _, _, r2 = _ols_r2(e2, Za)
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
