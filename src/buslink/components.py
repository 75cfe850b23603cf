"""Stop dwell (empirical bootstrap) and intersection time (log-normal) models.

Dwell keeps the raw sample pool because skipped stops put a spike at
zero that no unimodal fit survives; sampling is a bootstrap draw
(``bootstrap_pick``) so the spike is preserved. Intersection times are
fitted log-normal from the strictly positive samples only, with the
excluded-zero fraction kept as metadata; ``lognormal_from_z`` turns a
standard normal variate into a draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError

DEFAULT_MIN_COMPONENT_SAMPLES = 10


@dataclass(frozen=True)
class EmpiricalDwell:
    stop_id: str
    samples: np.ndarray  # sorted, non-negative seconds
    pooled: bool = False


def fit_dwell(stop_id: str, samples, min_samples: int = DEFAULT_MIN_COMPONENT_SAMPLES,
              pooled: bool = False) -> EmpiricalDwell:
    s = np.sort(np.asarray(samples, dtype=float))
    need = max(min_samples, 1)  # an empty pool is no model at any minimum
    if s.shape[0] < need:
        raise FitError("insufficient_data",
                       f"stop {stop_id}: need {need} dwell samples, have {s.shape[0]}")
    if np.any(s < 0.0):
        raise FitError("invalid_sample", f"stop {stop_id}: negative dwell sample")
    return EmpiricalDwell(stop_id=stop_id, samples=s, pooled=pooled)


def bootstrap_pick(samples: np.ndarray, u: float) -> float:
    """Uniform draw from a sample pool given a uniform variate; this is the
    single bootstrap definition, used by the scalar reference
    ``accel._markov_scalar`` and vectorized in ``accel.markov_offsets``."""
    idx = int(u * samples.shape[0])
    if idx >= samples.shape[0]:
        idx = samples.shape[0] - 1
    return float(samples[idx])


@dataclass(frozen=True)
class IntersectionLogNormal:
    intersection_id: str
    mu_s: float  # log seconds
    sigma_s: float  # log seconds, >= 0 (population MLE)
    n: int
    excluded_zero_fraction: float = 0.0
    pooled: bool = False


def fit_intersection(intersection_id: str, samples,
                     min_samples: int = DEFAULT_MIN_COMPONENT_SAMPLES,
                     excluded_zero_fraction: float = 0.0,
                     pooled: bool = False) -> IntersectionLogNormal:
    """Log-normal MLE from strictly positive waiting/passing times."""
    s = np.asarray(samples, dtype=float)
    need = max(min_samples, 1)  # an empty sample is no model at any minimum
    if s.shape[0] < need:
        raise FitError("insufficient_data",
                       f"intersection {intersection_id}: need {need} samples, have {s.shape[0]}")
    if np.any(s <= 0.0):
        raise FitError("invalid_sample",
                       f"intersection {intersection_id}: nonpositive sample in log-normal fit")
    logs = np.log(s)
    return IntersectionLogNormal(intersection_id=intersection_id,
                                 mu_s=float(np.mean(logs)),
                                 sigma_s=float(np.std(logs)),
                                 n=int(s.shape[0]),
                                 excluded_zero_fraction=float(excluded_zero_fraction),
                                 pooled=pooled)


def lognormal_from_z(mu: float, sigma: float, z: float) -> float:
    """Log-normal variate from a standard normal one; z = 0 gives the median."""
    return float(np.exp(mu + sigma * z))
