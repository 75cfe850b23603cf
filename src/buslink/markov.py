"""Link-state Markov chain: stay probabilities from predicted speeds, and
the exact law of the remaining time to every downstream stop.

A plan's road time on each link is ``hetlognorm.predict_point``'s
median exp(beta'z); ``build_plan`` takes it for all downstream links
from one ``hetlognorm.linear_rows`` call over their stacked betas.

Link i adds ``delta_t`` times a geometric step count G_i, P(G_i > m) =
p_stay^m, a bootstrap dwell (uniform over the end stop's pool) and its
intersections' log-normal times. The remaining time to stop k, their sum
up to k, is a phase-type law (Neuts, 1981). ``simulate`` draws no
variates: it returns that law's mean and 2.5/97.5 percent points, by
one inverse FFT of the product of the link transforms (the
Fourier-series method of Abate & Whitt, 1992).

* Mean: analytic, per link ``delta_t / (1 - p_stay)`` + the pool mean +
  ``exp(mu + sigma^2 / 2)`` per intersection, summed down the route.
* Grid: h = delta_t / ceil(delta_t / 1 s), the longest step of at most
  1 s that divides delta_t, so the geometric steps are exact, and so are
  whole-second dwell pools when delta_t is whole. Dwell atoms and
  intersection times are rounded *down* to the grid; a log-normal's mass
  above exp(mu + 7 sigma) (< 1.3e-12) sits at that point's floor. A
  component with every atom on the grid is exact.
* Quantile error: with N_k the components up to stop k that are not
  exact (at most the links up to k and their intersections), the
  floored time S- obeys S- <= S <= S- + N_k h (but for that < 1.3e-12
  per intersection). So [q_2.5(S-), q_97.5(S-) + N_k h] holds the exact
  band, each end within N_k h of it. A band end is the first grid point
  whose CDF reaches the level less TAIL_EPS, so FFT rounding cannot
  move it off an exact tie.
* Tail bound: n >= m r + (every component's top grid point) + 1, where
  m is the Chernoff bound at TAIL_EPS on the geometric sum, the least
  over theta of (sum_i log E[e^(theta G_i)] - log TAIL_EPS) / theta, for
  theta below min(-log max p_stay, 30). Under 1e-9 of the mass wraps past
  n h. n is the next power of two; past MAX_GRID (an array of
  about 24 * links * n bytes) a plan raises SimError("grid_too_large")
  before anything of grid size is allocated.
* Cost: a dwell or intersection model gets its grid law once per object
  and step, and its transform once, at the largest grid size it has met
  (a smaller power of two takes every (N / n)-th frequency). A forecast multiplies
  the link transforms down the route, turns each stop's product into its
  CDF's transform, and inverts all stops in one ``np.fft.irfft``.

``accel.markov_offsets`` is the M-run Monte-Carlo simulation of the same
chain, the oracle the tests check this law against. Remaining time to a
stop means time until *departure from* that stop, matching the link-total
telescoping of the decomposition identity.

``PredictionSession`` reads (time, arc) pairs and infer's rules: ``covariates(t,
traffic)``, ``thresholds[link]``, the open-road pair rule of ``inference`` and,
for the origin link, ``bisect_right(rm.stop_arcs, arc)``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .components import EmpiricalDwell
from .errors import ConfigError, SimError
from .geometry import RouteModel
from .hetlognorm import design_matrix, linear_rows
from .inference import open_road_link_of

DEFAULT_DELTA_T_S = 5.0  # the chain's time step
S_CLAMP = 1.0 + 1e-9  # keeps p_stay >= 0 on a nearly finished link
GRID_STEP_MAX = 1.0  # s; the longest grid step h
TAIL_EPS = 1e-9  # bound on the mass past the grid, and the quantile read's slack
MAX_GRID = 1 << 17  # grid points of one forecast
LOGNORMAL_TOP_Z = 7.0  # an intersection's grid ends at exp(mu + 7 sigma)
BAND = (0.025, 0.975)
_THETA = np.linspace(0.02, 0.98, 49)  # Chernoff exponents, in units of their bound


@dataclass(frozen=True)
class MarkovConfig:
    """``delta_t`` is the chain's time step, the one field a forecast reads;
    ``runs`` and ``seed`` are kept for perfbench alone (ROADMAP items 1-2)."""

    delta_t: float = DEFAULT_DELTA_T_S
    runs: int = 1000
    seed: int = 0


@dataclass(frozen=True)
class LinkPlan:
    """Everything the simulation needs about one in-scope link."""

    link_index: int
    end_stop_id: str
    remaining_dist: float
    speed: float  # link length / predicted road time
    steps: float  # remaining_dist / (delta_t * speed), clamped
    p_stay: float
    dwell: EmpiricalDwell
    intersections: tuple  # (IntersectionLogNormal, ...)


@dataclass(frozen=True)
class StopForecast:
    stop_id: str
    mean_remaining: float
    p2_5: float
    p97_5: float


@dataclass(frozen=True)
class SimulationSummary:
    origin_link: int
    origin_arc: float
    origin_time: float
    stops: tuple  # (StopForecast, ...) in route order


def steps_to_complete(remaining_dist: float, predicted_speed: float,
                      delta_t: float) -> float:
    """Time steps to finish the remaining distance at the predicted speed,
    clamped just above 1 so the stay probability stays non-negative."""
    if remaining_dist <= 0.0 or predicted_speed <= 0.0 or delta_t <= 0.0:
        raise SimError("nonpositive", "remaining distance, speed, and delta_t must be > 0")
    return max(remaining_dist / (delta_t * predicted_speed), S_CLAMP)


def build_plan(rm: RouteModel, road_models: dict, dwell_models: dict,
               intersection_models: dict, covariates, origin_link: int,
               origin_arc: float, delta_t: float) -> list:
    """Per-link plans from the origin position to the terminal stop.

    Road speed on every link uses the fitted model with the covariates
    observed at the origin time. Downstream full links must have a
    predicted traversal time above delta_t (the transition probabilities
    are unidentifiable otherwise); the partially completed origin link is
    clamped instead.
    """
    links = [link for link in rm.links if link.index >= origin_link]
    if not links:
        raise SimError("no_links", "origin has no downstream links")
    betas = np.array([road_models[link.index].beta for link in links])
    road_times = np.exp(linear_rows(design_matrix(covariates), betas)).tolist()
    x_arc = dict(rm.projected_intersections)
    plans = []
    for link, road_time in zip(links, road_times):
        speed = link.length / road_time
        if link.index == origin_link:
            remaining = link.end_arc - origin_arc
            if remaining <= 0.0:
                raise SimError("nonpositive", "origin is at or past the link end")
            x_ids = [xid for xid in link.intersection_ids if x_arc[xid] > origin_arc]
        else:
            remaining = link.length
            if road_time <= delta_t:
                raise ConfigError(
                    "delta_t_too_large",
                    f"link {link.index}: predicted road time {road_time:.2f}s <= "
                    f"delta_t {delta_t:.2f}s")
            x_ids = list(link.intersection_ids)
        steps = steps_to_complete(remaining, speed, delta_t)
        plans.append(LinkPlan(
            link_index=link.index, end_stop_id=link.to_stop,
            remaining_dist=remaining, speed=speed, steps=steps,
            p_stay=(steps - 1.0) / steps,
            dwell=dwell_models[link.to_stop],
            intersections=tuple(intersection_models[x] for x in x_ids)))
    return plans


class _GridLaw:
    """A dwell pool or intersection time rounded down to the h grid: its
    PMF from 0, its exact mean (s), its grid mean (steps), whether it was
    on the grid already, and its ``rfft`` at the largest grid size asked
    for so far."""

    def __init__(self, pmf, mean: float, exact: bool):
        self.pmf, self.mean, self.exact = pmf, mean, exact
        self.top = pmf.shape[0] - 1
        self.grid_mean = float(pmf @ np.arange(pmf.shape[0]))
        self._n, self._transform = 0, None

    def transform(self, n: int):
        """The ``rfft`` on n points: grid sizes are powers of two, so it is
        every (N / n)-th frequency of the one at the largest size N."""
        if n > self._n:
            self._n, self._transform = n, np.fft.rfft(self.pmf, n)
        return self._transform[::self._n // n]


def _grid_law(model, h: float) -> _GridLaw:
    """``model``'s law on the h grid, built once per model object and step
    and kept in the instance dict, out of sight of the dataclass fields.
    A law whose top grid point lies past MAX_GRID is refused unbuilt."""
    laws = model.__dict__.setdefault("_grid_laws", {})
    law = laws.get(h)
    if law is None:
        if isinstance(model, EmpiricalDwell):
            atoms, counts = np.unique(model.samples, return_counts=True)
            _check_grid(atoms[-1] / h, f"stop {model.stop_id}'s dwell pool", h)
            law = _floored_atoms(atoms, counts / counts.sum(), float(model.samples.mean()), h)
        else:
            mu, sigma = model.mu_s, model.sigma_s
            log_top = mu + LOGNORMAL_TOP_Z * sigma - math.log(h)
            _check_grid(math.exp(min(log_top, 100.0)),
                        f"intersection {model.intersection_id}", h)
            if sigma == 0.0:
                law = _floored_atoms(np.array([math.exp(mu)]), np.ones(1), math.exp(mu), h)
            else:
                # a subnormal sigma sends z to +-inf, where erfc is exact
                with np.errstate(over="ignore"):
                    z = (np.log(h * np.arange(1, math.floor(math.exp(log_top)) + 1)) - mu) / sigma
                cdf = 0.5 * np.vectorize(math.erfc, otypes=[float])(-z / math.sqrt(2.0))
                law = _GridLaw(np.diff(cdf, prepend=0.0, append=1.0),
                               math.exp(mu + sigma * sigma / 2.0), exact=False)
        laws[h] = law
    return law


def _check_grid(points: float, what: str, h: float) -> None:
    if not points < MAX_GRID:  # also refuses nan
        raise SimError("grid_too_large", f"{what} needs {points:.4g} grid points of "
                                         f"{h:g} s, more than {MAX_GRID}")


def _floored_atoms(atoms, weights, mean: float, h: float) -> _GridLaw:
    q = atoms / h
    idx = np.floor(q)
    return _GridLaw(np.bincount(idx.astype(np.intp), weights), mean, exact=bool(np.all(q == idx)))


@lru_cache(maxsize=64)
def _phases(n: int, r: int):
    """1 / w for w = e^(-2 pi i f r / n), the transform of an r-step shift at
    each rfft frequency f, and 1 / (1 - e^(-2 pi i f / n)) (0 at f = 0),
    which turns a PMF's transform into its CDF's. Callers do not write to them."""
    f = np.arange(n // 2 + 1)
    step = 1.0 - np.exp(-2j * np.pi / n * f)
    step[0] = np.inf
    return np.exp(2j * np.pi * r / n * f), 1.0 / step


def _grid_size(n_min: int) -> int:
    """The least power of two >= n_min (at least 64)."""
    return 1 << max((n_min - 1).bit_length(), 6)


def _geometric_steps(p) -> int:
    """Chernoff bound m with P(sum of the geometric step counts >= m) <= TAIL_EPS."""
    p_max = float(p.max())
    if p_max == 0.0:
        return p.shape[0]
    theta = min(-math.log(p_max), 30.0) * _THETA  # any theta below -log p_max bounds
    log_mgf = np.log1p(-p)[:, None] + theta - np.log1p(-np.multiply.outer(p, np.exp(theta)))
    return math.ceil(float(((log_mgf.sum(axis=0) - math.log(TAIL_EPS)) / theta).min()))


def simulate(plans, config: MarkovConfig, origin_arc: float = float("nan"),
             origin_time: float = float("nan")) -> SimulationSummary:
    """The exact law's mean and 2.5/97.5 percent band at every stop of the
    plans, under the grid rule of the module docstring."""
    delta_t = float(config.delta_t)
    r = max(math.ceil(delta_t / GRID_STEP_MAX - 1e-9), 1)  # grid steps per delta_t
    h = delta_t / r
    p = np.array([plan.p_stay for plan in plans])
    if not p.max() < 1.0:
        raise SimError("grid_too_large", "a link with p_stay >= 1 never completes")
    laws = [[_grid_law(plan.dwell, h), *(_grid_law(x, h) for x in plan.intersections)]
            for plan in plans]
    n_min = _geometric_steps(p) * r + sum(law.top for link in laws for law in link) + 1
    _check_grid(n_min, "the remaining time", h)
    n = _grid_size(n_min)

    # Per link, the geometric transform (1-p) w / (1 - p w) = (1-p) / (1/w - p),
    # times the transforms of its dwell and intersections; then the product
    # down the route.
    inverse_shift, to_cdf = _phases(n, r)
    rows = (1.0 - p)[:, None] / (inverse_shift - p[:, None])
    for i, link in enumerate(laws):
        for law in link:
            rows[i] *= law.transform(n)
        if i:
            rows[i] *= rows[i - 1]
    # CDF transform: (P - 1) / (1 - e^(-2 pi i f / n)), and at f = 0 the sum
    # of the CDF over the grid, n less the grid mean.
    steps_mean = r / (1.0 - p) + [sum(law.grid_mean for law in link) for link in laws]
    rows -= 1.0
    rows *= to_cdf
    rows[:, 0] = n - np.cumsum(steps_mean)
    cdf = np.fft.irfft(rows, n, axis=1)
    inexact = np.cumsum([sum(not law.exact for law in link) for link in laws])
    lo = np.argmax(cdf >= BAND[0] - TAIL_EPS, axis=1) * h
    hi = (np.argmax(cdf >= BAND[1] - TAIL_EPS, axis=1) + inexact) * h
    means = np.cumsum(delta_t / (1.0 - p) + [sum(law.mean for law in link) for link in laws])
    stops = tuple(StopForecast(stop_id=plan.end_stop_id, mean_remaining=m, p2_5=l, p97_5=u)
                  for plan, m, l, u in zip(plans, means.tolist(), lo.tolist(), hi.tolist()))
    return SimulationSummary(origin_link=plans[0].link_index, origin_arc=origin_arc,
                             origin_time=origin_time, stops=stops)


class PredictionSession:
    """Replay-style real-time prediction for one traversal.

    Feed (time, arc) pairs in time order; a simulation summary comes back
    for the first ping and thereafter whenever the traffic indicator
    flips. The indicator starts at 0 and follows the latest open-road
    ping pair: below ``thresholds[link]`` switches it to 1, at or above
    switches it back to 0. Rain/peak/weekday covariates are rebuilt at
    each emission time through ``covariates(t, traffic)``.
    """

    def __init__(self, rm: RouteModel, road_models: dict, dwell_models: dict,
                 intersection_models: dict, covariates, config: MarkovConfig, thresholds):
        self.rm = rm
        self.road_models = road_models
        self.dwell_models = dwell_models
        self.intersection_models = intersection_models
        self.covariates = covariates
        self.config = config
        self.thresholds = thresholds
        self.traffic = 0
        self._prev = (math.nan, math.nan, -1)  # time, arc and open_road_link_of tag

    def _emit(self, t: float, arc: float) -> SimulationSummary | None:
        arc = max(arc, self.rm.first_arc)
        if arc >= self.rm.last_arc:
            return None
        plans = build_plan(self.rm, self.road_models, self.dwell_models,
                           self.intersection_models, self.covariates(t, self.traffic),
                           bisect_right(self.rm.stop_arcs, arc), arc, self.config.delta_t)
        return simulate(plans, self.config, origin_arc=arc, origin_time=t)

    def observe(self, ping) -> bool:
        """Fold one ping into the indicator state; True when it flipped."""
        (t0, arc0, tag0), t, arc = self._prev, ping[0], ping[1]  # a NamedTuple unpacks slowly
        tag = open_road_link_of([arc], self.rm)[0]
        self._prev = (t, arc, tag)
        if tag < 1 or tag != tag0 or not t > t0:
            return False  # not an open-road pair
        traffic = 1 if (arc - arc0) / (t - t0) < self.thresholds[tag] else 0
        if traffic == self.traffic:
            return False
        self.traffic = traffic
        return True

    def update(self, ping) -> SimulationSummary | None:
        """Fold in one new ping; re-predict only on an indicator flip."""
        return self._emit(*ping) if self.observe(ping) else None

    def emit_at(self, ping) -> SimulationSummary | None:
        self.observe(ping)
        return self._emit(*ping)

    start = emit_at  # a first ping has no pair, so it cannot flip
