"""Link-state Markov chain: stay probabilities from predicted speeds, M-run
Monte-Carlo simulation of remaining time to every downstream stop.

A plan's road time on each link is ``hetlognorm.predict_point``'s
median exp(beta'z); ``build_plan`` takes it for all downstream links
from one ``hetlognorm.linear_rows`` call over their stacked betas.

The per-link step count is geometric with success probability
``1 - p_stay``; drawing it directly (inverse CDF of a pre-drawn uniform)
is distribution-identical to stepping the chain and exponentially
faster. Dwell and intersection times are sampled once per run and
feature. ``simulate`` draws every variate up front and hands them, with
the plans themselves, to ``accel.markov_offsets``, whose scalar twin
``accel._markov_scalar`` is the one reference for the transform.
Remaining time to a stop means time until *departure from* that stop,
matching the link-total telescoping of the decomposition identity.

``PredictionSession`` reads infer's rules: ``covariates(t, traffic)``,
``thresholds[link]`` and, for the origin link, ``bisect_right(rm.stop_arcs, arc)``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .accel import markov_offsets
from .components import EmpiricalDwell
from .errors import ConfigError, SimError
from .geometry import RouteModel
from .hetlognorm import design_matrix, linear_rows
from .inference import open_road_link_of, space_mean_speed
from .stats import percentile_band

S_CLAMP = 1.0 + 1e-9  # keeps p_stay >= 0 on a nearly finished link


@dataclass(frozen=True)
class MarkovConfig:
    delta_t: float = 5.0
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
    runs: int
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


def simulate(plans, config: MarkovConfig, origin_arc: float = float("nan"),
             origin_time: float = float("nan")) -> SimulationSummary:
    """M-run simulation summary: mean and 2.5/97.5 percentiles per stop.

    Deterministic given the seed: all variates are drawn up front from one
    Generator, in this order: road uniforms (M x links), dwell uniforms
    (M x links), then intersection normals (M x all intersections of the
    plans, none when there are none). ``accel.markov_offsets`` transforms
    them on the plans.
    """
    m = int(config.runs)
    if m < 1:
        raise SimError("nonpositive", "runs must be >= 1")
    rng = np.random.default_rng(config.seed)
    u_road = rng.random((m, len(plans)))
    u_dwell = rng.random((m, len(plans)))
    z_x = rng.standard_normal((m, sum(len(p.intersections) for p in plans)))
    offsets = markov_offsets(plans, u_road, u_dwell, z_x, float(config.delta_t))

    means = offsets.mean(axis=0)
    lo, hi = percentile_band(offsets)
    stops = tuple(StopForecast(stop_id=p.end_stop_id, mean_remaining=float(means[i]),
                               p2_5=float(lo[i]), p97_5=float(hi[i]))
                  for i, p in enumerate(plans))
    return SimulationSummary(origin_link=plans[0].link_index,
                             origin_arc=origin_arc, origin_time=origin_time,
                             runs=m, stops=stops)


class PredictionSession:
    """Replay-style real-time prediction for one traversal.

    Feed projected pings in time order; a simulation summary comes back
    for the first ping and thereafter whenever the traffic indicator
    flips. The indicator starts at 0 and follows the latest open-road
    ping pair on the current link: below ``thresholds[link]`` switches it
    to 1, at or above switches it back to 0. Rain/peak/weekday covariates
    are rebuilt at each emission time through ``covariates(t, traffic)``.
    Each emission draws from a fresh seed derived from (base seed, emission
    index), so a replay is deterministic.
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
        self._prev_ping = None
        self._prev_tag = -1  # open_road_link_of tag of the previous ping; -1: none
        self._emissions = 0

    def _emit(self, ping) -> SimulationSummary | None:
        arc = max(ping.arc_pos, self.rm.first_arc)
        if arc >= self.rm.last_arc:
            return None
        covariates = self.covariates(ping.timestamp, self.traffic)
        plans = build_plan(self.rm, self.road_models, self.dwell_models,
                           self.intersection_models, covariates,
                           bisect_right(self.rm.stop_arcs, arc), arc, self.config.delta_t)
        cfg = replace(self.config, seed=self.config.seed + self._emissions)
        self._emissions += 1
        return simulate(plans, cfg, origin_arc=arc, origin_time=ping.timestamp)

    def observe(self, ping) -> bool:
        """Fold one ping into the indicator state; True when it flipped."""
        prev, prev_tag = self._prev_ping, self._prev_tag
        tag = self._remember(ping)
        if tag < 1 or tag != prev_tag:
            return False  # not an open-road pair on one link
        v = space_mean_speed(prev, ping)
        new_traffic = 1 if v < self.thresholds[tag] else 0
        if new_traffic == self.traffic:
            return False
        self.traffic = new_traffic
        return True

    def _remember(self, ping) -> int:
        """Make ``ping`` the previous ping, classified once; its tag."""
        self._prev_ping = ping
        self._prev_tag = open_road_link_of([ping.arc_pos], self.rm)[0]
        return self._prev_tag

    def start(self, ping) -> SimulationSummary | None:
        self._remember(ping)
        return self._emit(ping)

    def update(self, ping) -> SimulationSummary | None:
        """Fold in one new ping; re-predict only on an indicator flip."""
        return self._emit(ping) if self.observe(ping) else None

    def emit_at(self, ping) -> SimulationSummary | None:
        self.observe(ping)
        return self._emit(ping)
