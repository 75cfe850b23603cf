import math

import numpy as np
import pytest

from buslink.components import EmpiricalDwell, IntersectionLogNormal, fit_dwell
from buslink.errors import ConfigError, SimError
from buslink.geometry import build_route_model
from buslink.hetlognorm import HetLogNormalModel
from buslink.markov import (LinkPlan, MarkovConfig, build_plan, geometric_steps,
                            simulate, simulate_once, steps_to_complete)

from test_geometry import network_with


def constant_model(road_seconds: float) -> HetLogNormalModel:
    beta = np.array([math.log(road_seconds), 0.0, 0.0, 0.0, 0.0])
    return HetLogNormalModel(beta=beta, gamma=np.full(5, -30.0), fim=np.eye(10),
                             n=100, active_mask=np.ones(5, dtype=bool), loglik=0.0)


def dwell_const(v: float) -> EmpiricalDwell:
    return fit_dwell("S", [v], min_samples=1)


def plan(p_stay, dwell=0.0, intersections=(), index=1):
    return LinkPlan(link_index=index, end_stop_id=f"S{index}", remaining_dist=100.0,
                    speed=10.0, steps=1.0 / (1.0 - p_stay) if p_stay < 1 else np.inf,
                    p_stay=p_stay, dwell=dwell_const(dwell),
                    intersections=tuple(intersections))


class TestSteps:
    def test_direct(self):
        assert steps_to_complete(200.0, 10.0, 5.0) == 4.0

    def test_full_link_from_predicted_time(self):
        # 800 m at the speed implied by an 80 s predicted road time
        speed = 800.0 / 80.0
        assert steps_to_complete(800.0, speed, 5.0) == 16.0

    def test_clamped(self):
        s = steps_to_complete(10.0, 10.0, 5.0)
        assert s == pytest.approx(1.0, abs=1e-8)
        assert (s - 1.0) / s >= 0.0

    def test_nonpositive(self):
        with pytest.raises(SimError):
            steps_to_complete(0.0, 10.0, 5.0)
        with pytest.raises(SimError):
            steps_to_complete(100.0, -1.0, 5.0)


class TestGeometricSteps:
    def test_expected_value_matches_steps(self):
        # mean of geometric(1-p_stay) is S
        rng = np.random.default_rng(0)
        s = 4.0
        p_stay = (s - 1.0) / s
        draws = [geometric_steps(rng.random(), p_stay) for _ in range(200000)]
        assert np.mean(draws) == pytest.approx(s, abs=0.05)

    def test_zero_stay_always_one(self):
        assert geometric_steps(0.999, 0.0) == 1.0
        assert geometric_steps(0.0, 0.75) == 1.0


class StubRng:
    """Deterministic stand-in feeding chosen uniforms/normals in order."""

    def __init__(self, uniforms, normals=()):
        self._u = list(uniforms)
        self._z = list(normals)

    def random(self):
        return self._u.pop(0)

    def standard_normal(self):
        return self._z.pop(0)


class TestSimulateOnce:
    def test_degenerate_chain(self):
        # p_stay=0, delta_t=5, constant dwell 10, no intersections -> 15
        out = simulate_once([plan(0.0, dwell=10.0)], 5.0, np.random.default_rng(0))
        assert out[0] == 15.0

    def test_forced_four_steps(self):
        # u=0.6 with p_stay=0.75 -> ceil(ln0.4/ln0.75)=4; 4*5 + 15 + 10 = 45
        x = IntersectionLogNormal(intersection_id="X", mu_s=math.log(15.0),
                                  sigma_s=0.0, n=10)
        rng = StubRng(uniforms=[0.6, 0.0], normals=[0.0])
        out = simulate_once([plan(0.75, dwell=10.0, intersections=[x])], 5.0, rng)
        assert out[0] == pytest.approx(45.0, rel=1e-12)

    def test_expected_remaining(self):
        # S=4 (200 m at 10 m/s, delta_t 5), dwell 10 -> E = 4*5 + 10 = 30
        rng = np.random.default_rng(11)
        draws = np.array([simulate_once([plan(0.75, dwell=10.0)], 5.0, rng)[0]
                          for _ in range(10 ** 5)])
        assert draws.mean() == pytest.approx(30.0, abs=0.3)


class TestSimulate:
    def test_single_run_collapses(self):
        s = simulate([plan(0.5, dwell=3.0)], MarkovConfig(delta_t=5.0, runs=1, seed=4))
        f = s.stops[0]
        assert f.mean_remaining == f.p2_5 == f.p97_5

    def test_degenerate_zero_width(self):
        s = simulate([plan(0.0, dwell=7.0)], MarkovConfig(delta_t=5.0, runs=500, seed=4))
        f = s.stops[0]
        assert f.mean_remaining == 12.0
        assert f.p2_5 == f.p97_5 == 12.0

    def test_seeded_determinism(self):
        plans = [plan(0.75, dwell=10.0, index=1), plan(0.9, dwell=4.0, index=2)]
        a = simulate(plans, MarkovConfig(delta_t=5.0, runs=1000, seed=99))
        b = simulate(plans, MarkovConfig(delta_t=5.0, runs=1000, seed=99))
        assert a == b

    def test_interval_contains_mean_and_monotone_stops(self):
        x = IntersectionLogNormal(intersection_id="X", mu_s=2.5, sigma_s=0.4, n=10)
        plans = [plan(0.75, dwell=10.0, index=1),
                 plan(0.9, dwell=4.0, intersections=[x], index=2),
                 plan(0.6, dwell=8.0, index=3)]
        s = simulate(plans, MarkovConfig(delta_t=5.0, runs=2000, seed=17))
        prev = 0.0
        for f in s.stops:
            assert f.p2_5 <= f.mean_remaining <= f.p97_5
            assert f.mean_remaining > prev
            prev = f.mean_remaining

    def test_matches_simulate_once_distribution(self):
        plans = [plan(0.75, dwell=10.0)]
        s = simulate(plans, MarkovConfig(delta_t=5.0, runs=10 ** 5, seed=5))
        rng = np.random.default_rng(6)
        ref = np.array([simulate_once(plans, 5.0, rng)[0] for _ in range(10 ** 4)])
        assert s.stops[0].mean_remaining == pytest.approx(ref.mean(), abs=0.6)


@pytest.mark.parametrize("delta_t", [5.0, 2.0, 1.0])
def test_expected_road_time_approaches_prediction(delta_t):
    # 200 m at 10 m/s: E[f * dt] = S * dt = 20 s exactly for every dt;
    # the Monte-Carlo estimate must sit within 3*sd/sqrt(M) + dt
    s = 200.0 / (delta_t * 10.0)
    p_stay = (s - 1.0) / s
    lp = LinkPlan(link_index=1, end_stop_id="S1", remaining_dist=200.0, speed=10.0,
                  steps=s, p_stay=p_stay, dwell=dwell_const(0.0), intersections=())
    m = 10 ** 5
    summary = simulate([lp], MarkovConfig(delta_t=delta_t, runs=m, seed=31))
    sd = delta_t * np.sqrt(p_stay) / (1.0 - p_stay)
    assert abs(summary.stops[0].mean_remaining - 20.0) <= 3.0 * sd / np.sqrt(m) + delta_t


class TestSessionUpdateRule:
    """Indicator updates follow the latest open-road pair: 7->7 no emission,
    7->3 flips to congested, 3->7 flips back; each flip re-predicts."""

    @pytest.fixture
    def session(self):
        from buslink.inference import CovariateVector
        from buslink.markov import PredictionSession
        net, xs = network_with([0.0, 800.0, 1600.0], [])
        rm = build_route_model(net, xs, ("R", 0))
        road = {1: constant_model(80.0), 2: constant_model(80.0)}
        dwells = {"S1": dwell_const(10.0), "S2": dwell_const(5.0)}

        def covariate_fn(t, traffic):
            return CovariateVector(rain=0, peak=0, weekday=1, traffic=traffic)

        return PredictionSession(rm, road, dwells, {}, covariate_fn,
                                 MarkovConfig(delta_t=5.0, runs=200, seed=1),
                                 speed_threshold=5.0)

    def ping(self, t, arc):
        from buslink.inference import ProjectedPing
        return ProjectedPing(timestamp=float(t), arc_pos=float(arc), offset=0.0)

    def test_flip_sequence(self, session):
        assert session.start(self.ping(0, 100.0)) is not None
        # 7 m/s then 7 m/s: no flip, no emission
        assert session.update(self.ping(10, 170.0)) is None
        assert session.traffic == 0
        # drops to 3 m/s: 0 -> 1, new summary
        assert session.update(self.ping(20, 200.0)) is not None
        assert session.traffic == 1
        # stays slow: no further emission
        assert session.update(self.ping(30, 230.0)) is None
        # recovers to 7 m/s: 1 -> 0, new summary
        assert session.update(self.ping(40, 300.0)) is not None
        assert session.traffic == 0

    def test_zone_pair_does_not_update(self, session):
        assert session.start(self.ping(0, 100.0)) is not None
        # second ping inside the S1 buffer zone: pair not open road, no update
        assert session.update(self.ping(10, 790.0)) is None
        assert session.traffic == 0


class TestBuildPlan:
    @pytest.fixture
    def rm(self):
        net, xs = network_with([0.0, 800.0, 1600.0], [("X1", 400.0)])
        return build_route_model(net, xs, ("R", 0))

    def models(self, road_seconds):
        return {1: constant_model(road_seconds), 2: constant_model(road_seconds)}

    def dwells(self):
        return {"S1": dwell_const(10.0), "S2": dwell_const(5.0)}

    def xmodels(self):
        return {"X1": IntersectionLogNormal("X1", mu_s=2.0, sigma_s=0.0, n=10)}

    def test_full_plan_from_origin(self, rm):
        plans = build_plan(rm, self.models(80.0), self.dwells(), self.xmodels(),
                           np.zeros(4), origin_link=1, origin_arc=rm.first_arc,
                           delta_t=5.0)
        assert [p.link_index for p in plans] == [1, 2]
        assert plans[0].steps == pytest.approx(16.0, rel=1e-6)
        assert plans[0].p_stay == pytest.approx(15.0 / 16.0, rel=1e-6)
        assert len(plans[0].intersections) == 1
        assert plans[1].intersections == ()

    def test_partial_current_link_drops_passed_intersections(self, rm):
        x_arc = dict(rm.projected_intersections)["X1"]
        plans = build_plan(rm, self.models(80.0), self.dwells(), self.xmodels(),
                           np.zeros(4), origin_link=1, origin_arc=x_arc + 50.0,
                           delta_t=5.0)
        assert plans[0].intersections == ()
        assert plans[0].remaining_dist == pytest.approx(800.0 - x_arc - 50.0, abs=1e-3)

    def test_delta_t_too_large(self, rm):
        with pytest.raises(ConfigError) as e:
            build_plan(rm, self.models(4.0), self.dwells(), self.xmodels(),
                       np.zeros(4), origin_link=1, origin_arc=rm.first_arc,
                       delta_t=5.0)
        assert e.value.kind == "delta_t_too_large"
        assert "2" in str(e.value)  # names the violating downstream link
