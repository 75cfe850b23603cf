import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from buslink.accel import _markov_scalar, markov_offsets
from buslink.components import EmpiricalDwell, IntersectionLogNormal, fit_dwell
from buslink.errors import ConfigError, SimError
from buslink.geometry import build_route_model
from buslink.hetlognorm import HetLogNormalModel
from buslink.inference import CovariateVector, ProjectedPing, open_road_link_of
from buslink.markov import (LinkPlan, MarkovConfig, PredictionSession, build_plan,
                            percentile_band, simulate, steps_to_complete)
from buslink.pipeline import RunConfig

from conftest import link_scan
from test_geometry import network_with


def constant_model(road_seconds: float) -> HetLogNormalModel:
    beta = np.array([math.log(road_seconds), 0.0, 0.0, 0.0, 0.0])
    return HetLogNormalModel(beta=beta, gamma=np.full(5, -30.0), fim=np.eye(10),
                             n=100, active_mask=np.ones(5, dtype=bool), loglik=0.0)


def dwell_const(v: float) -> EmpiricalDwell:
    return fit_dwell("S", [v], min_samples=1)


def fixed_covariates(t, traffic):
    return CovariateVector(rain=0, peak=0, weekday=1, traffic=traffic)


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


def one_run(plans, u_road, u_dwell, z=(), delta_t=5.0):
    """Offsets of one run with fixed variates, from the kernel; the scalar
    reference must give the same."""
    args = (plans, np.array([u_road], dtype=float), np.array([u_dwell], dtype=float),
            np.array(z, dtype=float).reshape(1, -1), delta_t)
    out = markov_offsets(*args)
    np.testing.assert_allclose(out, _markov_scalar(*args), rtol=1e-12, atol=1e-9)
    return out[0]


class TestGeometricSteps:
    def test_expected_value_matches_steps(self):
        # mean of geometric(1-p_stay) is S: with delta_t 1 and no dwell the
        # simulated remaining time is the step count
        s = 4.0
        p_stay = (s - 1.0) / s
        summary = simulate([plan(p_stay)], MarkovConfig(delta_t=1.0, runs=200000, seed=0))
        assert summary.stops[0].mean_remaining == pytest.approx(s, abs=0.05)

    def test_zero_stay_always_one(self):
        assert one_run([plan(0.0)], [0.999], [0.0], delta_t=1.0)[0] == 1.0
        assert one_run([plan(0.75)], [0.0], [0.0], delta_t=1.0)[0] == 1.0


class TestSimulateOnce:
    """One Markov run with fixed variates, then the mean over many runs."""

    def test_degenerate_chain(self):
        # p_stay=0, delta_t=5, constant dwell 10, no intersections -> 15
        assert one_run([plan(0.0, dwell=10.0)], [0.3], [0.5])[0] == 15.0

    def test_forced_four_steps(self):
        # u=0.6 with p_stay=0.75 -> ceil(ln0.4/ln0.75)=4; 4*5 + 15 + 10 = 45
        x = IntersectionLogNormal(intersection_id="X", mu_s=math.log(15.0),
                                  sigma_s=0.0, n=10)
        out = one_run([plan(0.75, dwell=10.0, intersections=[x])], [0.6], [0.0], z=[0.0])
        assert out[0] == pytest.approx(45.0, rel=1e-12)

    def test_expected_remaining(self):
        # S=4 (200 m at 10 m/s, delta_t 5), dwell 10 -> E = 4*5 + 10 = 30
        s = simulate([plan(0.75, dwell=10.0)], MarkovConfig(delta_t=5.0, runs=10 ** 5, seed=11))
        assert s.stops[0].mean_remaining == pytest.approx(30.0, abs=0.3)


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

    def test_matches_scalar_reference(self):
        # simulate draws road uniforms, dwell uniforms, then one normal per
        # intersection, and summarizes the transformed runs
        xs = [IntersectionLogNormal(f"X{k}", mu_s=2.0 + k / 4, sigma_s=0.3, n=10)
              for k in range(3)]
        plans = [plan(0.75, dwell=10.0, intersections=xs[:1], index=1),
                 plan(0.6, dwell=4.0, index=2),
                 plan(0.9, dwell=8.0, intersections=xs[1:], index=3)]
        m = 2000
        s = simulate(plans, MarkovConfig(delta_t=5.0, runs=m, seed=5))
        rng = np.random.default_rng(5)
        u_road, u_dwell = rng.random((m, 3)), rng.random((m, 3))
        ref = _markov_scalar(plans, u_road, u_dwell, rng.standard_normal((m, 3)), 5.0)
        lo, hi = np.percentile(ref, [2.5, 97.5], axis=0)
        for i, f in enumerate(s.stops):
            np.testing.assert_allclose([f.mean_remaining, f.p2_5, f.p97_5],
                                       [ref[:, i].mean(), lo[i], hi[i]], rtol=1e-12)


@given(m=st.sampled_from([1, 2, 3, 39, 1000, 10000]), stops=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), ties=st.booleans(), spread=st.floats(1e-3, 1e6))
@settings(deadline=None, max_examples=120)
def test_percentile_band_is_numpy_linear_bit_for_bit(m, stops, seed, ties, spread):
    """Random offsets, with many tied values and signed zeros when rounded:
    the partition band equals np.percentile's linear rule byte for byte."""
    rng = np.random.default_rng(seed)
    offsets = rng.standard_normal((m, stops)) * spread
    if ties:
        offsets = np.round(offsets / spread * 2)
    expected = np.percentile(offsets, [2.5, 97.5], axis=0, method="linear")
    before = offsets.copy()
    assert percentile_band(offsets).tobytes() == expected.tobytes()
    assert offsets.tobytes() == before.tobytes()


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
        return self.new_session()

    def new_session(self, link_speed_thresholds=""):
        net, xs = network_with([0.0, 800.0, 1600.0], [])
        rm = build_route_model(net, xs, ("R", 0))
        road = {1: constant_model(80.0), 2: constant_model(80.0)}
        dwells = {"S1": dwell_const(10.0), "S2": dwell_const(5.0)}
        cfg = RunConfig(speed_threshold=5.0, link_speed_thresholds=link_speed_thresholds)
        return PredictionSession(rm, road, dwells, {}, fixed_covariates,
                                 MarkovConfig(delta_t=5.0, runs=200, seed=1),
                                 cfg.speed_threshold_by_link)

    def ping(self, t, arc):
        return ProjectedPing(timestamp=float(t), arc_pos=float(arc))

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

    def test_slow_pair_across_two_links_does_not_update(self, session):
        assert session.start(self.ping(0, 700.0)) is not None
        # 2 m/s from open road on link 1 to open road on link 2: no update
        assert session.update(self.ping(100, 900.0)) is None
        assert session.traffic == 0
        # the next slow pair on link 2 alone flips
        assert session.update(self.ping(110, 930.0)) is not None
        assert session.traffic == 1

    def test_zone_to_open_road_pair_does_not_update(self, session):
        assert session.start(self.ping(0, 10.0)) is not None  # inside the S0 zone
        # 3 m/s out of the zone onto open road: pair not open road, no update
        assert session.update(self.ping(10, 40.0)) is None
        assert session.traffic == 0
        assert session.update(self.ping(20, 70.0)) is not None
        assert session.traffic == 1

    def test_observe_then_emit_at_flips_as_update_would(self, session):
        pings = [self.ping(0, 10.0), self.ping(10, 40.0), self.ping(20, 70.0)]
        session.start(pings[0])
        session.observe(pings[1])
        assert session.traffic == 0
        emitted = session.emit_at(pings[2])
        assert session.traffic == 1

        replay = self.new_session()
        replay.start(pings[0])
        assert replay.update(pings[1]) is None
        assert replay.update(pings[2]) == emitted
        assert replay.traffic == 1

    def test_link_override_reaches_observe(self, session):
        """Under a 2.5 m/s override on link 1 the 3 m/s pair that flips the
        default session is open road; link 2 keeps the 5 m/s default."""
        session.start(self.ping(0, 100.0))
        assert session.observe(self.ping(10, 130.0))  # 3 m/s < 5
        override = self.new_session("1:2.5")
        override.start(self.ping(0, 100.0))
        assert not override.observe(self.ping(10, 130.0))  # 3 m/s >= 2.5
        assert override.observe(self.ping(20, 150.0))  # 2 m/s < 2.5
        assert not override.observe(self.ping(100, 900.0))  # a pair across links
        assert not override.observe(self.ping(110, 940.0))  # 4 m/s < 5 on link 2
        assert override.traffic == 1


def test_link_lookup_is_the_link_interval_scan():
    """The session's origin link and open_road_link_of's link are the
    [start, end) link interval that a scan finds, on random arcs and on
    each stop arc with its nextafter neighbours. With buffer radius 0 only
    the stop arcs themselves are in a zone."""
    net, xs = network_with([0.0, 500.0, 1200.0, 1500.0], [])
    rm = build_route_model(net, xs, ("R", 0), buffer_radius=0.0)
    road = {link.index: constant_model(80.0) for link in rm.links}
    dwells = {link.to_stop: dwell_const(5.0) for link in rm.links}
    first, mid, last = rm.stop_arcs[0], rm.stop_arcs[1], rm.stop_arcs[-1]
    arcs = [float(a) for stop in rm.stop_arcs
            for a in (np.nextafter(stop, -np.inf), stop, np.nextafter(stop, np.inf))]
    arcs += [mid - 1.0, last - 0.1, *np.random.default_rng(3).uniform(-50.0, last + 50.0, 300)]
    for arc in arcs:
        session = PredictionSession(rm, road, dwells, {}, fixed_covariates,
                                    MarkovConfig(runs=1), RunConfig().speed_threshold_by_link)
        summary = session.start(ProjectedPing(timestamp=0.0, arc_pos=arc))
        # the session starts a position before the first stop at the first stop
        expected = link_scan(rm, max(arc, first))
        assert (summary and summary.origin_link) == expected
    cases = (first, mid - 1.0, mid, last - 0.1, last)
    assert [link_scan(rm, a) for a in cases] == [1, 1, 2, 3, None]
    assert open_road_link_of(arcs, rm) == [
        link_scan(rm, a) if first < a < last and a not in rm.stop_arcs else -1 for a in arcs]


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
