import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from buslink.accel import _markov_scalar, markov_offsets
from buslink import geometry
from buslink.components import EmpiricalDwell, IntersectionLogNormal, fit_dwell
from buslink.errors import ConfigError, SimError
from buslink.geometry import build_route_model
from buslink.hetlognorm import HetLogNormalModel, design_matrix, linear_rows
from buslink.inference import (CovariateVector, ProjectedPing, open_road_link_of,
                               project_traversal, repair_monotonic, slowest_speeds)
from buslink.ingest import Traversal
from buslink.markov import (BAND, DAMPING, GRID_TAIL, LOGNORMAL_TOP_Z, MAX_GRID, TAIL_EPS,
                            LinkPlan, MarkovConfig, PredictionSession, _TABLES, _cdfs,
                            _geometric_steps, _grid_size, _GridLaw, _tables, build_plan,
                            simulate, steps_to_complete)
from buslink.pipeline import RunConfig, replay_pairs

from conftest import examples, link_scan
from test_geometry import LAT0, lon_at, network_with
from test_inference import ROUTE_PASS, exact_arcs, traversal_pings


def constant_model(road_seconds: float) -> HetLogNormalModel:
    beta = np.array([math.log(road_seconds), 0.0, 0.0, 0.0, 0.0])
    return HetLogNormalModel(beta=beta, gamma=np.full(5, -30.0), fim=np.eye(10),
                             n=100, active_mask=np.ones(5, dtype=bool), loglik=0.0)


def dwell_const(v: float) -> EmpiricalDwell:
    return fit_dwell("S", [v], min_samples=1)


def fixed_covariates(t, traffic):
    return CovariateVector(rain=0, peak=0, weekday=1, traffic=traffic)


def plan(p_stay, dwell=0.0, intersections=(), index=1):
    """A link plan; ``dwell`` is one pool value or a list of them."""
    pool = dwell_const(dwell) if np.ndim(dwell) == 0 else fit_dwell("S", dwell, min_samples=1)
    return LinkPlan(link_index=index, end_stop_id=f"S{index}", remaining_dist=100.0,
                    speed=10.0, steps=1.0 / (1.0 - p_stay) if p_stay < 1 else np.inf,
                    p_stay=p_stay, dwell=pool, intersections=tuple(intersections))


def band(summary):
    return [(f.p2_5, f.p97_5) for f in summary.stops]


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
        # remaining time is the step count
        s = 4.0
        p_stay = (s - 1.0) / s
        summary = simulate([plan(p_stay)], MarkovConfig(delta_t=1.0))
        assert summary.stops[0].mean_remaining == pytest.approx(s, rel=1e-12)

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
        s = simulate([plan(0.75, dwell=10.0)], MarkovConfig(delta_t=5.0))
        assert s.stops[0].mean_remaining == pytest.approx(30.0, rel=1e-12)


def geometric_quantile(p, q, delta_t):
    """min{t : P(delta_t G <= t) >= q} for G geometric on 1, 2, ... with
    P(G > k) = p^k."""
    return delta_t * max(1, math.ceil(math.log1p(-q) / math.log(p)))


def enumerated_law(links, delta_t, k_max=200):
    """{remaining time: probability} at each stop, by direct enumeration of
    the step counts (to k_max, past which under 1e-25 of the mass lies) and
    the pool values of (p_stay, pool) links."""
    law, laws = {0.0: 1.0}, []
    for p, pool in links:
        part = {}
        for k in range(1, k_max + 1):
            for v in pool:
                t = k * delta_t + v
                part[t] = part.get(t, 0.0) + (1 - p) * p ** (k - 1) / len(pool)
        nxt = {}
        for a, pa in law.items():
            for b, pb in part.items():
                nxt[a + b] = nxt.get(a + b, 0.0) + pa * pb
        law = {t: w for t, w in nxt.items() if w > 1e-30}
        laws.append(law)
    return laws


def law_band(law, q=(0.025, 0.975)):
    ts = sorted(law)
    cdf = np.cumsum([law[t] for t in ts])
    return tuple(ts[int(np.argmax(cdf >= level))] for level in q)


def law_sd(plans, delta_t):
    """The exact standard deviation of the remaining time at each stop:
    per link delta_t^2 p / (1-p)^2, the pool's variance and each
    intersection's (e^(sigma^2) - 1) e^(2 mu + sigma^2), summed down the route."""
    var = [delta_t ** 2 * p.p_stay / (1.0 - p.p_stay) ** 2 + p.dwell.samples.var()
           + sum(math.expm1(x.sigma_s ** 2) * math.exp(2 * x.mu_s + x.sigma_s ** 2)
                 for x in p.intersections)
           for p in plans]
    return np.sqrt(np.cumsum(var))


class TestSimulate:
    def test_point_law_collapses(self):
        # one sure step and a one-value pool: the band is the point itself
        s = simulate([plan(0.0, dwell=3.0)], MarkovConfig(delta_t=5.0))
        f = s.stops[0]
        assert f.mean_remaining == f.p2_5 == f.p97_5 == 8.0

    def test_degenerate_zero_width(self):
        s = simulate([plan(0.0, dwell=7.0)], MarkovConfig(delta_t=5.0, runs=500, seed=4))
        f = s.stops[0]
        assert f.mean_remaining == 12.0
        assert f.p2_5 == f.p97_5 == 12.0

    def test_runs_and_seed_change_no_forecast(self):
        plans = [plan(0.75, dwell=10.0, index=1), plan(0.9, dwell=4.0, index=2)]
        a = simulate(plans, MarkovConfig(delta_t=5.0, runs=1, seed=99))
        b = simulate(plans, MarkovConfig(delta_t=5.0, runs=10 ** 9, seed=7))
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

    @pytest.mark.parametrize("p_stay", [0.5, 0.75, 0.9, 0.968])
    def test_road_only_band_is_the_geometric_quantiles(self, p_stay):
        s = simulate([plan(p_stay)], MarkovConfig(delta_t=5.0))
        f = s.stops[0]
        assert (f.p2_5, f.p97_5) == (geometric_quantile(p_stay, 0.025, 5.0),
                                     geometric_quantile(p_stay, 0.975, 5.0))
        assert f.mean_remaining == pytest.approx(5.0 / (1.0 - p_stay), rel=1e-12)

    def test_two_links_two_value_pools_by_hand(self):
        links = [(0.5, [0.0, 10.0]), (0.25, [5.0, 20.0])]
        s = simulate([plan(p, dwell=pool, index=i + 1) for i, (p, pool) in enumerate(links)],
                     MarkovConfig(delta_t=5.0))
        laws = enumerated_law(links, 5.0)
        assert band(s) == [law_band(law) for law in laws]
        for f, law in zip(s.stops, laws):
            assert f.mean_remaining == pytest.approx(sum(t * w for t, w in law.items()),
                                                     rel=1e-12)

    def test_matches_scalar_reference(self):
        # the scalar Monte-Carlo reference's runs lie in each band as the
        # law says: at most 2.5% below and above, up to 4 standard errors
        xs = [IntersectionLogNormal(f"X{k}", mu_s=2.0 + k / 4, sigma_s=0.3, n=10)
              for k in range(3)]
        plans = [plan(0.75, dwell=10.0, intersections=xs[:1], index=1),
                 plan(0.6, dwell=4.0, index=2),
                 plan(0.9, dwell=8.0, intersections=xs[1:], index=3)]
        m = 4000
        s = simulate(plans, MarkovConfig(delta_t=5.0))
        sd = law_sd(plans, 5.0)
        rng = np.random.default_rng(5)
        u_road, u_dwell = rng.random((m, 3)), rng.random((m, 3))
        ref = _markov_scalar(plans, u_road, u_dwell, rng.standard_normal((m, 3)), 5.0)
        tail = 0.025 + 4 * math.sqrt(0.025 * 0.975 / m)
        for i, f in enumerate(s.stops):
            assert np.mean(ref[:, i] < f.p2_5) <= tail
            assert np.mean(ref[:, i] > f.p97_5) <= tail
            assert abs(ref[:, i].mean() - f.mean_remaining) <= 4 * sd[i] / math.sqrt(m)

    def test_off_grid_point_lies_in_a_one_step_band(self):
        # 3.3 s is off the 1 s grid: rounded down, it is bracketed by one step
        s = simulate([plan(0.0, dwell=3.3)], MarkovConfig(delta_t=5.0))
        f = s.stops[0]
        assert (f.p2_5, f.p97_5) == (8.0, 9.0)
        assert f.mean_remaining == pytest.approx(8.3, rel=1e-12)

    def test_grid_cap_raises_before_allocating(self):
        # a link that completes in 1 step of 10^8: its 1e-9 tail needs ~2e9 steps
        with pytest.raises(SimError) as e:
            simulate([plan(1.0 - 1e-8)], MarkovConfig(delta_t=5.0))
        assert e.value.kind == "grid_too_large"
        assert str(MAX_GRID) in str(e.value)
        # a link that never completes, a 10^12 s dwell, an e^1000 s signal
        huge = IntersectionLogNormal("X", mu_s=1000.0, sigma_s=0.5, n=10)
        for plans in ([plan(0.5), plan(1.0)], [plan(0.5, dwell=1e12)],
                      [plan(0.5, intersections=[huge])]):
            with pytest.raises(SimError) as e:
                simulate(plans, MarkovConfig(delta_t=5.0))
            assert e.value.kind == "grid_too_large"

    def test_no_plans_is_no_links(self):
        """No downstream link: the kind and message of ``build_plan``'s refusal."""
        net, xs = network_with([0.0, 800.0, 1600.0], [])
        rm = build_route_model(net, xs, ("R", 0))
        with pytest.raises(SimError) as built:
            build_plan(rm, {}, {}, {}, fixed_covariates(0.0, 0), 3, rm.last_arc, 5.0)
        with pytest.raises(SimError) as simulated:
            simulate([], MarkovConfig())
        assert simulated.value.kind == built.value.kind == "no_links"
        assert str(simulated.value) == str(built.value)


# every grid size m 2^k, m in {1, 3, 5, 15}, from the least (64) to the cap
LADDER = sorted(m << k for m in (1, 3, 5, 15) for k in range(18)
                if 64 <= m << k <= MAX_GRID)


def test_grid_size_is_the_least_ladder_point():
    """For every n_min up to MAX_GRID, the grid size is the least ladder
    point at or above max(n_min, 64): never below either, never past the
    cap, and at most 1.25 times max(n_min, 64)."""
    n_min = np.arange(1, MAX_GRID + 1)
    n = np.array([_grid_size(int(k)) for k in n_min])
    assert np.array_equal(n, np.array(LADDER)[np.searchsorted(LADDER, np.maximum(n_min, 64))])
    assert (n >= 64).all() and (n >= n_min).all() and (n <= MAX_GRID).all()
    assert (n <= 1.25 * np.maximum(n_min, 64)).all()


@st.composite
def pmf_and_sizes(draw):
    """A PMF of 1-300 drawn points with 0, 64, 640 or 3,200 zeros between
    its halves, so that it can reach up to 50 grid sizes out and fold; and
    ladder sizes in increasing, decreasing or drawn order, some asked twice."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300).filter(any))
    spread = draw(st.sampled_from([0, 64, 640, 3200]))  # zeros between the halves
    half = len(weights) // 2
    weights = weights[:half] + [0.0] * spread + weights[half:]
    sizes = draw(st.lists(st.sampled_from([n for n in LADDER if n <= 1 << 14]),
                          min_size=1, max_size=12))
    order = draw(st.sampled_from([sorted, lambda x: sorted(x, reverse=True), list]))
    return np.array(weights) / sum(weights), order(sizes + sizes[:draw(st.integers(0, 3))])


def direct_transform(pmf, n: int):
    """The transform of ``_GridLaw.transform`` built at n alone: the PMF
    weighted by rho^j, rho^n = DAMPING, summed over j mod n, ``rfft``'d."""
    j = np.arange(pmf.shape[0])
    damped = pmf * np.exp(j * (math.log(DAMPING) / n))
    folded = np.zeros(n)
    np.add.at(folded, j % n, damped)
    return np.fft.rfft(folded)


@given(pmf_and_sizes())
@settings(deadline=None, max_examples=examples(200))
def test_damped_law_transform_any_order(case):
    """Whatever the order of the grid sizes asked for, a law's transform at
    each is bit-identical to one built at that size alone, also where the
    PMF is longer than the size and folds, and the law keeps one array per
    size asked for."""
    pmf, sizes = case
    law = _GridLaw(pmf, mean=0.0, exact=False)
    for n in sizes:
        assert law.transform(n).tobytes() == direct_transform(pmf, n).tobytes()
    assert sorted(law._transforms) == sorted(set(sizes))


def direct_tables(n: int, r: int):
    """The shift, survival and undamping tables of ``_tables``, built at n
    itself: 1 / z^r and 1 / (1 - z) at z = rho e^(-2 pi i f / n), and
    rho^(-k), with rho = DAMPING^(1 / n)."""
    log_rho, f = math.log(DAMPING) / n, np.arange(n // 2 + 1)
    return (np.exp(r * (2j * np.pi / n * f - log_rho)),
            1.0 / (1.0 - np.exp(log_rho - 2j * np.pi / n * f)),
            np.exp(-log_rho * np.arange(n)))


@given(st.lists(st.tuples(st.sampled_from([n for n in LADDER if n <= 1 << 15]),
                          st.integers(1, 10)), min_size=1, max_size=12),
       st.sampled_from([sorted, lambda x: sorted(x, reverse=True), list]))
@settings(deadline=None, max_examples=examples(200))
def test_damped_tables_any_order(asked, order):
    """Whatever the order of the grid sizes and steps asked for, the tables
    equal those built at that size and step bit for bit, and one set is kept
    per (size, step) asked for."""
    _TABLES.clear()
    for n, r in order(asked) + asked[:2]:
        for got, want in zip(_tables(n, r), direct_tables(n, r), strict=True):
            assert got.tobytes() == want.tobytes()
    assert set(_TABLES) == set(asked)


def random_plan(draw_links):
    return [LinkPlan(link_index=i + 1, end_stop_id=f"S{i + 1}", remaining_dist=100.0,
                     speed=10.0, steps=1.0 / (1.0 - p), p_stay=p,
                     dwell=EmpiricalDwell(f"S{i + 1}", np.sort(np.array(pool, dtype=float))),
                     intersections=tuple(IntersectionLogNormal(f"X{i}{j}", mu, sigma, 10)
                                         for j, (mu, sigma) in enumerate(xs)))
            for i, (p, pool, xs) in enumerate(draw_links)]


POOLS = st.one_of(st.lists(st.integers(0, 60).map(float), min_size=1, max_size=50),
                  st.lists(st.floats(0.0, 60.0), min_size=1, max_size=50))
LINKS = st.lists(st.tuples(st.floats(0.0, 0.97), POOLS,
                           st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 1.0)),
                                    max_size=2)),
                 min_size=1, max_size=6)


def lognormal_quantile(mu: float, sigma: float, tail: float) -> int:
    """The least q on the 1 s grid with P(floor(X) > q) <= tail, X log-normal
    with its mass above exp(mu + 7 sigma) at that point's floor: the normal
    quantile's estimate, then stepped to where P(X > q + 1) first reaches
    the tail (the standard score taken before the 1 / sqrt(2))."""
    top = math.floor(math.exp(mu + LOGNORMAL_TOP_Z * sigma))
    if sigma == 0.0:
        return top

    def above(q):
        return 0.0 if q >= top else 0.5 * math.erfc((math.log(q + 1) - mu) / sigma / math.sqrt(2))

    q = min(max(math.ceil(math.exp(mu + sigma * NormalDist().inv_cdf(1 - tail))) - 1, 0), top)
    while above(q) > tail:
        q += 1
    while q > 0 and above(q - 1) <= tail:
        q -= 1
    return q


def grid_points(links, r, tail=GRID_TAIL):
    """The least grid size of the module docstring's tail rule at h = 1 s:
    the Chernoff steps at tail / 2 times r, each of the K components'
    (1 - tail / 2K) quantile, and one. A pool's quantile is a pool value:
    the one with at most that share of the pool above it."""
    k_tail = tail / (2 * sum(1 + len(xs) for *_, xs in links))
    tops = [int(np.sort(np.floor(pool))[len(pool) - 1 - math.floor(k_tail * len(pool))])
            for _, pool, _ in links]
    tops += [lognormal_quantile(mu, sigma, k_tail) for *_, xs in links for mu, sigma in xs]
    return _geometric_steps(np.array([p for p, _, _ in links]), tail / 2) * r + sum(tops) + 1


# reads below this share of the grid keep rho^(-k) below 2e4, rho^n = DAMPING
READ_LIMIT = math.log(2e4) / math.log(1.0 / DAMPING)


def reread_points(links, r):
    """The least grid size of the module docstring's re-inversion: the tail
    rule's, and the union bound's point at the 97.5% read's 2.5% tail over
    READ_LIMIT, so that the read lies below READ_LIMIT n."""
    return max(grid_points(links, r), math.ceil(grid_points(links, r, 1.0 - BAND[1]) / READ_LIMIT))


def floored_lognormal(mu: float, sigma: float, size: int) -> np.ndarray:
    """The PMF on the 1 s grid, to ``size`` points, of a log-normal time
    rounded down, its mass above exp(mu + 7 sigma) at that point's floor.
    The standard score is taken before the 1 / sqrt(2): a subnormal sigma
    times sqrt(2) rounds back to sigma."""
    if sigma == 0.0:
        return np.bincount([math.floor(math.exp(mu))], minlength=1).astype(float)
    top = min(math.floor(math.exp(mu + LOGNORMAL_TOP_Z * sigma)), size)
    cdf = [0.5 * math.erfc((mu - math.log(t)) / sigma / math.sqrt(2.0))
           for t in range(1, top + 1)]
    return np.diff(cdf, prepend=0.0, append=1.0)


def convolved_cdfs(links, r: int, size: int) -> list:
    """At each stop, the CDF on the first ``size`` points of the 1 s grid of
    the remaining time with every dwell and intersection time rounded down:
    per link, ``r`` grid points per geometric step, the floored pool and the
    floored log-normals, convolved in the time domain. A law's first ``size``
    points need no more of any part."""
    law, cdfs = np.ones(1), []
    k = np.arange(1, (size - 1) // r + 1)
    for p, pool, xs in links:
        steps = np.zeros(size)
        steps[k * r] = (1.0 - p) * p ** (k - 1)
        dwell = np.bincount(np.floor(pool).astype(np.intp)) / len(pool)
        for part in (steps, dwell, *(floored_lognormal(mu, sigma, size) for mu, sigma in xs)):
            law = np.convolve(law, part[:size])[:size]
        cdfs.append(np.cumsum(law))
    return cdfs


def band_end(cdf, level: float, at: float) -> None:
    """``at`` is the first grid point whose CDF reaches ``level`` less
    TAIL_EPS. The FFT's CDF lies within TAIL_EPS (the mass that wraps past the
    grid) and rounding of the convolved one, so where the convolved CDF comes
    within 2 TAIL_EPS below the level, ``at`` may lie at any point in that reach."""
    low, high = cdf >= level - 2 * TAIL_EPS - 1e-12, cdf >= level + 1e-12
    assert low.any() and np.argmax(low) <= at <= (np.argmax(high) if high.any() else cdf.size)


HEAVY = (0.9, [5.0, 12.0, 30.0], [(3.5, 1.0)])  # ROADMAP item 5's heavy link


def heavy_examples(test):
    """The plans that the grid rule used to refuse, where the sum of the
    components' tops passed MAX_GRID: three signals, and ROADMAP item 5's
    8, 20 and 40 links with one signal at mu 3.5 and sigma 1 each; and a
    subnormal sigma: P(X <= 1) is Phi(-mu / sigma) = Phi(-1)."""
    for links in ([(0.0, [0.0], [(3.0, 1.0)]), (0.0, [0.0], [(4.0, 1.0)]),
                   (0.0, [0.0], [(4.0, 1.0)])],
                  [HEAVY] * 8, [HEAVY] * 20, [HEAVY] * 40,
                  [(0.328125, [0.0, 0.0, 0.0, 16.0], [(5e-324, 5e-324)])]):
        test = example(links=links)(test)
    return test


def refused(links) -> bool:
    """Whether ``simulate`` refuses the plan. A refusal must be
    ``grid_too_large`` with the re-inversion's grid past MAX_GRID, and an
    accepted plan's tail-rule grid must fit."""
    try:
        simulate(random_plan(links), MarkovConfig(delta_t=5.0))
    except SimError as e:
        assert e.kind == "grid_too_large"
        assert reread_points(links, 5) >= MAX_GRID
        return True
    assert grid_points(links, 5) < MAX_GRID
    return False


def inexact_components(links):
    """Per stop, the components up to it with an atom off the 1 s grid."""
    return np.cumsum([(np.floor(pool) != pool).any()
                      + sum(sigma > 0.0 or math.exp(mu) % 1.0 != 0.0 for mu, sigma in xs)
                      for _, pool, xs in links])


@given(links=LINKS)
@heavy_examples
@settings(deadline=None)  # the default examples, so that the ci profile can raise them
def test_exact_law_against_monte_carlo_oracle(links):
    """Random plans against an exact oracle of the floored law, the
    ``np.convolve`` of its parts: each band end is the convolved CDF's first
    point at its level but where that CDF comes within 2 TAIL_EPS of the
    level, the upper end lies one grid step further per component that is
    not on the grid, and each mean is the exact one to float rounding. The
    floor itself, S- <= S <= S- + N_k h per run, is left to the million runs
    of ``accel.markov_offsets`` in ``test_acceptance``. A plan whose grid would
    pass MAX_GRID is refused as ``grid_too_large``."""
    if refused(links):
        return
    summary = simulate(random_plan(links), MarkovConfig(delta_t=5.0))  # r = 5 points of 1 s
    inexact = inexact_components(links)
    size = round(summary.stops[-1].p97_5) + 64  # past the last band end
    assert size <= MAX_GRID + 64
    mean = np.cumsum([5.0 / (1.0 - p) + np.mean(np.sort(pool))
                      + sum(math.exp(mu + sigma * sigma / 2.0) for mu, sigma in xs)
                      for p, pool, xs in links])
    for f, cdf, n_k, m in zip(summary.stops, convolved_cdfs(links, 5, size), inexact, mean):
        band_end(cdf, BAND[0], f.p2_5)
        band_end(cdf, BAND[1], f.p97_5 - n_k)
        assert f.mean_remaining == pytest.approx(m, rel=1e-12)


@given(links=LINKS)
@heavy_examples
@settings(deadline=None, max_examples=examples(100))
def test_cdf_within_tail_eps_of_the_convolved_law(links):
    """The grid is the ladder size of the module docstring's tail rule or of
    its re-inversion, and the damped inversion's CDF at every stop lies within
    TAIL_EPS, the module docstring's budget for aliasing and rounding, of the
    convolved law's (and its rounding) at every grid point up to the last
    band end."""
    if refused(links):
        return
    plans = random_plan(links)
    last = round(simulate(plans, MarkovConfig(delta_t=5.0)).stops[-1].p97_5) + 1
    cdf = _cdfs(plans, 5, 1.0)[0]
    assert cdf.shape[1] in (_grid_size(grid_points(links, 5)),
                            _grid_size(reread_points(links, 5)))
    cdf = cdf[:, :last]
    want = np.array(convolved_cdfs(links, 5, cdf.shape[1]))
    assert np.abs(cdf - want).max() <= TAIL_EPS + 1e-12


@pytest.mark.parametrize("delta_t", [5.0, 2.0, 1.0])
def test_expected_road_time_approaches_prediction(delta_t):
    # 200 m at 10 m/s: E[f * dt] = S * dt = 20 s exactly for every dt
    s = 200.0 / (delta_t * 10.0)
    p_stay = (s - 1.0) / s
    lp = LinkPlan(link_index=1, end_stop_id="S1", remaining_dist=200.0, speed=10.0,
                  steps=s, p_stay=p_stay, dwell=dwell_const(0.0), intersections=())
    summary = simulate([lp], MarkovConfig(delta_t=delta_t))
    assert summary.stops[0].mean_remaining == pytest.approx(20.0, rel=1e-12)


class TestSessionUpdateRule:
    """Indicator updates follow the latest open-road pair: 7->7 no emission,
    7->3 flips to congested, 3->7 flips back; each flip re-predicts."""

    @pytest.fixture
    def session(self):
        return self.new_session()

    def new_session(self, link_speed_thresholds="", thresholds=None):
        net, xs = network_with([0.0, 800.0, 1600.0], [])
        rm = build_route_model(net, xs, ("R", 0))
        road = {1: constant_model(80.0), 2: constant_model(80.0)}
        dwells = {"S1": dwell_const(10.0), "S2": dwell_const(5.0)}
        cfg = RunConfig(speed_threshold=5.0, link_speed_thresholds=link_speed_thresholds)
        return PredictionSession(rm, road, dwells, {}, fixed_covariates,
                                 MarkovConfig(delta_t=5.0),
                                 thresholds or cfg.speed_threshold_by_link)

    def ping(self, t, arc):
        """A (time, arc) pair, all that the session reads of a ping."""
        return float(t), float(arc)

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

    def test_pair_flips_just_below_its_speed(self):
        """A pair's speed is its arc distance over its elapsed time: a link
        threshold at that speed keeps the indicator at 0, and the next
        float above it flips it to 1."""
        for first, second, speed in (((0, 100), (20, 250), 7.5), ((0, 100), (15, 100), 0.0),
                                     ((0, 50), (15, 150), 100 / 15)):
            for threshold, flips in ((speed, False), (np.nextafter(speed, np.inf), True)):
                session = self.new_session(thresholds={1: threshold})
                session.start(self.ping(*first))
                assert session.observe(self.ping(*second)) is flips
                assert session.traffic == flips

    def test_equal_timestamps_are_not_a_pair(self, session):
        """Two open-road pings on one link at one time are no pair, as in
        infer's ``slowest_speeds``; the next pair that moves in time counts."""
        assert session.start(self.ping(0, 100.0)) is not None
        assert session.update(self.ping(0, 101.0)) is None
        assert session.traffic == 0
        assert session.update(self.ping(10, 131.0)) is not None  # 3 m/s
        assert session.traffic == 1

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
                                    MarkovConfig(), RunConfig().speed_threshold_by_link)
        summary = session.start(ProjectedPing(timestamp=0.0, arc_pos=arc))
        # the session starts a position before the first stop at the first stop
        expected = link_scan(rm, max(arc, first))
        assert (summary and summary.origin_link) == expected
    cases = (first, mid - 1.0, mid, last - 0.1, last)
    assert [link_scan(rm, a) for a in cases] == [1, 1, 2, 3, None]
    assert open_road_link_of(arcs, rm) == [
        link_scan(rm, a) if first < a < last and a not in rm.stop_arcs else -1 for a in arcs]


def test_sessions_and_infer_share_one_open_road_table(monkeypatch):
    """The open-road rule is evaluated once per route model: three sessions
    and infer's slowest speeds read the one table it fills."""
    rule, calls = geometry.open_road_link_of, []

    def counted(arcs, rm):
        calls.append(len(arcs))
        return rule(arcs, rm)

    monkeypatch.setattr(geometry, "open_road_link_of", counted)
    net, xs = network_with([0.0, 500.0, 1200.0], [("X1", 250.0)])
    rm = build_route_model(net, xs, ("R", 0))
    sessions = [PredictionSession(rm, {}, {}, {}, fixed_covariates, MarkovConfig(),
                                  RunConfig().speed_threshold_by_link) for _ in range(3)]
    slowest = slowest_speeds(np.array([0.0, 10.0]), np.array([100.0, 140.0]),
                             np.zeros(2, np.int64), 1, rm)
    assert len(calls) == 1
    assert slowest[0, 1] == pytest.approx(4.0)  # below the 5 m/s threshold: a flip
    assert [sessions[0].observe(p) for p in ((0.0, 100.0), (10.0, 140.0))] == [False, True]


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


@pytest.fixture(scope="module")
def replay_route():
    """The three-link route of ``traversal_pings`` and a session's models on it."""
    net, xs = network_with([0.0, 500.0, 1200.0, 1500.0], [("X1", 250.0), ("X2", 900.0)])
    rm = build_route_model(net, xs, ("R", 0))
    road = {link.index: constant_model(80.0) for link in rm.links}
    dwells = {link.to_stop: fit_dwell(link.to_stop, [4.0, 9.0, 20.0], min_samples=1)
              for link in rm.links}
    inters = {xid: IntersectionLogNormal(xid, mu_s=2.0, sigma_s=0.4, n=10) for xid in ("X1", "X2")}
    return rm, (road, dwells, inters)


def session_outputs(rm, models, pings) -> tuple:
    """A replay's summary or None per ping, and the ``--at`` summary at the last ping."""
    def session():
        return PredictionSession(rm, *models, fixed_covariates, MarkovConfig(),
                                 RunConfig().speed_threshold_by_link)
    replay, at = session(), session()
    summaries = [replay.start(pings[0]), *map(replay.update, pings[1:])]
    for ping in pings[:-1]:
        at.observe(ping)
    return summaries, at.emit_at(pings[-1])


@given(pings=traversal_pings(), cut=st.one_of(st.none(), st.integers(-1, 2500)))
@ROUTE_PASS
def test_replay_pairs_are_the_benchmark_pings(replay_route, pings, cut):
    """``run_simulate``'s pairs, projected and repaired on the segment's
    arrays with the ``at`` cut in the keep mask, are perfbench's
    ``repair_monotonic(project_traversal(...))`` pings up to ``at``, and a
    session fed either gives the same summaries, replayed and at the cut."""
    rm, models = replay_route
    times, arcs = pings
    trav = Traversal("T1", "V1", times, np.full(len(arcs), LAT0), np.array([lon_at(a) for a in arcs]))
    at = None if cut is None else float(times[0] + cut)
    pairs = replay_pairs(trav, rm, 5.0, at)
    benchmark = [p for p in repair_monotonic(project_traversal(trav, rm), 5.0)
                 if at is None or p.timestamp <= at]
    assert pairs == benchmark
    if pairs:
        assert session_outputs(rm, models, pairs) == session_outputs(rm, models, benchmark)


class ScalarRuleSession(PredictionSession):
    """The session that classifies each ping by ``open_road_link_of`` itself,
    the reference for the session's table lookup."""

    def observe(self, ping) -> bool:
        (t0, arc0, tag0), t, arc = self._prev, ping[0], ping[1]
        tag = open_road_link_of([arc], self.rm)[0]
        self._prev = (t, arc, tag)
        if tag < 1 or tag != tag0 or not t > t0:
            return False
        traffic = 1 if (arc - arc0) / (t - t0) < self.thresholds[tag] else 0
        if traffic == self.traffic:
            return False
        self.traffic = traffic
        return True


@given(pings=traversal_pings(), seed=st.integers(0, 2**32 - 1),
       rate=st.sampled_from([0.0, 0.2, 0.6]))
@ROUTE_PASS
def test_session_flips_where_the_scalar_rule_does(replay_route, pings, seed, rate):
    """On a random ping walk through the zones, some pings on a zone end,
    a stop or a float beside one, the session flips and emits at the pings
    where the reference session does, with the same summaries."""
    rm, models = replay_route
    times, arcs = pings
    rng = np.random.default_rng(seed)
    arcs = np.where(rng.random(len(arcs)) < rate, rng.choice(exact_arcs(rm), len(arcs)), arcs)
    pairs = list(zip(times.astype(float).tolist(), arcs.tolist()))
    runs = []
    for kind in (PredictionSession, ScalarRuleSession):
        session = kind(rm, *models, fixed_covariates, MarkovConfig(),
                       RunConfig().speed_threshold_by_link)
        runs.append([(session.start(pairs[0]), session.traffic),
                     *((session.update(p), session.traffic) for p in pairs[1:])])
    assert runs[0] == runs[1]


def test_aliasing_bound_is_half_of_tail_eps():
    """The module docstring's bound on the aliased mass, GRID_TAIL DAMPING /
    (1 - DAMPING) = 5.0e-10, is half of TAIL_EPS: the other half is left to
    rounding below the read limit."""
    assert GRID_TAIL * DAMPING / (1.0 - DAMPING) == pytest.approx(TAIL_EPS / 2, rel=1e-6)


@given(links=LINKS)
@heavy_examples
@settings(deadline=None, max_examples=examples(100))
def test_reads_below_the_read_limit_and_tail_past_the_grid(links):
    """On every plan that ``simulate`` accepts, each stop's 97.5% read lies
    below READ_LIMIT n, where rho^(-k) keeps rounding inside TAIL_EPS, and
    the computed survival at the last grid point of the last stop is at most
    GRID_TAIL up to its rounding: 1e-13, about four times the module
    docstring's estimate at K + log2 n = 110, times rho^(-(n-1)) < 1 / DAMPING.
    That survival is P(S- > n - 1) plus non-negative aliased terms, so it
    bounds the mass past the grid, whichever grid the rule chose."""
    if refused(links):
        return
    cdf = _cdfs(random_plan(links), 5, 1.0)[0]
    reads = cdf >= BAND[1] - TAIL_EPS
    assert reads.any(axis=1).all()
    assert (np.argmax(reads, axis=1) < READ_LIMIT * cdf.shape[1]).all()
    assert 1.0 - cdf[-1, -1] <= GRID_TAIL + 1e-13 / DAMPING


@given(links=LINKS)
@heavy_examples
@settings(deadline=None, max_examples=examples(100))
def test_band_ends_are_the_first_crossings_on_the_whole_grid(links):
    """``simulate`` reads each band end on the read slice alone. Each equals the
    first point of the final inversion's whole grid where the stop's CDF reaches
    its level less TAIL_EPS, the 97.5% end one grid step further per inexact
    component; and each mean is the cumulative sum, in route order, of each
    link's delta_t / (1 - p_stay) plus its parts' means."""
    if refused(links):
        return
    plans = random_plan(links)
    summary = simulate(plans, MarkovConfig(delta_t=5.0))  # r = 5 points of 1 s
    cdf, laws = _cdfs(plans, 5, 1.0)[:2]
    lower = np.argmax(cdf >= BAND[0] - TAIL_EPS, axis=1)
    upper = np.argmax(cdf >= BAND[1] - TAIL_EPS, axis=1) + inexact_components(links)
    mean = np.cumsum(5.0 / (1.0 - np.array([p for p, _, _ in links]))
                     + [sum(law.mean for law in link) for link in laws])
    assert [f.p2_5 for f in summary.stops] == lower.tolist()
    assert [f.p97_5 for f in summary.stops] == upper.tolist()
    assert [f.mean_remaining for f in summary.stops] == mean.tolist()


PLAN_ROUTE = build_route_model(*network_with([0.0, 800.0, 1600.0, 2400.0],
                                             [("X1", 250.0), ("X2", 550.0), ("X3", 1200.0),
                                              ("X4", 2000.0)]), ("R", 0))


def reference_plan(rm, road_models, dwell_models, intersection_models, covariates,
                   origin_link, origin_arc, delta_t):
    """``build_plan``'s rule, written out: the links at or past the origin by
    a filter, the road times from ``design_matrix``'s row, and the origin
    link's intersections past the origin by a lookup of every arc."""
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


@st.composite
def plan_origins(draw):
    """An origin: a link index, from one before the first to one past the last,
    and an arc on that link, up to 10 m past its end."""
    k = draw(st.integers(0, len(PLAN_ROUTE.links) + 1))
    if not 1 <= k <= len(PLAN_ROUTE.links):
        return k, PLAN_ROUTE.first_arc
    link = PLAN_ROUTE.links[k - 1]
    return k, draw(st.floats(link.start_arc, link.end_arc + 10.0))


@given(betas=st.lists(st.tuples(st.floats(math.log(2.0), math.log(300.0)),
                                *[st.floats(-0.5, 0.5)] * 4), min_size=3, max_size=3),
       covariates=st.one_of(st.builds(CovariateVector, *[st.integers(0, 1)] * 4),
                            st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4).map(np.array)),
       origin=plan_origins(), delta_t=st.sampled_from([1.0, 2.0, 5.0, 7.5]))
@example(betas=[(math.log(80.0), 0.0, 0.0, 0.0, 0.0)] * 3,
         covariates=CovariateVector(1, 0, 1, 1), origin=(1, 400.0), delta_t=5.0)
@settings(deadline=None)
def test_build_plan_equals_the_reference_plan(betas, covariates, origin, delta_t):
    """Random road models, covariates and origins, on a route whose first link
    holds two intersections: ``build_plan``'s plans, or its refusal's kind and
    message, are the reference rule's, to the last bit. The example's origin
    lies between those two intersections."""
    assert PLAN_ROUTE.links[0].intersection_ids == ("X1", "X2")
    road = {k + 1: HetLogNormalModel(beta=np.array(b), gamma=np.zeros(5), fim=np.eye(10), n=100,
                                     active_mask=np.ones(5, dtype=bool), loglik=0.0)
            for k, b in enumerate(betas)}
    dwells = {f"S{k}": dwell_const(2.0 * k) for k in range(1, 4)}
    xs = {f"X{k}": IntersectionLogNormal(f"X{k}", mu_s=float(k), sigma_s=0.5, n=10)
          for k in range(1, 5)}
    args = (PLAN_ROUTE, road, dwells, xs, covariates, *origin, delta_t)

    def outcome(rule):
        try:
            return repr(rule(*args))
        except (SimError, ConfigError) as e:
            return type(e), e.kind, str(e)
    assert outcome(build_plan) == outcome(reference_plan)
