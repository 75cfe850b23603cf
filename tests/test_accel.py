"""The vectorized hot kernels against their scalar references: the public
kernels must agree with ``_project_scalar`` and ``_markov_scalar`` to float
rounding, and each kernel must be deterministic."""

import numpy as np

from buslink import accel
from buslink.components import EmpiricalDwell, IntersectionLogNormal
from buslink.markov import LinkPlan


def projection_case(seed=0, n=500):
    rng = np.random.default_rng(seed)
    vx = np.cumsum(rng.random(15)) * 120.0
    vy = np.cumsum(rng.normal(0, 10, 15))
    cum = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(vx), np.diff(vy)))))
    qx = rng.uniform(-50, vx[-1] + 50, n)
    qy = rng.uniform(-60, 60, n)
    return qx, qy, vx, vy, cum


def markov_case(seed=1, m=400):
    """Four link plans (pools of 3, 2, 1 and 2 samples; one, two, zero and
    zero intersections) and the variates for ``m`` runs."""
    rng = np.random.default_rng(seed)
    p_stay = (0.75, 0.9, 0.5, 1e-9)
    pools = ([0.0, 5.0, 10.0], [3.0, 3.0], [8.0], [1.0, 2.0])
    xs = ([(2.0, 0.3)], [(2.5, 0.4), (1.5, 0.2)], [], [])
    plans = [LinkPlan(link_index=i + 1, end_stop_id=f"S{i + 1}", remaining_dist=100.0,
                      speed=10.0, steps=1.0 / (1.0 - p), p_stay=p,
                      dwell=EmpiricalDwell(f"S{i + 1}", np.array(pool), float(np.mean(pool))),
                      intersections=tuple(IntersectionLogNormal(f"X{i + 1}{k}", mu, sigma, 10)
                                          for k, (mu, sigma) in enumerate(x)))
             for i, (p, pool, x) in enumerate(zip(p_stay, pools, xs))]
    u_road = rng.random((m, 4))
    u_dwell = rng.random((m, 4))
    z_x = rng.standard_normal((m, 3))
    return plans, u_road, u_dwell, z_x, 5.0


def test_projection_backends_agree():
    qx, qy, vx, vy, cum = projection_case()
    a1, o1 = accel.project_onto_polyline(qx, qy, vx, vy, cum)
    a2, o2 = accel._project_scalar(qx, qy, vx, vy, cum)
    np.testing.assert_allclose(a1, a2, rtol=0, atol=1e-9)
    np.testing.assert_allclose(o1, o2, rtol=0, atol=1e-9)


def test_projection_bounds_and_determinism():
    qx, qy, vx, vy, cum = projection_case(seed=3)
    a1, o1 = accel.project_onto_polyline(qx, qy, vx, vy, cum)
    a2, o2 = accel.project_onto_polyline(qx, qy, vx, vy, cum)
    assert np.array_equal(a1, a2) and np.array_equal(o1, o2)
    assert np.all(a1 >= 0.0) and np.all(a1 <= cum[-1])
    assert np.all(o1 >= 0.0)


def test_markov_backends_agree():
    args = markov_case()
    np.testing.assert_allclose(accel.markov_offsets(*args), accel._markov_scalar(*args),
                               rtol=1e-12, atol=1e-9)


def test_markov_offsets_monotone_per_run():
    r = accel.markov_offsets(*markov_case(seed=7))
    assert np.all(np.diff(r, axis=1) > 0.0)


def test_markov_deterministic_per_backend():
    args = markov_case(seed=9)
    assert np.array_equal(accel.markov_offsets(*args), accel.markov_offsets(*args))

