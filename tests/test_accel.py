"""The vectorized hot kernels against their scalar references: the public
kernels must agree with ``_project_scalar`` and ``_markov_scalar`` to float
rounding, and each kernel must be deterministic."""

import numpy as np

from buslink import accel


def projection_case(seed=0, n=500):
    rng = np.random.default_rng(seed)
    vx = np.cumsum(rng.random(15)) * 120.0
    vy = np.cumsum(rng.normal(0, 10, 15))
    cum = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(vx), np.diff(vy)))))
    qx = rng.uniform(-50, vx[-1] + 50, n)
    qy = rng.uniform(-60, 60, n)
    return qx, qy, vx, vy, cum


def markov_case(seed=1, m=400):
    rng = np.random.default_rng(seed)
    p_stay = np.array([0.75, 0.9, 0.5, 1e-9])
    u_road = rng.random((m, 4))
    u_dwell = rng.random((m, 4))
    dwell_flat = np.array([0.0, 5.0, 10.0, 3.0, 3.0, 8.0, 1.0, 2.0])
    dwell_start = np.array([0, 3, 5, 6], dtype=np.int64)
    dwell_len = np.array([3, 2, 1, 2], dtype=np.int64)
    x_mu = np.array([2.0, 2.5])
    x_sigma = np.array([0.3, 0.4])
    x_start = np.array([0, 1, 2, 2], dtype=np.int64)
    x_len = np.array([1, 1, 0, 0], dtype=np.int64)
    z_x = rng.standard_normal((m, 2))
    return (p_stay, u_road, dwell_flat, dwell_start, dwell_len, u_dwell,
            x_mu, x_sigma, x_start, x_len, z_x, 5.0)


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

