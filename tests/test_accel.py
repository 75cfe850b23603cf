"""The vectorized hot kernels against their scalar references: projection
must equal ``_project_scalar`` byte for byte, the Markov transform must
agree with ``_markov_scalar`` to float rounding, and each kernel must be
deterministic."""

import warnings

import numpy as np
import pytest

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
                      dwell=EmpiricalDwell(f"S{i + 1}", np.array(pool)),
                      intersections=tuple(IntersectionLogNormal(f"X{i + 1}{k}", mu, sigma, 10)
                                          for k, (mu, sigma) in enumerate(x)))
             for i, (p, pool, x) in enumerate(zip(p_stay, pools, xs))]
    u_road = rng.random((m, 4))
    u_dwell = rng.random((m, 4))
    z_x = rng.standard_normal((m, 3))
    return plans, u_road, u_dwell, z_x, 5.0


def assert_projection_matches_scalar(qx, qy, vx, vy, cum):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a1, o1 = accel.project_onto_polyline(qx, qy, vx, vy, cum)
        a2, o2 = accel._project_scalar(qx, qy, vx, vy, cum)
    assert a1.tobytes() == a2.tobytes()
    assert o1.tobytes() == o2.tobytes()
    return a1, o1


def test_projection_backends_agree():
    assert_projection_matches_scalar(*projection_case())


def collinear_case(n_pings, n_vertices=250, seed=5):
    """``n_vertices`` vertices 20 m apart on the x axis; pings on vertices,
    between them, off to the side and past both ends."""
    rng = np.random.default_rng(seed)
    vx = np.arange(n_vertices) * 20.0
    vy = np.zeros(n_vertices)
    cum = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(vx), np.diff(vy)))))
    qx = np.where(rng.random(n_pings) < 0.3, vx[rng.integers(0, n_vertices, n_pings)],
                  rng.uniform(-100.0, vx[-1] + 100.0, n_pings))
    qy = np.where(rng.random(n_pings) < 0.5, 0.0, rng.uniform(-40.0, 40.0, n_pings))
    return qx, qy, vx, vy, cum


BLOCK = accel.PING_BLOCK_ELEMENTS


@pytest.mark.parametrize("n_vertices, n_pings", [
    pytest.param(250, 1, id="None"),
    *(pytest.param(250, BLOCK // 249 + d, id=str(d)) for d in (-1, 0, 1)),
    *(pytest.param(11, BLOCK // 10 + d, id=f"11_vertices{d:+d}") for d in (-1, 0, 1)),
    # 341 segments in chunks: two blocks of pings, the first not a multiple
    # of the pairs the pruned search gathers at once.
    pytest.param(342, BLOCK // -(-341 // accel.CHUNK_SEGMENTS) + 1, id="342_vertices"),
])
def test_projection_collinear_250_vertices_across_block_boundary(n_vertices, n_pings):
    """Calls on either side of the one-broadcast rule's bound, on 250 and 11
    vertices (one chunk), and a call of several blocks of pings on 342."""
    qx, qy, vx, vy, cum = collinear_case(n_pings, n_vertices)
    arc, off = assert_projection_matches_scalar(qx, qy, vx, vy, cum)
    on_line = (qy == 0.0) & (qx >= 0.0) & (qx <= vx[-1])
    np.testing.assert_allclose(arc[on_line], qx[on_line], rtol=0, atol=1e-9)
    assert np.all(off[on_line] == 0.0)


def test_projection_zero_length_segment_is_its_vertex():
    # a repeated vertex in the middle and at the end of the shape
    vx = np.array([0.0, 100.0, 100.0, 200.0, 200.0])
    vy = np.array([0.0, 0.0, 0.0, 50.0, 50.0])
    cum = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(vx), np.diff(vy)))))
    qx = np.array([100.0, 100.0, 250.0, 200.0, 50.0])
    qy = np.array([0.0, 10.0, 80.0, 50.0, -5.0])
    arc, off = assert_projection_matches_scalar(qx, qy, vx, vy, cum)
    assert np.all(np.isfinite(arc)) and np.all(np.isfinite(off))
    assert arc[0] == 100.0 and off[0] == 0.0
    assert arc[3] == cum[-1] and off[3] == 0.0
    # a shape that is one point: every ping projects onto it
    arc, off = assert_projection_matches_scalar(qx, qy, np.array([3.0, 3.0]),
                                                np.array([4.0, 4.0]), np.zeros(2))
    assert np.all(arc == 0.0)
    np.testing.assert_allclose(off, np.hypot(qx - 3.0, qy - 4.0), rtol=1e-15)


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

