"""The vectorized projection kernel against its scalar reference on random
shapes: open, looping and out-and-back polylines (the same street passed
twice), with repeated vertices (zero-length segments), queried at random
points, exactly on vertices and midway between two passes. The results
must be equal byte for byte, finite, and free of numpy warnings."""

import warnings

import numpy as np
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

from buslink import accel, geometry

# small integer coordinates make exact ties (vertices, equidistant passes) common
coord = st.integers(-60, 60).map(float)
point = st.tuples(coord, coord)
anywhere = st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0))


@st.composite
def shapes(draw):
    pts = draw(st.lists(point, min_size=2, max_size=12))
    kind = draw(st.sampled_from(("open", "loop", "out_and_back", "hairpin")))
    if kind == "loop":
        pts = pts + [pts[0]]
    elif kind == "out_and_back":
        pts = pts + pts[-2::-1]
    elif kind == "hairpin":  # two parallel passes 2h apart
        length, h = draw(st.integers(1, 60)), draw(st.integers(1, 20))
        pts = [(0.0, 0.0), (float(length), 0.0), (float(length), 2.0 * h), (0.0, 2.0 * h)]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(pts) - 1))
        pts.insert(k, pts[k])
    return pts


@st.composite
def cases(draw):
    pts = draw(shapes())
    vertex = st.sampled_from(pts)
    midway = st.tuples(vertex, vertex).map(
        lambda ab: ((ab[0][0] + ab[1][0]) / 2.0, (ab[0][1] + ab[1][1]) / 2.0))
    queries = draw(st.lists(st.one_of(anywhere, vertex, midway), min_size=1, max_size=40))
    return pts, queries


def project_both(pts, queries):
    vx, vy = (np.array(c) for c in zip(*pts))
    cum = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(vx), np.diff(vy)))))
    qx, qy = (np.array(c) for c in zip(*queries))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (accel.project_onto_polyline(qx, qy, vx, vy, cum),
                accel._project_scalar(qx, qy, vx, vy, cum))


@given(case=cases())
@example(case=([(0.0, 0.0), (10.0, 0.0), (10.0, 0.0), (10.0, 10.0)], [(10.0, 0.0), (12.0, 5.0)]))
@example(case=([(0.0, 0.0), (20.0, 0.0), (20.0, 6.0), (0.0, 6.0)], [(7.0, 3.0), (-1.0, 3.0)]))
@settings(deadline=None, max_examples=300)
def test_projection_equals_scalar_reference(case):
    (arc, off), (ref_arc, ref_off) = project_both(*case)
    assert arc.tobytes() == ref_arc.tobytes()
    assert off.tobytes() == ref_off.tobytes()
    assert np.all(np.isfinite(arc)) and np.all(np.isfinite(off))


@given(n_vertices=st.integers(2, 400), sizes=st.lists(st.integers(1, 300), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_one_projection_per_route_equals_one_per_traversal(n_vertices, sizes, seed):
    """``run_infer`` projects all pings of a route in one call. The kernel
    works per ping and its block size depends only on the segment count, so
    each traversal's slice equals its own call byte for byte."""
    rng = np.random.default_rng(seed)
    polyline = geometry.build_polyline(
        np.column_stack((29.65 + np.cumsum(rng.normal(0.0, 1e-4, n_vertices)),
                         -82.33 + np.cumsum(rng.normal(0.0, 1e-4, n_vertices)))))
    lats = [29.65 + rng.normal(0.0, 3e-4, k) for k in sizes]
    lons = [-82.33 + rng.normal(0.0, 3e-4, k) for k in sizes]
    arcs, offs = geometry.project_many(polyline, np.concatenate(lats), np.concatenate(lons))
    ends = np.cumsum(sizes)[:-1]
    for arc, off, lat, lon in zip(np.split(arcs, ends), np.split(offs, ends), lats, lons):
        one_arc, one_off = geometry.project_many(polyline, lat, lon)
        assert arc.tobytes() == one_arc.tobytes()
        assert off.tobytes() == one_off.tobytes()


# Shapes of several chunks: the pruned search must still find every pass.
CHUNK, PING_BLOCK = accel.CHUNK_SEGMENTS, accel.PING_BLOCK_ELEMENTS
step = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda d: (float(d[0]), float(d[1])))


@st.composite
def long_shapes(draw, chunk):
    """Shapes of 2 to 12 chunks of ``chunk`` segments: random walks, open,
    closed into a loop, or out and back (the return pass lies in other
    chunks than the outward one), with vertices repeated on chunk
    boundaries; or a hairpin, two straight passes 2h apart joined by a
    turn, each longer than a chunk."""
    kind = draw(st.sampled_from(("open", "loop", "out_and_back", "hairpin")))
    if kind == "hairpin":
        length, h = draw(st.integers(chunk + 1, 6 * chunk)), draw(st.integers(1, chunk // 2))
        return ([(float(i), 0.0) for i in range(length + 1)]
                + [(float(i), 2.0 * h) for i in range(length, -1, -1)])
    steps = draw(st.lists(step, min_size=chunk + 1, max_size=6 * chunk))
    pts = [(0.0, 0.0)]
    for sx, sy in steps:
        pts.append((pts[-1][0] + sx, pts[-1][1] + sy))
    if kind == "loop":
        pts = pts + [pts[0]]
    elif kind == "out_and_back":
        pts = pts + pts[-2::-1]
    for k in draw(st.lists(st.integers(1, (len(pts) - 1) // chunk), max_size=3, unique=True)):
        pts.insert(k * chunk, pts[k * chunk])
    return pts


def _between(a, b, t):
    return a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])


@st.composite
def long_cases(draw):
    """A chunk size, a shape of several chunks and pings. Besides points
    anywhere, on and near vertices and chunk boundaries, the pings include:
    points midway between vertex i and vertex -1 - i within two chunks of
    the middle, which on a hairpin lie between the passes near the turn,
    where the turn's chunk is the nearest box but the outward pass is as
    near; and points along segments, chiefly the last segment of a chunk,
    which a box without the chunk's last vertex would miss. At the default
    chunk size there are at most 40 pings; at a small one up to twice the
    segment count, so the first pass also runs grouped by chunk."""
    chunk = draw(st.sampled_from((4, 8, CHUNK)))
    pts = draw(long_shapes(chunk))
    segments = len(pts) - 1
    vertex = st.sampled_from(pts)
    boundary = st.sampled_from(pts[::chunk])
    midway = st.tuples(vertex, vertex).map(lambda ab: _between(*ab, 0.5))
    middle = len(pts) // 2
    mirror = st.integers(max(0, middle - 2 * chunk), middle).map(
        lambda i: _between(pts[i], pts[-1 - i], 0.5))
    near = st.tuples(vertex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(
        lambda v: (v[0][0] + v[1], v[0][1] + v[2]))
    fraction = st.sampled_from((0.25, 0.5, 0.75, 0.875))
    along = st.tuples(st.integers(0, segments - 1), fraction).map(
        lambda jt: _between(pts[jt[0]], pts[jt[0] + 1], jt[1]))
    chunk_end = st.tuples(st.integers(1, segments // chunk), fraction).map(
        lambda ct: _between(pts[ct[0] * chunk - 1], pts[ct[0] * chunk], ct[1]))
    n = draw(st.integers(1, 40 if chunk == CHUNK else 2 * segments))
    queries = draw(st.lists(
        st.one_of(anywhere, vertex, boundary, midway, mirror, near, along, chunk_end, chunk_end),
        min_size=n, max_size=n))
    return chunk, pts, queries


@given(case=long_cases(), chunks_per_block=st.sampled_from([1, 4, None]))
# The last segment of chunk 0 leaves the box of the chunk's other vertices.
@example(case=(4, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (3.0, 10.0), (4.0, 10.0),
                   (5.0, 10.0), (6.0, 10.0), (7.0, 10.0)], [(3.0, 8.0)]), chunks_per_block=1)
# The turn's chunk is the nearest box, the outward pass exactly as near as its box.
@example(case=(4, [(float(i), 0.0) for i in range(10)] + [(float(i), 2.0) for i in range(9, -1, -1)],
               [(7.0, 1.0)]), chunks_per_block=1)
# No shrink phase: shrinking a failing shape of up to 385 vertices against
# the pure-Python reference takes minutes; the first failing example is
# reported as drawn.
@settings(deadline=None, max_examples=200, phases=[phase for phase in Phase if phase is not Phase.shrink],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_multi_chunk_projection_equals_scalar_reference(monkeypatch, case, chunks_per_block):
    """At most 40 pings on at most 385 segments fit in one broadcast block of
    the default size, so blocks of one or four chunks make the call take the
    pruned search, gathered or grouped by chunk, and in several blocks of
    pings. Both sizes are set on every example: the patch lasts for all of
    them."""
    chunk, pts, queries = case
    monkeypatch.setattr(accel, "CHUNK_SEGMENTS", chunk)
    monkeypatch.setattr(accel, "PING_BLOCK_ELEMENTS",
                        chunk * chunks_per_block if chunks_per_block else PING_BLOCK)
    (arc, off), (ref_arc, ref_off) = project_both(pts, queries)
    assert arc.tobytes() == ref_arc.tobytes()
    assert off.tobytes() == ref_off.tobytes()


def test_2000_vertex_collinear_shape_equals_scalar_reference():
    rng = np.random.default_rng(11)
    pts = [(20.0 * i, 0.0) for i in range(2000)]
    qx = np.concatenate((rng.uniform(-50.0, 40050.0, 60), 20.0 * rng.integers(0, 2000, 30),
                         20.0 * CHUNK * rng.integers(0, 2000 // CHUNK, 10)))
    qy = np.where(rng.random(100) < 0.5, 0.0, rng.uniform(-30.0, 30.0, 100))
    (arc, off), (ref_arc, ref_off) = project_both(pts, list(zip(qx, qy)))
    assert arc.tobytes() == ref_arc.tobytes()
    assert off.tobytes() == ref_off.tobytes()


def test_hairpin_passes_in_different_chunks_take_the_earlier_arc():
    """Two parallel passes 2h apart, each longer than a chunk: a point
    midway between them is equidistant and lands on the outward pass."""
    length, h = 3 * CHUNK, 2.0
    out = [(float(i), 0.0) for i in range(length + 1)]
    back = [(float(i), 2.0 * h) for i in range(length, -1, -1)]
    pts = out + back
    # short of the turn, which is nearer than h
    queries = [(x + d, h) for x in range(length - 3) for d in (0.0, 0.5)]
    (arc, off), (ref_arc, ref_off) = project_both(pts, queries)
    assert arc.tobytes() == ref_arc.tobytes()
    assert off.tobytes() == ref_off.tobytes()
    assert np.array_equal(arc, [q[0] for q in queries]) and np.all(off == h)
