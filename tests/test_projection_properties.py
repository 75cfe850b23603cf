"""The vectorized projection kernel against its scalar reference on random
shapes: open, looping and out-and-back polylines (the same street passed
twice), with repeated vertices (zero-length segments), queried at random
points, exactly on vertices and midway between two passes. The results
must be equal byte for byte, finite, and free of numpy warnings. Each
test takes conftest's ``examples``, so the ``ci`` profile's count."""

import warnings

import numpy as np
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

from buslink import accel, geometry
from conftest import examples

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


@given(case=cases(), block=st.sampled_from((32, 48, 64, 128, accel.PING_BLOCK_ELEMENTS)))
@example(case=([(0.0, 0.0), (10.0, 0.0), (10.0, 0.0), (10.0, 10.0)], [(10.0, 0.0), (12.0, 5.0)]),
         block=accel.PING_BLOCK_ELEMENTS)
@example(case=([(0.0, 0.0), (20.0, 0.0), (20.0, 6.0), (0.0, 6.0)], [(7.0, 3.0), (-1.0, 3.0)]),
         block=accel.PING_BLOCK_ELEMENTS)
@settings(deadline=None, max_examples=examples(300),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_projection_equals_scalar_reference(monkeypatch, case, block):
    """These short shapes (at most 32 segments, one chunk) take the
    broadcast: a block of 32 to 128 pairs splits a call into blocks of a few
    pings; the default block broadcasts each call whole."""
    monkeypatch.setattr(accel, "PING_BLOCK_ELEMENTS", block)
    (arc, off), (ref_arc, ref_off) = project_both(*case)
    assert arc.tobytes() == ref_arc.tobytes()
    assert off.tobytes() == ref_off.tobytes()
    assert np.all(np.isfinite(arc)) and np.all(np.isfinite(off))


@given(n_vertices=st.integers(2, 400), sizes=st.lists(st.integers(1, 300), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=examples(60))
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
FRACTIONS = np.array([0.25, 0.5, 0.75, 0.875])


def long_shape(rng, chunk, kind, size):
    """A shape of 2 to 12 chunks of ``chunk`` segments: a random walk of
    ``size`` steps, open, closed into a loop, or out and back (the return
    pass lies in other chunks than the outward one), with vertices repeated
    on chunk boundaries; or a hairpin, two straight passes 2h apart joined
    by a turn, each ``size`` long, so longer than a chunk."""
    if kind == "hairpin":
        h = int(rng.integers(1, chunk // 2 + 1))
        return ([(float(i), 0.0) for i in range(size + 1)]
                + [(float(i), 2.0 * h) for i in range(size, -1, -1)])
    walk = np.cumsum(rng.integers(-3, 4, size=(size, 2)), axis=0).astype(float)
    pts = [(0.0, 0.0)] + [tuple(p) for p in walk.tolist()]
    if kind == "loop":
        pts = pts + [pts[0]]
    elif kind == "out_and_back":
        pts = pts + pts[-2::-1]
    boundaries = np.arange(1, (len(pts) - 1) // chunk + 1)
    for k in rng.permutation(boundaries)[:rng.integers(0, 4)].tolist():
        pts.insert(k * chunk, pts[k * chunk])
    return pts


def _between(a, b, t):
    return a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])


def long_queries(rng, chunk, pts, n):
    """``n`` pings of nine kinds, drawn alike: points anywhere, on and near
    vertices and on chunk boundaries; points midway between two vertices,
    or between vertex i and vertex -1 - i within two chunks of the middle,
    which on a hairpin lie between the passes near the turn, where the
    turn's chunk is the nearest box but the outward pass is as near; and
    points along segments and, in two kinds of the nine, along the last
    segment of a chunk, which a box without the chunk's last vertex would
    miss."""
    segments, middle, boundaries = len(pts) - 1, len(pts) // 2, pts[::chunk]
    queries = []
    for kind in rng.integers(9, size=n).tolist():
        a, b = pts[rng.integers(len(pts))], pts[rng.integers(len(pts))]
        t = float(rng.choice(FRACTIONS))
        if kind == 0:
            q = tuple(rng.uniform(-100.0, 100.0, 2).tolist())
        elif kind == 1:
            q = a
        elif kind == 2:
            q = boundaries[rng.integers(len(boundaries))]
        elif kind == 3:
            q = _between(a, b, 0.5)
        elif kind == 4:
            i = int(rng.integers(max(0, middle - 2 * chunk), middle + 1))
            q = _between(pts[i], pts[-1 - i], 0.5)
        elif kind == 5:  # offsets rounded to 0-2 decimals, so often exact
            dx, dy = np.round(rng.uniform(-3.0, 3.0, 2), rng.integers(0, 3)).tolist()
            q = (a[0] + dx, a[1] + dy)
        elif kind == 6:
            j = int(rng.integers(segments))
            q = _between(pts[j], pts[j + 1], t)
        else:
            c = chunk * int(rng.integers(1, segments // chunk + 1))
            q = _between(pts[c - 1], pts[c], t)
        queries.append(q)
    return queries


@st.composite
def long_cases(draw):
    """A chunk size, a shape of several chunks and pings. Hypothesis draws
    the seed and the sizes; one numpy generator of that seed draws the walk
    and the pings. At the default chunk size there are at most 40 pings; at
    a small one up to twice the segment count, so a call also spans several
    blocks of pings."""
    chunk = draw(st.sampled_from((4, 8, CHUNK)))
    kind = draw(st.sampled_from(("open", "loop", "out_and_back", "hairpin")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = long_shape(rng, chunk, kind, draw(st.integers(chunk + 1, 6 * chunk)))
    n = draw(st.integers(1, 40 if chunk == CHUNK else 2 * (len(pts) - 1)))
    return chunk, pts, long_queries(rng, chunk, pts, n)


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
@settings(deadline=None, max_examples=examples(200), phases=[phase for phase in Phase if phase is not Phase.shrink],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_multi_chunk_projection_equals_scalar_reference(monkeypatch, case, chunks_per_block):
    """At most 40 pings on at most 385 segments fit in one broadcast block of
    the default size, so blocks of one or four chunks make the call take the
    pruned search, in several blocks of pings. Both sizes are set on every
    example: the patch lasts for all of them."""
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
