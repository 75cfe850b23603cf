"""Numeric kernels: point-to-polyline projection and the Markov Monte Carlo.

Batch point-to-polyline projection (every ping of every traversal) is
the inner loop that dominates runtime on real feeds. ``markov_offsets``
is the M-run simulation of the link-state chain. No forecast calls it:
``markov.simulate`` returns the chain's exact law. It stays as the
Monte-Carlo oracle that the tests check that law against; the law's grid
and its error bound are stated in ``markov``'s module docstring.
``project_onto_polyline`` and ``markov_offsets`` are vectorized numpy;
``_project_scalar`` and ``_markov_scalar`` are plain loops over the same
elementwise expressions, each the one reference the tests check its
kernel against. Both kernels are bit-reproducible;
projection is bit-identical to its reference and the Markov transform
agrees with its own to float rounding.

``project_onto_polyline`` evaluates the clamped parameter ``t``, the
squared distance ``d2`` and the arc ``cum + t * seg`` of ping x segment
pairs, and each ping takes the lexicographic minimum of (d2, arc): the
smallest ``d2``, then the smallest arc, so a point equidistant from two
passes of a looping shape lands on the earlier one, whatever the order
in which pairs are visited. A zero-length segment is its start vertex.
Two rules, chosen by the call's ping and segment counts:

1. A call of at most ``PING_BLOCK_ELEMENTS`` ping x segment pairs, or on a
   shape of at most ``CHUNK_SEGMENTS`` segments, is a broadcast, segments
   on axis 0 and pings on axis 1, in blocks of ``PING_BLOCK_ELEMENTS //
   segments`` pings.
2. Every other call runs a pruned search. The shape is cut into chunks
   of ``CHUNK_SEGMENTS`` consecutive segments, each with
   the bounding box of its vertices. A first pass evaluates each ping on
   its nearest box's chunk, gathered, which gives it ``U``, a ``d2`` it
   has seen; a second pass evaluates it only on the other chunks whose
   box lies within ``sqrt(U) + tau``.

The pruning is exact: a segment lies in its box, and every computed
distance is within a few ulps of ``1 + max |coordinate|`` (pings and
vertices) of the exact one, about 1e-14 of it, while ``tau = 1e-9 * (1 +
max |coordinate|)``. So every segment of a skipped chunk has a computed
``d2`` above ``U`` and can neither win nor tie, and the result is
bit-identical to ``_project_scalar``. Every work array with a ping axis
holds at most ``PING_BLOCK_ELEMENTS`` elements (at least one ping), but
for the gathered chunks, seven arrays of that size.

``markov_offsets`` reads the ``markov.LinkPlan`` of each in-scope link:
it loops over the links and is vectorized over the M runs. Variates are
never drawn in here; callers pass pre-drawn uniform and normal arrays so
that determinism is owned by one numpy Generator.
"""

from __future__ import annotations

import math

import numpy as np

from .components import bootstrap_pick, lognormal_from_z


# ---------------------------------------------------------------------------
# point-to-polyline projection
# ---------------------------------------------------------------------------

PING_BLOCK_ELEMENTS = 1 << 14  # most ping x segment (or chunk) elements per work array
CHUNK_SEGMENTS = 32  # most consecutive segments per chunk of the pruned search


def _nearest(bx, by, x0, y0, dx, dy, den, seg, c0):
    """``(d2, arc)`` of each ping's lexicographically nearest segment, with
    segments on axis 0 and pings on axis 1 (they broadcast)."""
    # Works in place in three segment x ping buffers.
    ex = bx - x0
    ey = by - y0
    t = ex * dx
    ey *= dy
    t += ey
    t /= den                                      # t = (ex*dx + ey*dy) / seg2
    np.clip(t, 0.0, 1.0, out=t)
    np.multiply(t, dx, out=ex)
    ex += x0
    np.subtract(bx, ex, out=ex)                   # ddx = qx - (x0 + t*dx)
    np.multiply(t, dy, out=ey)
    ey += y0
    np.subtract(by, ey, out=ey)                   # ddy = qy - (y0 + t*dy)
    ex *= ex
    ey *= ey
    ex += ey                                      # d2 = ddx*ddx + ddy*ddy
    t *= seg
    t += c0                                       # arc = cum + t*seg
    # Tie rule: among the segments at the smallest distance, the smallest
    # arc wins.
    m = ex.min(axis=0)
    np.copyto(t, np.inf, where=ex != m)
    return m, t.min(axis=0)


def project_onto_polyline(qx, qy, vx, vy, cum):
    x0, y0 = vx[:-1], vy[:-1]
    dx = vx[1:] - x0
    dy = vy[1:] - y0
    seg2 = dx * dx + dy * dy
    den = np.where(seg2 > 0.0, seg2, 1.0)  # a zero-length segment is its start vertex
    segs = np.stack((x0, y0, dx, dy, den, np.sqrt(seg2), cum[:-1]))
    n, s = qx.shape[0], dx.shape[0]
    d2, arc = np.empty(n), np.empty(n)
    if n * s <= PING_BLOCK_ELEMENTS or s <= CHUNK_SEGMENTS:  # rule 1: broadcast
        step = max(1, PING_BLOCK_ELEMENTS // s)
        for lo in range(0, n, step):
            d2[lo:lo + step], arc[lo:lo + step] = _nearest(qx[lo:lo + step], qy[lo:lo + step],
                                                           *segs[:, :, None])
        return arc, np.sqrt(d2)

    # Rule 2: the pruned search. Chunk c is column c of the (7, size, k) array
    # ``chunks``: segments c*size to c*size + size - 1, the last chunk padded
    # with copies of the last segment.
    size = CHUNK_SEGMENTS
    k = -(-s // size)
    idx = np.minimum(np.arange(k * size), s - 1).reshape(k, size)
    chunks = segs[:, idx.T]
    iv = np.minimum(idx[:, :1] + np.arange(size + 1), s)  # chunk vertices
    box = [f(v, axis=1, keepdims=True) for v in (vx[iv], vy[iv]) for f in (np.min, np.max)]
    tau = 1e-9 * (1.0 + max(np.abs(a).max(initial=0.0) for a in (qx, qy, vx, vy)))
    step = max(1, PING_BLOCK_ELEMENTS // k)
    pairs = PING_BLOCK_ELEMENTS // size
    for lo in range(0, n, step):
        bx, by, bd2, barc = (a[lo:lo + step] for a in (qx, qy, d2, arc))
        gx = bx - np.minimum(np.maximum(bx, box[0]), box[1])
        gy = by - np.minimum(np.maximum(by, box[2]), box[3])
        near = np.sqrt(gx * gx + gy * gy)  # (chunks, pings): from each ping to each box
        # First pass: each ping on its nearest box's chunk, which gives it U.
        first = near.argmin(axis=0)
        for i in range(0, bx.shape[0], pairs):
            bd2[i:i + pairs], barc[i:i + pairs] = _nearest(
                bx[i:i + pairs], by[i:i + pairs], *np.take(chunks, first[i:i + pairs], axis=2))
        # Second pass: every other chunk whose box lies within sqrt(U) + tau,
        # merged by the tie rule.
        visit = near <= np.sqrt(bd2) + tau
        visit[first, np.arange(bx.shape[0])] = False
        cs, ps = np.nonzero(visit)
        for i in range(0, ps.shape[0], pairs):
            p = ps[i:i + pairs]
            pd2, parc = _nearest(bx[p], by[p], *np.take(chunks, cs[i:i + pairs], axis=2))
            m = bd2.copy()
            np.minimum.at(m, p, pd2)
            np.copyto(barc, np.inf, where=bd2 != m)
            np.minimum.at(barc, p, np.where(pd2 == m[p], parc, np.inf))
            bd2[:] = m
    return arc, np.sqrt(d2)


def _project_scalar(qx, qy, vx, vy, cum):
    n = qx.shape[0]
    best_arc = np.zeros(n)
    best_off = np.zeros(n)
    for i in range(n):
        bd2 = np.inf
        barc = 0.0
        for j in range(vx.shape[0] - 1):
            dx = vx[j + 1] - vx[j]
            dy = vy[j + 1] - vy[j]
            seg2 = dx * dx + dy * dy
            seg = math.sqrt(seg2)
            t = ((qx[i] - vx[j]) * dx + (qy[i] - vy[j]) * dy) / (seg2 if seg2 > 0.0 else 1.0)
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            ddx = qx[i] - (vx[j] + t * dx)
            ddy = qy[i] - (vy[j] + t * dy)
            d2 = ddx * ddx + ddy * ddy
            arc = cum[j] + t * seg
            if d2 < bd2 or (d2 == bd2 and arc < barc):
                bd2 = d2
                barc = arc
        best_arc[i] = barc
        best_off[i] = math.sqrt(bd2)
    return best_arc, best_off


# ---------------------------------------------------------------------------
# Markov M-run offsets
# ---------------------------------------------------------------------------
# Per run m and per in-scope link i (origin link first), read from the
# link's ``markov.LinkPlan``:
#   steps  f = max(1, ceil(log1p(-u) / log(p_stay)))   (geometric, support 1,2,...)
#   road   = f * delta_t
#   dwell  = bootstrap pick from the end stop's sample pool
#   signal = sum of exp(mu + sigma * z) over the link's intersections
# The output offset at link i is the running total, i.e. the remaining
# time until *departure from* the link's end stop. ``z_x`` has one column
# per intersection, taken link by link in plan order.

def markov_offsets(plans, u_road, u_dwell, z_x, delta_t):
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.ceil(np.log1p(-u_road) / np.log([p.p_stay for p in plans]))
    f = np.where(np.isfinite(f), f, 1.0)
    road = np.maximum(f, 1.0) * delta_t

    out = np.empty_like(road)
    cum = np.zeros(road.shape[0])
    j = 0
    for i, plan in enumerate(plans):
        pool = plan.dwell.samples
        idx = np.minimum((u_dwell[:, i] * pool.shape[0]).astype(np.int64), pool.shape[0] - 1)
        total = road[:, i] + pool[idx]
        k = len(plan.intersections)
        if k:
            mu = np.array([x.mu_s for x in plan.intersections])
            sigma = np.array([x.sigma_s for x in plan.intersections])
            total += np.exp(mu + sigma * z_x[:, j:j + k]).sum(axis=1)
            j += k
        cum += total
        out[:, i] = cum
    return out


def _markov_scalar(plans, u_road, u_dwell, z_x, delta_t):
    m_runs, n_links = u_road.shape
    out = np.empty((m_runs, n_links))
    for m in range(m_runs):
        cum = 0.0
        j = 0
        for i, plan in enumerate(plans):
            p = plan.p_stay
            if p <= 0.0:
                f = 1.0
            else:
                f = math.ceil(math.log1p(-u_road[m, i]) / math.log(p))
                if not (f >= 1.0):
                    f = 1.0
            t = f * delta_t
            t += bootstrap_pick(plan.dwell.samples, u_dwell[m, i])
            acc = 0.0
            for x in plan.intersections:
                acc += lognormal_from_z(x.mu_s, x.sigma_s, z_x[m, j])
                j += 1
            cum += t + acc
            out[m, i] = cum
    return out


def backend_name() -> str:
    """Name of the numeric backend; the benchmark record reads it."""
    return "numpy"
