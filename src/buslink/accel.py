"""Hot numeric kernels: point-to-polyline projection and the Markov transform.

The two inner loops that dominate runtime on real feeds live here:
batch point-to-polyline projection (every ping of every traversal) and
the M-run Markov simulation transform. ``project_onto_polyline`` and
``markov_offsets`` are vectorized numpy; ``_project_scalar`` and
``_markov_scalar`` are plain loops over the same elementwise
expressions, each the one reference the tests check its kernel against.
Both kernels are bit-reproducible; projection is bit-identical to its
reference and the Markov transform agrees with its own to float rounding.

``project_onto_polyline`` computes each segment's vector, squared length,
length, start vertex and start arc once, then broadcasts a block of pings
against all segments at once: the clamped parameter ``t``, the squared
distance ``d2`` and the arc ``cum + t * seg`` of every ping x segment
pair. Each ping takes the lexicographic minimum of (d2, arc): the
smallest ``d2``, and among the segments at that distance the smallest
arc, so a point equidistant from two passes of a looping shape lands on
the earlier one. A zero-length segment counts as its start vertex
(``t = 0``). Blocks hold at most ``PING_BLOCK_ELEMENTS`` ping x segment
elements (at least one ping), which bounds memory on long ping batches
and keeps the working buffers in cache; the only Python loop is over
ping blocks.

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

PING_BLOCK_ELEMENTS = 1 << 14  # ping x segment elements per broadcast block


def project_onto_polyline(qx, qy, vx, vy, cum):
    x0, y0 = vx[:-1], vy[:-1]
    dx = vx[1:] - x0
    dy = vy[1:] - y0
    seg2 = dx * dx + dy * dy
    seg = np.sqrt(seg2)
    den = np.where(seg2 > 0.0, seg2, 1.0)  # a zero-length segment is its start vertex
    c0 = cum[:-1]
    n = qx.shape[0]
    best_arc = np.empty(n)
    best_d2 = np.empty(n)
    step = max(1, PING_BLOCK_ELEMENTS // dx.shape[0])
    for lo in range(0, n, step):
        bx = qx[lo:lo + step, None]
        by = qy[lo:lo + step, None]
        # Each block works in place in three (pings, segments) buffers.
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
        # Tie rule: among the segments at the smallest distance, the
        # smallest arc wins.
        m = ex.min(axis=1)
        np.copyto(t, np.inf, where=ex != m[:, None])
        best_arc[lo:lo + step] = t.min(axis=1)
        best_d2[lo:lo + step] = m
    return best_arc, np.sqrt(best_d2)


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
