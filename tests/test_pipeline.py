"""fit_all: road fits per link and the route-pooled dwell and intersection
fallbacks."""

import numpy as np
import pytest

from buslink import pipeline
from buslink.geometry import build_route_model
from buslink.pipeline import RunConfig, fit_all
from buslink.store import CovariateVector, LinkObservation

from conftest import observation_table
from test_geometry import network_with

RK = ("R", 0)


@pytest.fixture(scope="module")
def route_models():
    # link 1 (S0 -> S1) crosses X1 then X2; link 2 (S1 -> S2) crosses X3
    net, xs = network_with([0.0, 800.0, 1600.0],
                           [("X1", 300.0), ("X2", 500.0), ("X3", 1200.0)])
    rm = build_route_model(net, xs, RK)
    assert [link.intersection_ids for link in rm.links] == [("X1", "X2"), ("X3",)]
    return {RK: rm}


@pytest.fixture
def calls(monkeypatch):
    """Every component fit fit_all makes: (feature id, samples, pooled)."""
    seen = []
    for name in ("fit_dwell", "fit_intersection"):
        def record(feature_id, samples, _real=getattr(pipeline, name), **kwargs):
            seen.append((feature_id, list(samples), kwargs.get("pooled", False)))
            return _real(feature_id, samples, **kwargs)
        monkeypatch.setattr(pipeline, name, record)
    return seen


def obs(link, i, dwell, xs):
    return LinkObservation(
        route_key=RK, link_index=link, depart_prev=1692354000.0 + 600.0 * i,
        total_time=100.0, dwell_time=dwell, intersection_times=tuple(xs),
        road_time=60.0 + i, covariates=CovariateVector(0, i % 2, 1, 0),
        flags=tuple(f"interp_x={xid}" for xid, _, interpolated in xs if interpolated))


def corpus():
    """Link 1: 4 rows, X1 taken in 3 of them (one zero, one interpolated
    row), X2 in all 4. Link 2: 12 rows, X3 taken in all of them."""
    rows = []
    for i in range(4):
        x1 = ("X1", 0.0, False) if i == 1 else ("X1", 10.0 + i, i == 2)
        rows.append(obs(1, i, 20.0 + i, [x1, ("X2", 30.0 + i, False)]))
    for i in range(12):
        rows.append(obs(2, i, 5.0 + i, [("X3", 40.0 + i, False)]))
    return rows


def test_dwell_falls_back_to_route_pool(route_models, calls, tmp_path):
    rows = corpus()
    table = observation_table(tmp_path / "obs.csv", rows)
    store, _fitted, failed = fit_all(table, RunConfig(), route_models)
    pool = [o.dwell_time for o in rows]  # link order, then row order
    d1 = store.dwell[(RK, "S1")]
    assert d1.pooled
    assert list(d1.samples) == sorted(pool)
    assert ("S1", pool, True) in calls
    d2 = store.dwell[(RK, "S2")]
    assert not d2.pooled
    assert list(d2.samples) == sorted(o.dwell_time for o in rows[4:])
    assert not [f for f in failed if f[1].startswith("dwell")]


def test_intersection_falls_back_to_route_pool_in_row_order(route_models, calls, tmp_path):
    rows = corpus()
    table = observation_table(tmp_path / "obs.csv", rows)
    store, _fitted, failed = fit_all(table, RunConfig(), route_models)
    # row order across both intersections of link 1, then link 2
    pool = [10.0, 30.0, 31.0, 32.0, 13.0, 33.0] + [40.0 + i for i in range(12)]
    assert [c for c in calls if c[0] == "X1"] == [("X1", [10.0, 13.0], False),
                                                  ("X1", pool, True)]
    x1 = store.intersections[(RK, "X1")]
    assert x1.pooled and x1.n == len(pool)
    assert x1.mu_s == float(np.mean(np.log(pool)))
    assert x1.excluded_zero_fraction == 2 / 4  # its own zero and interpolated rows
    x2 = store.intersections[(RK, "X2")]
    assert x2.pooled and x2.excluded_zero_fraction == 0.0
    x3 = store.intersections[(RK, "X3")]
    assert not x3.pooled and x3.n == 12
    assert not [f for f in failed if f[1].startswith("intersection")]


def test_pool_too_small_is_recorded_as_failure(route_models, tmp_path):
    rows = [r for r in corpus() if r.link_index == 1]  # 4 dwell, 6 intersection samples
    table = observation_table(tmp_path / "obs.csv", rows)
    store, fitted, failed = fit_all(table, RunConfig(), route_models)
    assert fitted == [] and store.dwell == {} and store.intersections == {}
    assert failed == [
        ((RK, 1), "insufficient_data"),
        ((RK, "S1"), "dwell insufficient_data"),
        ((RK, "S2"), "dwell insufficient_data"),
        ((RK, "X1"), "intersection insufficient_data"),
        ((RK, "X2"), "intersection insufficient_data"),
        ((RK, "X3"), "intersection insufficient_data"),
    ]
