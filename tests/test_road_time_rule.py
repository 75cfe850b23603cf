"""One road-time rule from fit to forecast: a forecast plan's speeds, the
interval point and evaluate's LN scores all take exp(beta'z) from
``predict_point``, bit for bit. The covariates are real-valued, so the
order of the additions in beta'z shows in the last bit."""

import dataclasses

import numpy as np

from buslink import evaluation
from buslink.components import fit_dwell
from buslink.evaluation import evaluate_split, split_by_date
from buslink.geometry import build_route_model
from buslink.hetlognorm import HetLogNormalModel, fit as ln_fit, predict_interval, predict_point
from buslink.markov import build_plan

from conftest import generate_synthetic, observation_table
from test_evaluation import _obs
from test_geometry import network_with


def real_covariates(rng, k):
    return 3.0 * rng.random((k, 4))


def sequential_point(beta, x) -> float:
    """exp(beta'z) with beta'z summed term by term in column order."""
    total = 0.0
    for c, v in zip(beta.tolist(), [1.0, *x]):
        total += c * v
    return float(np.exp(total))


def test_plan_speeds_and_interval_points_are_predict_point():
    rng = np.random.default_rng(8)
    net, xs = network_with([500.0 * i for i in range(11)], [])
    rm = build_route_model(net, xs, ("R", 0))
    models = {}
    for link in rm.links:
        mask = np.array([True, True, link.index % 3 != 0, True, True])
        beta = np.where(mask, np.r_[4.0, rng.normal(0.0, 0.1, 4)], 0.0)
        models[link.index] = HetLogNormalModel(beta=beta, gamma=np.zeros(5), fim=np.eye(10),
                                               n=100, active_mask=mask, loglik=0.0)
    dwells = {link.to_stop: fit_dwell(link.to_stop, [5.0], min_samples=1) for link in rm.links}
    for x in real_covariates(rng, 40):
        plans = build_plan(rm, models, dwells, {}, x, origin_link=1,
                           origin_arc=rm.first_arc, delta_t=5.0)
        assert len(plans) == len(rm.links)
        for link, p in zip(rm.links, plans):
            model = models[link.index]
            point = predict_point(model, x)
            assert point == sequential_point(model.beta, x)
            assert p.speed == link.length / point
            assert predict_interval(model, x).point == point


def test_evaluate_ln_points_are_predict_point(tmp_path, monkeypatch):
    n = 300
    rows = [_obs(("R", 0), 1, 1693526400.0 + 3600 * i, 30.0, (0, 0, 1, 0)) for i in range(n)]
    ys, X = generate_synthetic([3.0, 0.2, -0.1, 0.05, 0.3], [-3.0, 0.1, 0, 0, 0], n, seed=9,
                               covariate_law=real_covariates)
    table = dataclasses.replace(observation_table(tmp_path / "obs.csv", rows),
                                covariates=X, road=np.exp(ys))
    scored = []  # the points evaluate scores, per model in ln, hm, lr order
    monkeypatch.setattr(evaluation, "mae", lambda obs, pred: scored.append(pred) or 0.0)
    evaluate_split(table, "2023-09-10", tz_offset=0.0)

    train = split_by_date(table, "2023-09-10", tz_offset=0.0)
    ln = ln_fit(np.log(table.road[train]), X[train])
    assert scored[0].tobytes() == predict_point(ln, X[~train]).tobytes()
    assert scored[0].tolist() == [sequential_point(ln.beta, x) for x in X[~train]]
