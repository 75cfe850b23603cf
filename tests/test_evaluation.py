import dataclasses
import math

import numpy as np
import pytest

from buslink import evaluation
from buslink.errors import ConfigError, FitError, MetricError
from buslink.evaluation import (evaluate_split, hm_fit, lr_fit, lr_predict, mae,
                                modal_covariates, rmse, split_by_date)
from buslink.hetlognorm import PredictionWithBounds, fit as ln_fit
from buslink.store import CovariateVector, LinkObservation

from conftest import generate_synthetic, observation_table


class TestHistoricalMean:
    def test_four_point_quantiles(self):
        b = hm_fit([10, 20, 30, 40], min_samples=4)
        assert b.point == 25.0
        assert b.lower == pytest.approx(10.75, abs=1e-12)
        assert b.upper == pytest.approx(39.25, abs=1e-12)

    def test_constant_sample(self):
        b = hm_fit([7, 7, 7, 7], min_samples=4)
        assert (b.point, b.lower, b.upper) == (7.0, 7.0, 7.0)

    def test_outlier_shifts_mean_not_low_quantile(self):
        # per the project-wide (n-1)q rule: q97.5 at position 2.925 of
        # [10,10,10,100] interpolates to 10 + 0.925*90 = 93.25
        b = hm_fit([10, 10, 10, 100], min_samples=4)
        assert b.point == 32.5
        assert b.upper == pytest.approx(93.25, abs=1e-12)
        assert b.lower == pytest.approx(10.0, abs=1e-12)

    def test_insufficient(self):
        with pytest.raises(FitError):
            hm_fit([1.0, 2.0])

    def test_bounds_widen_with_spread(self):
        base = np.array([20.0, 25.0, 30.0, 35.0, 40.0] * 10)
        narrow = hm_fit(base)
        wide = hm_fit(30.0 + 2.0 * (base - 30.0))
        assert wide.width >= narrow.width
        assert wide.point == pytest.approx(narrow.point)


class TestLinearBaseline:
    def test_exact_linear_zero_width(self):
        X = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]] * 5,
                     dtype=float)
        y = 10.0 + 3.0 * X[:, 0] + 2.0 * X[:, 1]
        m = lr_fit(y, X)
        b = lr_predict(m, [1, 1, 0, 0])
        assert b.point == pytest.approx(15.0, abs=1e-9)
        assert b.width == pytest.approx(0.0, abs=1e-6)

    def test_intercept_only_closed_form(self):
        y = np.array([10.0, 20.0, 30.0])
        X = np.zeros((3, 4))
        m = lr_fit(y, X, min_samples=3)
        b = lr_predict(m, [0, 0, 0, 0])
        assert b.point == pytest.approx(20.0)
        assert m.residual_variance == pytest.approx(100.0)
        half = 1.959963984540054 * math.sqrt(100.0 / 3.0)
        assert b.upper - b.point == pytest.approx(half, rel=1e-9)

    def test_rank_deficient(self):
        X = np.zeros((30, 4))
        X[:, 0] = np.tile([0.0, 1.0], 15)
        X[:, 1] = X[:, 0]
        with pytest.raises(FitError) as e:
            lr_fit(np.random.default_rng(0).normal(size=30), X)
        assert e.value.kind == "rank_deficient"


class TestMetrics:
    def test_worked_example(self):
        obs, pred = [10, 20, 30], [12, 18, 33]
        assert mae(obs, pred) == pytest.approx(7.0 / 3.0, abs=1e-9)
        assert rmse(obs, pred) == pytest.approx(math.sqrt(17.0 / 3.0), abs=1e-9)

    def test_identical(self):
        assert mae([1, 2], [1, 2]) == 0.0
        assert rmse([1, 2], [1, 2]) == 0.0

    def test_bound_width(self):
        assert PredictionWithBounds(27.5, 26.436, 28.601).width == \
            pytest.approx(2.165, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            mae([1, 2], [1, 2, 3])
        with pytest.raises(MetricError):
            rmse([], [])

    def test_rmse_ge_mae_property(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = rng.integers(1, 30)
            obs = rng.normal(0, 10, n)
            pred = obs + rng.normal(0, 5, n)
            assert rmse(obs, pred) >= mae(obs, pred) - 1e-12


def _obs(route_key, link, depart, road, cov):
    return LinkObservation(route_key=route_key, link_index=link, depart_prev=depart,
                           total_time=road + 5.0, dwell_time=5.0,
                           intersection_times=(), road_time=road,
                           covariates=CovariateVector(*cov))


class TestSplit:
    def _mk(self, n_train=40, n_test=10):
        rows = []
        rng = np.random.default_rng(0)
        # 2023-09-01 .. / test rows dated 2023-10-10+
        for i in range(n_train):
            t = 1693526400 + i * 3600  # from 2023-09-01 UTC
            rows.append(_obs(("R", 0), 1, t, float(rng.uniform(20, 40)),
                             (0, i % 2, 1, 0)))
        for i in range(n_test):
            t = 1696912200 + i * 3600  # 2023-10-10 local and later
            rows.append(_obs(("R", 0), 1, t, float(rng.uniform(20, 40)),
                             (0, i % 2, 1, 0)))
        return rows

    def test_no_test_observation_predates_cut(self, tmp_path):
        table = observation_table(tmp_path / "obs.csv", self._mk())
        train = split_by_date(table, "2023-10-09", tz_offset=-5.0)
        from buslink.ingest import local_date_hour
        test_times = table.depart_prev[~train].tolist()
        assert all(local_date_hour(t, -5.0)[0] >= "2023-10-09" for t in test_times)
        assert train.shape == table.depart_prev.shape
        assert train.any() and test_times

    @pytest.mark.parametrize("tz_offset", [-5.0, 5.5])
    def test_split_at_the_cut_instant(self, tz_offset, tmp_path):
        # local midnight starting 2023-10-09, then rows around it: a row
        # less than half a microsecond early still reads as the day before
        cut = 1696809600 - tz_offset * 3600
        deltas = (-1e-6, -2.5e-7, 0.0, 1e-6)
        rows = [_obs(("R", 0), 1, cut + d, 30.0, (0, 0, 1, 0)) for d in deltas]
        table = observation_table(tmp_path / "obs.csv", rows)
        train = split_by_date(table, "2023-10-09", tz_offset)
        assert train.tolist() == [True, True, False, False]
        from buslink.ingest import local_date_hour
        assert [local_date_hour(o.depart_prev, tz_offset)[0] for o in rows] == \
            ["2023-10-08"] * 2 + ["2023-10-09"] * 2

    @pytest.mark.parametrize("cut_date", ["2023-10-9", "20231009", "2023-10-09x", ""])
    def test_bad_cut_date_rejected(self, cut_date, tmp_path):
        table = observation_table(tmp_path / "obs.csv", self._mk())
        with pytest.raises(ConfigError) as e:
            split_by_date(table, cut_date, tz_offset=-5.0)
        assert e.value.kind == "bad_config"

    def test_empty_split_raises(self, tmp_path):
        table = observation_table(tmp_path / "obs.csv", self._mk(n_test=0))
        with pytest.raises(MetricError) as e:
            evaluate_split(table, "2024-01-01", tz_offset=-5.0)
        assert e.value.kind == "empty_split"

    def test_modal_covariates(self, tmp_path):
        rows = [_obs(("R", 0), 1, 0.0, 10.0, c)
                for c in [(0, 1, 1, 0)] * 3 + [(1, 0, 0, 1)] * 2]
        table = observation_table(tmp_path / "obs.csv", rows)
        assert modal_covariates(table.covariates).tolist() == [0, 1, 1, 0]

    def test_modal_covariates_is_the_unique_rule(self):
        """Tied rows (in 12 of the 20 draws): the most frequent row is the
        lexicographically smallest of the tied ones, as ``np.unique``'s
        sorted rows give it."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            combos = (rng.random((rng.integers(1, 6), 4)) < 0.5).astype(float)
            X = rng.permutation(np.repeat(combos, rng.integers(1, 3, len(combos)), axis=0))
            rows, counts = np.unique(X, axis=0, return_counts=True)
            assert modal_covariates(X).tobytes() == rows[np.argmax(counts)].tobytes(), seed


def test_lr_on_log_homoscedastic_data_recovers_coefficients():
    # cross-module check: OLS on log responses generated with constant
    # variance recovers the mean coefficients within standard OLS error
    beta = np.array([3.0, 0.1, 0.2, -0.1, 0.5])
    ys, X = generate_synthetic(beta, [-3.0, 0, 0, 0, 0], 5000, seed=6)
    m = lr_fit(ys, X)
    sigma = math.exp(-1.5)
    se = sigma * math.sqrt(8.0 / 5000.0)  # conservative bound for binary columns
    assert np.all(np.abs(m.coef - beta) < 5 * se)


def test_hm_quantiles_match_numpy():
    """The historical-mean band is numpy's linear percentile rule bit for bit."""
    rng = np.random.default_rng(5)
    for n in (10, 37, 301):
        vals = rng.lognormal(3.0, 0.5, size=n).round(n % 3)
        expected = np.percentile(vals, [2.5, 97.5], method="linear")
        b = hm_fit(vals)
        assert (b.lower, b.upper) == tuple(expected.tolist())


def _sequential_sum(coef, z) -> float:
    """coef'z as a Python loop: one product and one addition per term, in
    column order."""
    total = 0.0
    for c, v in zip(coef.tolist(), z.tolist()):
        total += c * v
    return total


def test_scores_are_sequential_row_sums_bit_for_bit(tmp_path, monkeypatch):
    # random real covariates, so the order of the additions shows in the
    # last bits; column 2 is constant, so both fits mask its coefficient
    n = 300
    rows = [_obs(("R", 0), 1, 1693526400.0 + 3600 * i, 30.0, (0, 0, 1, 0)) for i in range(n)]
    ys, X = generate_synthetic([3.0, 0.2, -0.1, 0.0, 0.3], [-3.0, 0.1, 0, 0, 0], n, seed=4,
                               covariate_law=lambda rng, k: 3.0 * rng.random((k, 4)))
    X[:, 2] = 1.0
    road = np.exp(ys)
    table = dataclasses.replace(observation_table(tmp_path / "obs.csv", rows),
                                covariates=X, road=road)
    scored = []  # the points evaluate scores, per model in ln, hm, lr order
    monkeypatch.setattr(evaluation, "mae", lambda obs, pred: scored.append(pred) or 0.0)
    evaluate_split(table, "2023-09-10", tz_offset=0.0)  # 216 train, 84 test rows

    train = split_by_date(table, "2023-09-10", tz_offset=0.0)
    ln = ln_fit(np.log(road[train]), X[train])
    lr = lr_fit(road[train], X[train])
    assert list(ln.active_mask) == list(lr.active_mask) == [True, True, True, False, True]
    Z_te = np.column_stack([np.ones(n), X])[~train]
    ln_points = [float(np.exp(_sequential_sum(ln.beta, z))) for z in Z_te]
    lr_points = [_sequential_sum(lr.coef, z) for z in Z_te]
    assert len(scored) == 3
    assert scored[0].tobytes() == np.array(ln_points).tobytes()
    assert scored[1].tolist() == [float(np.mean(road[train]))] * len(Z_te)
    assert scored[2].tobytes() == np.array(lr_points).tobytes()
    assert np.array([lr_predict(lr, x).point for x in X[~train]]).tobytes() == \
        np.array(lr_points).tobytes()
