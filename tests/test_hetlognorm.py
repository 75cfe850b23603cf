import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from buslink.errors import FitError
from buslink.hetlognorm import (HetLogNormalModel, design_matrix, fisher_information,
                                fit, log_likelihood, mu_interval_stddev, predict_interval,
                                predict_point, score)

from conftest import generate_synthetic

Z1 = design_matrix(np.zeros((1, 4)))


class TestLogLikelihood:
    def test_zero_case(self):
        ll = log_likelihood(np.zeros(5), np.zeros(5), np.array([0.0]), Z1)
        assert ll == pytest.approx(-0.918939, abs=1e-6)

    def test_unit_residual(self):
        ll = log_likelihood(np.zeros(5), np.zeros(5), np.array([1.0]), Z1)
        assert ll == pytest.approx(-1.418939, abs=1e-6)

    def test_additivity(self):
        Z2 = design_matrix(np.zeros((2, 4)))
        ll = log_likelihood(np.zeros(5), np.zeros(5), np.zeros(2), Z2)
        assert ll == pytest.approx(-1.837877, abs=1e-6)


class TestScore:
    def test_symmetric_two_point_sample(self):
        Z2 = design_matrix(np.zeros((2, 4)))
        g = score(np.zeros(5), np.zeros(5), np.array([-1.3, 1.3]), Z2)
        assert g[0] == pytest.approx(0.0, abs=1e-12)

    def test_direct_formula(self):
        g = score(np.zeros(5), np.zeros(5), np.array([2.0]), Z1)
        assert g[0] == pytest.approx(2.0)
        assert g[5] == pytest.approx(1.5)
        assert np.all(g[1:5] == 0) and np.all(g[6:] == 0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(20):
            n = 50
            X = (rng.random((n, 4)) < 0.5).astype(float)
            Z = design_matrix(X)
            beta = rng.normal(0, 1, 5)
            gamma = rng.normal(0, 0.5, 5)
            ys = rng.normal(2, 1, n)
            analytic = score(beta, gamma, ys, Z)
            fd = np.empty(10)
            theta = np.concatenate([beta, gamma])
            for k in range(10):
                up = theta.copy(); up[k] += h
                dn = theta.copy(); dn[k] -= h
                fd[k] = (log_likelihood(up[:5], up[5:], ys, Z)
                         - log_likelihood(dn[:5], dn[5:], ys, Z)) / (2 * h)
            rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-8)
            assert rel < 1e-6


class TestFisherInformation:
    def test_single_row(self):
        fim = fisher_information(np.zeros(5), np.zeros(5), Z1)
        assert fim[0, 0] == 1.0
        assert fim[5, 5] == 0.5
        assert np.count_nonzero(fim) == 2

    def test_additivity_100_rows(self):
        Z = design_matrix(np.zeros((100, 4)))
        fim = fisher_information(np.zeros(5), np.zeros(5), Z)
        assert fim[0, 0] == pytest.approx(100.0)
        assert fim[5, 5] == pytest.approx(50.0)

    def test_cross_block_exactly_zero_and_pd(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            ys, X = generate_synthetic([3, 0.1, 0.2, -0.1, 0.5],
                                       [-2, 0, 0.3, 0, 0.8], 200, seed=seed)
            Z = design_matrix(X)
            gamma = rng.normal(0, 0.3, 5)
            fim = fisher_information(np.zeros(5), gamma, Z)
            assert np.all(fim[:5, 5:] == 0.0)
            assert np.all(fim == fim.T)
            np.linalg.cholesky(fim)  # raises if not positive definite


class TestFit:
    def test_recovers_truth_n50000(self):
        beta = [3.0, 0.1, 0.2, -0.1, 0.5]
        gamma = [-2.0, 0, 0.3, 0, 0.8]
        ys, X = generate_synthetic(beta, gamma, 50000, seed=7)
        m = fit(ys, X)
        assert np.all(np.abs(m.beta - beta) < 0.05)
        assert np.all(np.abs(m.gamma - gamma) < 0.05)
        assert m.n == 50000

    def test_loglik_at_optimum_beats_ols_start(self):
        ys, X = generate_synthetic([3, 0, 0, 0, 0.3], [-1, 0, 0, 0, 0.5], 500, seed=1)
        Z = design_matrix(X)
        beta0, *_ = np.linalg.lstsq(Z, ys, rcond=None)
        gamma0 = np.zeros(5)
        gamma0[0] = np.log(np.mean((ys - Z @ beta0) ** 2))
        m = fit(ys, X)
        assert m.loglik >= log_likelihood(beta0, gamma0, ys, Z) - 1e-9

    def test_degenerate_variance(self):
        ys = np.full(100, 3.0)
        X = (np.random.default_rng(0).random((100, 4)) < 0.5).astype(float)
        with pytest.raises(FitError) as e:
            fit(ys, X)
        assert e.value.kind == "degenerate_variance"

    def test_insufficient_data(self):
        ys, X = generate_synthetic([3, 0, 0, 0, 0], [0, 0, 0, 0, 0], 10, seed=0)
        with pytest.raises(FitError) as e:
            fit(ys, X)
        assert e.value.kind == "insufficient_data"

    def test_constant_column_masked(self):
        ys, X = generate_synthetic([3, 0.1, 0.2, -0.1, 0.5],
                                   [-2, 0, 0.3, 0, 0.8], 2000, seed=2)
        X[:, 0] = 0.0  # rain never observed
        m = fit(ys, X)
        assert list(m.active_mask) == [True, False, True, True, True]
        assert m.beta[1] == m.gamma[1] == 0.0
        assert (m.beta[[0, 2, 3, 4]] != 0.0).all()


class TestPrediction:
    @pytest.fixture
    def fitted_model(self):
        # frozen fitted-coefficient fixture with realistic magnitudes
        beta = np.array([3.314, 0.027, 0.096, 0.046, 0.961])
        gamma = np.array([-2.461, -0.015, -0.110, -0.028, 0.404])
        Z = design_matrix((np.random.default_rng(0).random((500, 4)) < 0.5).astype(float))
        fim = np.zeros((10, 10))
        fim[:5, :5] = fisher_information(beta, gamma, Z)[:5, :5]
        fim[5:, 5:] = fisher_information(beta, gamma, Z)[5:, 5:]
        return HetLogNormalModel(beta=beta, gamma=gamma, fim=fim, n=500,
                                 active_mask=np.ones(5, dtype=bool), loglik=0.0)

    def test_point_peak_only(self, fitted_model):
        assert predict_point(fitted_model, [0, 1, 0, 0]) == pytest.approx(
            math.exp(3.410), abs=1e-9)
        assert predict_point(fitted_model, [0, 1, 0, 0]) == pytest.approx(30.27, abs=0.01)

    def test_point_all_zero(self, fitted_model):
        assert predict_point(fitted_model, [0, 0, 0, 0]) == pytest.approx(27.50, abs=0.01)

    @given(beta=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
           masked=st.lists(st.booleans(), min_size=4, max_size=4),
           xs=st.lists(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-5.0, 5.0)),
                                min_size=4, max_size=4), min_size=1, max_size=5))
    @settings(deadline=None, max_examples=200)
    def test_point_equals_the_per_call_expression(self, beta, masked, xs):
        """Masked coefficients are 0.0; every prediction, of one row or of
        all rows in one call, is exp of the coefficient sum spelled out
        term by term in column order, bit for bit."""
        mask = np.array([True] + [not m for m in masked])
        beta = np.where(mask, beta, 0.0)
        m = HetLogNormalModel(beta=beta, gamma=np.zeros(5), fim=np.eye(10), n=1,
                              active_mask=mask, loglik=0.0)
        expected = []
        for x in xs:
            total = 0.0
            for c, v in zip(beta.tolist(), [1.0, *x]):
                total += c * v
            expected.append(float(np.exp(total)))
        assert [predict_point(m, x) for x in xs] == expected
        assert predict_point(m, np.array(xs)).tolist() == expected

    def test_point_identity(self):
        m = HetLogNormalModel(beta=np.zeros(5), gamma=np.zeros(5), fim=np.eye(10),
                              n=1, active_mask=np.ones(5, dtype=bool), loglik=0.0)
        assert predict_point(m, [0, 0, 0, 0]) == 1.0

    def test_point_multiplicative_in_coefficients(self, fitted_model):
        base = predict_point(fitted_model, [0, 0, 0, 0])
        for k in range(4):
            x = [0, 0, 0, 0]
            x[k] = 1
            assert predict_point(fitted_model, x) == pytest.approx(
                base * math.exp(fitted_model.beta[k + 1]), rel=1e-12)

    def test_interval_direct_arithmetic(self):
        # mu = 3.314, sd(mu) = 0.02 -> bounds exp(3.27480), exp(3.35320)
        m = HetLogNormalModel(
            beta=np.array([3.314, 0, 0, 0, 0]), gamma=np.zeros(5),
            fim=_fim_with_intercept_var(0.02 ** 2), n=100,
            active_mask=np.ones(5, dtype=bool), loglik=0.0)
        b = predict_interval(m, [0, 0, 0, 0])
        z = 1.959964
        assert b.lower == pytest.approx(math.exp(3.314 - z * 0.02), rel=1e-6)
        assert b.upper == pytest.approx(math.exp(3.314 + z * 0.02), rel=1e-6)
        assert math.log(b.lower) == pytest.approx(3.27480, abs=1e-5)
        assert math.log(b.upper) == pytest.approx(3.35320, abs=1e-5)
        assert b.lower < b.point < b.upper

    def test_interval_z_far_in_the_tail(self):
        """At level 1 - 2e-10 (p = 1 - 1e-10) z is the 50-digit normal
        quantile of that p, to 1e-12; with sd(mu) = 1 and mu = 0 the upper
        bound is exp(z)."""
        m = HetLogNormalModel(beta=np.zeros(5), gamma=np.zeros(5), fim=_fim_with_intercept_var(1.0),
                              n=100, active_mask=np.ones(5, dtype=bool), loglik=0.0)
        b = predict_interval(m, [0, 0, 0, 0], level=1 - 2e-10)
        assert math.log(b.upper) == pytest.approx(6.3613408896974219, abs=1e-12)
        assert math.log(b.lower) == pytest.approx(-6.3613408896974219, abs=1e-12)

    def test_interval_ordering(self, fitted_model):
        b = predict_interval(fitted_model, [1, 0, 1, 0])
        assert 0 < b.lower < b.point < b.upper


def _fim_with_intercept_var(var):
    # FIM whose beta-block inverse has `var` at the intercept; masked x's
    # stay active but carry enormous information so they contribute ~0
    fim = np.eye(10) * 1e12
    fim[0, 0] = 1.0 / var
    return fim


class TestGenerateSynthetic:
    def test_near_zero_variance(self):
        ys, X = generate_synthetic([3, 0.1, 0.2, -0.1, 0.5], [-30, 0, 0, 0, 0],
                                   1000, seed=5)
        mu = design_matrix(X) @ np.array([3, 0.1, 0.2, -0.1, 0.5])
        assert np.all(np.abs(ys - mu) < 1e-5)

    def test_sample_mean_clt(self):
        ys, _ = generate_synthetic([3, 0, 0, 0, 0], [0, 0, 0, 0, 0], 10 ** 5, seed=1)
        assert abs(ys.mean() - 3.0) < 0.02

    def test_same_seed_bit_identical(self):
        y1, x1 = generate_synthetic([3, 0, 0, 0, 0.2], [-1, 0, 0, 0, 0.1], 500, seed=9)
        y2, x2 = generate_synthetic([3, 0, 0, 0, 0.2], [-1, 0, 0, 0, 0.1], 500, seed=9)
        assert np.array_equal(y1, y2) and np.array_equal(x1, x2)


def test_singular_fim_raises_numerical_error():
    from buslink.errors import NumericalError
    m = HetLogNormalModel(beta=np.zeros(5), gamma=np.zeros(5), fim=np.zeros((10, 10)),
                          n=10, active_mask=np.ones(5, dtype=bool), loglik=0.0)
    with pytest.raises(NumericalError) as e:
        mu_interval_stddev(m, [0, 0, 0, 0])
    assert e.value.kind == "singular_fim"


def test_interval_variance_positive_on_fits():
    ys, X = generate_synthetic([3, 0.1, 0.2, -0.1, 0.5], [-2, 0, 0.3, 0, 0.8],
                               3000, seed=12)
    m = fit(ys, X)
    for bits in range(16):
        x = [(bits >> k) & 1 for k in range(4)]
        assert mu_interval_stddev(m, x) > 0.0
