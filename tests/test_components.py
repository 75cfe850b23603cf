import math

import numpy as np
import pytest

from buslink.components import (bootstrap_pick, fit_dwell, fit_intersection,
                                lognormal_from_z)
from buslink.errors import FitError


class TestDwell:
    def test_mean(self):
        d = fit_dwell("S1", [30, 0, 10, 0], min_samples=4)
        assert np.mean(d.samples) == 10.0
        assert list(d.samples) == [0, 0, 10, 30]

    def test_all_zeros_valid(self):
        d = fit_dwell("S1", [0.0] * 12)
        assert list(d.samples) == [0.0] * 12

    def test_negative_rejected(self):
        with pytest.raises(FitError):
            fit_dwell("S1", [1.0] * 10 + [-2.0], min_samples=5)

    def test_insufficient(self):
        with pytest.raises(FitError) as e:
            fit_dwell("S1", [1.0, 2.0])
        assert e.value.kind == "insufficient_data"

    def test_single_sample_always_returned(self):
        d = fit_dwell("S1", [5.0], min_samples=1)
        rng = np.random.default_rng(0)
        assert all(bootstrap_pick(d.samples, rng.random()) == 5.0 for _ in range(20))

    def test_bootstrap_mean(self):
        d = fit_dwell("S1", [0.0, 10.0], min_samples=2)
        rng = np.random.default_rng(123)
        draws = [bootstrap_pick(d.samples, rng.random()) for _ in range(10 ** 4)]
        assert np.mean(draws) == pytest.approx(5.0, abs=0.6)

    def test_seeded_reproducibility(self):
        d = fit_dwell("S1", [0, 3, 8, 20], min_samples=4)
        a = [bootstrap_pick(d.samples, np.random.default_rng(7).random()) for _ in range(1)]
        b = [bootstrap_pick(d.samples, np.random.default_rng(7).random()) for _ in range(1)]
        assert a == b

    def test_bootstrap_preserves_mean_in_expectation(self):
        rng = np.random.default_rng(10)
        samples = rng.exponential(12.0, size=40)
        d = fit_dwell("S1", samples)
        draws = np.array([bootstrap_pick(d.samples, rng.random()) for _ in range(10 ** 5)])
        sd = np.std(samples)
        assert abs(draws.mean() - np.mean(samples)) < 6 * sd / math.sqrt(10 ** 5)
        assert np.all(draws >= 0.0)


class TestIntersection:
    def test_constant_samples(self):
        m = fit_intersection("X1", [math.e ** 2] * 10)
        assert m.mu_s == pytest.approx(2.0, abs=1e-12)
        assert m.sigma_s == pytest.approx(0.0, abs=1e-12)

    def test_two_point_mle(self):
        m = fit_intersection("X1", [math.e, math.e ** 3] * 5)
        assert m.mu_s == pytest.approx(2.0, abs=1e-12)
        assert m.sigma_s == pytest.approx(1.0, abs=1e-12)

    def test_sampling_oracle(self):
        rng = np.random.default_rng(3)
        samples = np.exp(rng.normal(2.5, 0.4, size=10 ** 4))
        m = fit_intersection("X1", samples)
        assert m.mu_s == pytest.approx(2.5, abs=0.02)
        assert m.sigma_s == pytest.approx(0.4, abs=0.02)

    def test_nonpositive_rejected(self):
        with pytest.raises(FitError):
            fit_intersection("X1", [1.0] * 10 + [0.0], min_samples=5)

    def test_point_is_median(self):
        m = fit_intersection("X1", [math.e ** 2] * 10)
        assert lognormal_from_z(m.mu_s, m.sigma_s, 0.0) == pytest.approx(math.e ** 2, rel=1e-12)

    def test_zero_sigma_samples_equal_point(self):
        m = fit_intersection("X1", [7.0] * 10)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert lognormal_from_z(m.mu_s, m.sigma_s, rng.standard_normal()) == pytest.approx(7.0, rel=1e-12)

    def test_sample_median(self):
        from buslink.components import IntersectionLogNormal
        m = IntersectionLogNormal(intersection_id="X1", mu_s=2.0, sigma_s=0.5, n=10)
        rng = np.random.default_rng(4)
        draws = np.array([lognormal_from_z(m.mu_s, m.sigma_s, rng.standard_normal()) for _ in range(10 ** 5)])
        assert np.median(draws) == pytest.approx(math.exp(2.0), abs=0.15)
        assert np.all(draws > 0.0)

    def test_fit_then_predict_constant_round_trip(self):
        m = fit_intersection("X1", [13.25] * 10)
        assert lognormal_from_z(m.mu_s, m.sigma_s, 0.0) == pytest.approx(13.25, abs=1e-9)


@pytest.mark.parametrize("fit", [fit_dwell, fit_intersection])
@pytest.mark.parametrize("min_samples", [0, -1])
def test_empty_sample_rejected_at_any_minimum(fit, min_samples):
    with pytest.raises(FitError) as e:
        fit("F1", [], min_samples=min_samples)
    assert e.value.kind == "insufficient_data"
