import math
from statistics import NormalDist

import numpy as np
import pytest

from buslink.errors import StatError
from buslink.stats import breusch_pagan, chi2_sf, kolmogorov_sf, ks_lognormal, runs_test

# x -> Q(df/2, x/2) for df = 1, 2, 3, 4, computed once with mpmath.gammainc at
# 50 digits and rounded to the nearest double. The first five x are the
# Breusch-Pagan statistics of the five road links at seed 7 on
# perfbench/truth.json.
CHI2_SF_REFERENCE = {
    221.67048895921747: (3.908530216200468e-50, 7.325966393831443e-49,
                         8.741883701985993e-48, 8.19301242703537e-47),
    251.58814493185852: (1.1700759718133216e-56, 2.335223604754041e-55,
                         2.9670827321841045e-54, 2.9609251096533245e-53),
    256.7759360863036: (8.655689319363048e-58, 1.7450743540453993e-56,
                        2.2398179641580566e-55, 2.2579162475414989e-54),
    286.4063458290981: (3.0171549280855836e-64, 6.421732519050011e-63,
                        8.701459171769669e-62, 9.260342048555514e-61),
    335.9938583830957: (4.75720624000822e-75, 1.0961264950060198e-73,
                        1.607878587331955e-72, 1.8524201166151187e-71),
    0.5: (0.4795001221869535, 0.7788007830714049, 0.9188914116546758, 0.9735009788392561),
    4.0: (0.04550026389635842, 0.1353352832366127, 0.2614641299491106, 0.40600584970983805),
    12.0: (0.0005320055051392497, 0.0024787521766663585, 0.007383160505359769,
           0.01735126523666451),
}


class TestSpecialFunctions:
    def test_chi2_sf_tabulated(self):
        # upper 5% critical values from standard tables
        assert chi2_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-6)
        assert chi2_sf(9.487729, 4) == pytest.approx(0.05, abs=1e-6)
        assert chi2_sf(18.307038, 10) == pytest.approx(0.05, abs=1e-6)
        assert chi2_sf(0.0, 3) == 1.0

    def test_chi2_sf_within_2_ulps_of_50_digit_reference(self):
        off = {(x, df): abs(chi2_sf(x, df) - ref) / math.ulp(ref)
               for x, refs in CHI2_SF_REFERENCE.items() for df, ref in enumerate(refs, start=1)}
        assert {k: v for k, v in off.items() if v > 2} == {}

    def test_chi2_sf_df_2_is_exponential(self):
        for x in (0.1, 1.0, 5.0, 20.0, 300.0):
            assert chi2_sf(2.0 * x, 2) == math.exp(-x)

    def test_kolmogorov_tabulated(self):
        # classical two-sided asymptotic critical values
        assert kolmogorov_sf(1.358) == pytest.approx(0.05, abs=5e-4)
        assert kolmogorov_sf(1.224) == pytest.approx(0.10, abs=1e-3)
        assert kolmogorov_sf(1.628) == pytest.approx(0.01, abs=2e-4)
        assert kolmogorov_sf(0.001) == 1.0
        assert kolmogorov_sf(5.0) < 1e-20


class TestKsLognormal:
    def test_exact_quantile_construction(self):
        n = 100
        q = np.array([NormalDist().inv_cdf((k - 0.5) / n) for k in range(1, n + 1)])
        samples = np.exp(3.0 + 0.25 * q)
        r = ks_lognormal(samples)
        assert r.statistic < 0.01
        assert r.p_value >= 0.05

    def test_misfit_uniform(self):
        rng = np.random.default_rng(0)
        r = ks_lognormal(rng.uniform(1.0, 2.0, size=1000))
        assert r.p_value < 0.01

    def test_nonpositive_rejected(self):
        with pytest.raises(StatError) as e:
            ks_lognormal([1.0] * 30 + [0.0])
        assert e.value.kind == "nonpositive_sample"

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        samples = np.exp(rng.normal(2.0, 0.5, size=200))
        d1 = ks_lognormal(samples).statistic
        d2 = ks_lognormal(samples * 37.5).statistic
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_calibration_small(self):
        retained = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            samples = np.exp(rng.normal(3.0, 0.25, size=1000))
            if ks_lognormal(samples).p_value > 0.05:
                retained += 1
        assert retained >= 18  # conservative test retains nearly always


class TestBreuschPagan:
    def _design(self, n, rng):
        X = (rng.random((n, 4)) < 0.5).astype(float)
        return np.column_stack([np.ones(n), X])

    def test_constant_variance_residuals(self):
        # +-1 residuals orthogonal to the design: e^2 is constant -> LM = 0
        n = 40
        Z = np.column_stack([np.ones(n), np.tile([0, 0, 1, 1], 10),
                             np.zeros(n), np.zeros(n), np.zeros(n)])
        y = 2.0 + Z[:, 1] + np.tile([1.0, -1.0], 20)
        r = breusch_pagan(y, Z)
        assert r.statistic == pytest.approx(0.0, abs=1e-12)
        assert r.p_value == 1.0

    def test_detects_heteroscedasticity(self):
        rng = np.random.default_rng(2)
        Z = self._design(500, rng)
        sd = np.exp(0.5 * (-2.0 + 1.0 * Z[:, 4]))
        y = Z @ np.array([3, 0.1, 0.2, -0.1, 0.5]) + sd * rng.standard_normal(500)
        r = breusch_pagan(y, Z)
        assert r.p_value < 0.001

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        Z = self._design(300, rng)
        y = Z @ np.array([3, 0.1, 0.2, -0.1, 0.5]) + rng.standard_normal(300)
        r1 = breusch_pagan(y, Z)
        r2 = breusch_pagan(5.0 * y - 11.0, Z)
        assert r1.statistic == pytest.approx(r2.statistic, rel=1e-9)

    def test_rank_deficient(self):
        n = 200
        rng = np.random.default_rng(1)
        x = (rng.random(n) < 0.5).astype(float)
        Z = np.column_stack([np.ones(n), x, x, rng.random(n), rng.random(n)])
        with pytest.raises(StatError) as e:
            breusch_pagan(rng.standard_normal(n), Z)
        assert e.value.kind == "rank_deficient"


class TestRunsTest:
    def test_alternating_closed_form(self):
        seq = [1.0, 2.0] * 10
        r = runs_test(seq)
        assert r.statistic == pytest.approx(4.13521, abs=1e-3)
        assert r.p_value == pytest.approx(3.5e-5, rel=0.10)
        assert r.n == 20

    def test_block_sequence_symmetry(self):
        r = runs_test([1.0] * 10 + [2.0] * 10)
        assert r.statistic == pytest.approx(-4.13521, abs=1e-3)

    def test_antisymmetric_pair(self):
        alt = runs_test([1.0, 2.0] * 10).statistic
        block = runs_test([1.0] * 10 + [2.0] * 10).statistic
        assert alt == pytest.approx(-block, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(StatError) as e:
            runs_test([3.0] * 25)
        assert e.value.kind == "degenerate"

    def test_median_ties_dropped(self):
        # 1.5 appears as exact median values and is dropped before counting
        seq = [1.0, 2.0] * 10 + [1.5, 1.5]
        r = runs_test(seq)
        assert r.n == 20

    def test_calibration_small(self):
        rejections = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            seq = np.exp(rng.normal(3.0, 0.4, size=200))
            if runs_test(seq).p_value < 0.05:
                rejections += 1
        assert rejections <= 8


def test_p_values_in_unit_interval():
    rng = np.random.default_rng(99)
    for _ in range(20):
        samples = np.exp(rng.normal(2, 0.7, size=150))
        for r in (ks_lognormal(samples), runs_test(samples)):
            assert 0.0 <= r.p_value <= 1.0
