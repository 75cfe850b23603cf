"""Acceptance gate: every criterion at its stated tolerance, one PASS line
per criterion (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time

import numpy as np
import pytest

from buslink.accel import markov_offsets
from buslink.cli import main
from buslink.components import fit_dwell
from buslink.evaluation import evaluate_split, mae, rmse
from buslink.hetlognorm import (design_matrix, fisher_information, fit, linear_rows,
                                log_likelihood, mu_interval_stddev, score)
from buslink.inference import project_traversal, repair_monotonic
from buslink.ingest import local_date_hour
from buslink.markov import (LinkPlan, MarkovConfig, PredictionSession, build_plan,
                            simulate)
from buslink.pipeline import RunConfig, covariates_for, fit_all
from buslink.stats import breusch_pagan, ks_lognormal, runs_test

from conftest import CUT_DATE, TZ, generate_synthetic, observation_table

TRUE_BETA = np.array([3.0, 0.1, 0.2, -0.1, 0.5])
TRUE_GAMMA = np.array([-2.0, 0.0, 0.3, 0.0, 0.8])


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(101)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        n = 50
        X = (rng.random((n, 4)) < 0.5).astype(float)
        Z = design_matrix(X)
        beta = rng.normal(0, 1, 5)
        gamma = rng.normal(0, 0.5, 5)
        ys = rng.normal(2, 1, n)
        analytic = score(beta, gamma, ys, Z)
        theta = np.concatenate([beta, gamma])
        fd = np.empty(10)
        for k in range(10):
            up = theta.copy(); up[k] += h
            dn = theta.copy(); dn[k] -= h
            fd[k] = (log_likelihood(up[:5], up[5:], ys, Z)
                     - log_likelihood(dn[:5], dn[5:], ys, Z)) / (2 * h)
        rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-8)
        worst = max(worst, rel)
        assert rel < 1e-6
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(1, f"score matches central differences, worst rel err {worst:.2e}, "
              f"{elapsed:.2f}s")


def test_criterion_02_mle_consistency():
    start = time.time()
    sizes = (500, 5000, 50000)
    pooled_medians = []
    per_coef_at_largest = None
    for n in sizes:
        errors = []
        for seed in range(20):
            ys, X = generate_synthetic(TRUE_BETA, TRUE_GAMMA, n, seed=seed)
            m = fit(ys, X)
            errors.append(np.abs(np.concatenate([m.beta - TRUE_BETA,
                                                 m.gamma - TRUE_GAMMA])))
        errors = np.array(errors)  # (20 seeds, 10 coefficients)
        pooled_medians.append(float(np.median(errors)))
        if n == sizes[-1]:
            per_coef_at_largest = np.median(errors, axis=0)
    assert pooled_medians[0] > pooled_medians[1] > pooled_medians[2]
    assert np.all(per_coef_at_largest < 0.05)
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(2, f"median |error| {[f'{e:.4f}' for e in pooled_medians]} strictly "
              f"decreasing over n={sizes}, max per-coef at n=50000 "
              f"{per_coef_at_largest.max():.4f} < 0.05, {elapsed:.1f}s")


def _modal_combo(X):
    combos, counts = np.unique(X, axis=0, return_counts=True)
    top = counts.max()
    return min(tuple(c) for c, k in zip(combos, counts) if k == top)


def test_criterion_03_ci_calibration():
    start = time.time()
    z = 1.959963984540054
    covered = 0
    n_rep = 500
    for seed in range(n_rep):
        ys, X = generate_synthetic(TRUE_BETA, TRUE_GAMMA, 2000, seed=10_000 + seed)
        m = fit(ys, X)
        x = np.array(_modal_combo(X))
        mu_true = float(TRUE_BETA @ np.concatenate([[1.0], x]))
        mu_hat = float(linear_rows(design_matrix(x), m.beta)[0])
        sd = mu_interval_stddev(m, x)
        if mu_hat - z * sd <= mu_true <= mu_hat + z * sd:
            covered += 1
    rate = covered / n_rep
    elapsed = time.time() - start
    assert 0.93 <= rate <= 0.97
    assert elapsed < 300.0
    report(3, f"95% CI for mu covered truth in {covered}/{n_rep} refits "
              f"(rate {rate:.3f} in [0.93, 0.97]), {elapsed:.1f}s")


def test_criterion_04_fim_structure():
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        n = 400
        X = (rng.random((n, 4)) < 0.5).astype(float)
        Z = design_matrix(X)
        gamma = rng.normal(0, 0.4, 5)
        fim = fisher_information(rng.normal(0, 1, 5), gamma, Z)
        assert np.all(fim[:5, 5:] == 0.0)
        assert np.all(fim[5:, :5] == 0.0)
        assert np.all(fim == fim.T)
        np.linalg.cholesky(fim)
    report(4, "beta-gamma cross block exactly zero; Cholesky succeeded on 20 "
              "random full-rank designs")


def test_criterion_05_decomposition_identity(corpus_observations):
    observations, _ = corpus_observations
    assert len(observations) > 10000
    worst = max(abs(o.identity_residual()) for o in observations)
    assert worst == 0.0
    report(5, f"total = road + dwell + intersections exactly on all "
              f"{len(observations)} corpus observations")


@pytest.fixture(scope="module")
def fitted(corpus, corpus_observations, tmp_path_factory):
    observations, _ = corpus_observations
    train = [o for o in observations
             if local_date_hour(o.depart_prev, TZ)[0] < CUT_DATE]
    table = observation_table(tmp_path_factory.mktemp("train") / "observations.csv", train)
    cfg = RunConfig(tz_offset=TZ, cut_date=CUT_DATE)
    store, fitted_keys, failed = fit_all(table, cfg, {corpus["rm"].route_key: corpus["rm"]})
    assert len(fitted_keys) == 5 and not failed
    return store


def test_criterion_06_markov_expectation(corpus, fitted):
    rm = corpus["rm"]
    road, dwell, inters = fitted.for_route(rm.route_key)
    x = np.array([0.0, 0.0, 1.0, 0.0])
    delta_t, m_runs = 5.0, 10 ** 5
    plans = build_plan(rm, road, dwell, inters, x, origin_link=1,
                       origin_arc=rm.first_arc, delta_t=delta_t)

    # road-time expectation per link: strip dwell and intersection sampling
    # and check each link's simulated mean against the analytic geometric
    # moments (mean S*dt, sd dt*sqrt(p)/(1-p))
    road_only = [LinkPlan(link_index=p.link_index, end_stop_id=p.end_stop_id,
                          remaining_dist=p.remaining_dist, speed=p.speed,
                          steps=p.steps, p_stay=p.p_stay,
                          dwell=fit_dwell(p.end_stop_id, [0.0], min_samples=1),
                          intersections=())
                 for p in plans]
    summary = simulate(road_only, MarkovConfig(delta_t=delta_t, runs=m_runs, seed=606))
    cumulative = [f.mean_remaining for f in summary.stops]
    per_link_mean = np.diff(np.concatenate([[0.0], cumulative]))
    for p, mean_hat in zip(road_only, per_link_mean):
        expected = p.remaining_dist / p.speed
        sd = delta_t * math.sqrt(p.p_stay) / (1.0 - p.p_stay)
        assert abs(mean_hat - expected) <= 3.0 * sd / math.sqrt(m_runs) + delta_t

    full = simulate(plans, MarkovConfig(delta_t=delta_t, runs=m_runs, seed=607))
    prev_mean = 0.0
    for f in full.stops:
        assert f.p2_5 <= f.mean_remaining <= f.p97_5
        assert f.mean_remaining > prev_mean
        prev_mean = f.mean_remaining
    report(6, f"per-link E[road] within 3*sd/sqrt(M)+dt of length/speed at "
              f"M={m_runs}; intervals contain means; remaining times monotone")


def test_exact_law_against_a_million_runs_on_truth_plans(corpus, fitted):
    """The fitted TRUTH plans from three origins, free-flowing and congested,
    against 10^6 runs of ``accel.markov_offsets``: at every stop each band
    tail holds at most 0.03 of the runs, and the exact mean lies within 4
    standard errors of theirs."""
    rm = corpus["rm"]
    road, dwell, inters = fitted.for_route(rm.route_key)
    rng = np.random.default_rng(808)
    chunk, chunks = 250_000, 4
    for traffic in (0.0, 1.0):
        x = np.array([0.0, 1.0, 1.0, traffic])
        for origin_link, origin_arc in ((1, rm.first_arc), (2, rm.stop_arcs[1] + 1.0),
                                        (4, rm.stop_arcs[3] + 1.0)):
            plans = build_plan(rm, road, dwell, inters, x, origin_link=origin_link,
                               origin_arc=origin_arc, delta_t=5.0)
            summary = simulate(plans, MarkovConfig(delta_t=5.0))
            lo = np.array([f.p2_5 for f in summary.stops])
            hi = np.array([f.p97_5 for f in summary.stops])
            k, n_x = len(plans), sum(len(p.intersections) for p in plans)
            below = above = total = squares = 0.0
            for _ in range(chunks):
                runs = markov_offsets(plans, rng.random((chunk, k)), rng.random((chunk, k)),
                                      rng.standard_normal((chunk, n_x)), 5.0)
                below = below + (runs < lo).sum(axis=0)
                above = above + (runs > hi).sum(axis=0)
                total = total + runs.sum(axis=0)
                squares = squares + (runs * runs).sum(axis=0)
            m = chunk * chunks
            mean = total / m
            se = np.sqrt((squares / m - mean * mean) / m)
            assert (below / m <= 0.03).all() and (above / m <= 0.03).all()
            exact = np.array([f.mean_remaining for f in summary.stops])
            assert (np.abs(exact - mean) <= 4 * se).all()


def test_criterion_07_interval_coverage(corpus, fitted):
    start = time.time()
    rm = corpus["rm"]
    road, dwell, inters = fitted.for_route(rm.route_key)

    truth_dep = {}
    for line in corpus["paths"].truth_events.read_text().splitlines()[1:]:
        p = line.split(",")
        if p[2] == "stop":
            truth_dep[(p[0], p[1], p[3])] = float(p[5])

    run = RunConfig(tz_offset=TZ)
    covariates = covariates_for(run, corpus["weather"])
    test_travs = [t for t in corpus["series"].segments
                  if local_date_hour(t.pings[0].timestamp, TZ)[0] >= CUT_DATE]
    inside = total = 0
    for trav in test_travs[:100]:
        date, _ = local_date_hour(trav.pings[0].timestamp, TZ)
        pps = repair_monotonic(project_traversal(trav, rm))
        session = PredictionSession(rm, road, dwell, inters, covariates,
                                    MarkovConfig(delta_t=5.0, runs=1000, seed=909),
                                    run.speed_threshold_by_link)
        for i, ping in enumerate(pps):
            if i == 0:
                summary = session.start(ping)
            elif i % 6 == 0:
                summary = session.emit_at(ping)
            else:
                session.observe(ping)
                continue
            if summary is None:
                continue
            for s in summary.stops:
                key = (trav.trip_id, date, s.stop_id)
                if key not in truth_dep:
                    continue
                true_remaining = truth_dep[key] - ping.timestamp
                if true_remaining <= 0:
                    continue
                total += 1
                inside += int(s.p2_5 <= true_remaining <= s.p97_5)
    rate = inside / total
    elapsed = time.time() - start
    assert total > 1000
    assert rate >= 0.90
    assert elapsed < 600.0
    report(7, f"true remaining time inside [p2.5, p97.5] at {inside}/{total} "
              f"evaluation points (rate {rate:.3f} >= 0.90, M=1000), {elapsed:.1f}s")


def test_criterion_08_bound_width_ordering(corpus_observations, tmp_path):
    observations, _ = corpus_observations
    table = observation_table(tmp_path / "observations.csv", observations)
    rows = evaluate_split(table, CUT_DATE, TZ)
    assert len(rows) == 5
    wins = sum(1 for r in rows if r.bw_ln < r.bw_hm and r.bw_ln < r.bw_lr)
    assert wins >= 4
    report(8, f"LN-MLE modal-covariate bound width narrower than HM and LR on "
              f"{wins}/5 links")


def test_criterion_09_test_calibration():
    retained = 0
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        samples = np.exp(rng.normal(3.0, 0.25, size=1000))
        if ks_lognormal(samples).p_value > 0.05:
            retained += 1
    assert retained >= 45

    bp_null = runs_null = 0
    bp_power = 0
    n_seeds = 200
    for seed in range(n_seeds):
        rng = np.random.default_rng(4000 + seed)
        n = 500
        X = (rng.random((n, 4)) < 0.5).astype(float)
        Z = design_matrix(X)
        y_homo = Z @ TRUE_BETA + 0.4 * rng.standard_normal(n)
        if breusch_pagan(y_homo, Z).p_value < 0.05:
            bp_null += 1
        sd = np.exp(0.5 * (-2.0 + 1.0 * Z[:, 4]))
        y_het = Z @ TRUE_BETA + sd * rng.standard_normal(n)
        if breusch_pagan(y_het, Z).p_value < 0.001:
            bp_power += 1
        seq = np.exp(rng.normal(3.0, 0.4, size=200))
        if runs_test(seq).p_value < 0.05:
            runs_null += 1
    assert 0.02 <= bp_null / n_seeds <= 0.09
    assert 0.02 <= runs_null / n_seeds <= 0.09
    assert bp_power / n_seeds >= 0.95
    report(9, f"K-S retained {retained}/50; BP null rejection {bp_null / n_seeds:.3f}, "
              f"runs null rejection {runs_null / n_seeds:.3f} (both in [0.02, 0.09]); "
              f"BP power {bp_power / n_seeds:.3f} >= 0.95")


def test_criterion_10_runs_closed_form():
    r = runs_test([1.0, 2.0] * 10)
    assert r.statistic == pytest.approx(4.135, abs=1e-3)
    assert r.p_value == pytest.approx(3.5e-5, rel=0.10)
    report(10, f"alternating 20-element sequence: R=20, Z={r.statistic:.4f} "
               f"(4.135 +- 0.001), p={r.p_value:.3e} (3.5e-5 +- 10%)")


def test_criterion_11_metric_formulas():
    assert mae([10, 20, 30], [12, 18, 33]) == pytest.approx(2.3333, abs=1e-4)
    assert mae([10, 20, 30], [12, 18, 33]) == pytest.approx(7.0 / 3.0, abs=1e-9)
    assert rmse([10, 20, 30], [12, 18, 33]) == pytest.approx(2.38048, abs=1e-4)
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        obs = rng.normal(0, 10, n)
        pred = obs + rng.normal(0, 4, n)
        assert rmse(obs, pred) >= mae(obs, pred) - 1e-12
    report(11, "MAE 2.3333 +- 1e-9, RMSE 2.38048 +- 1e-4, RMSE >= MAE on 1000 "
               "random vectors")


def test_criterion_12_cli_determinism(small_corpus, tmp_path):
    paths = small_corpus["paths"]
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        corpus_dir = tmp_path / f"synth_{run}"
        rc = main(["synth", "--truth", str(small_corpus["truth_path"]),
                   "--out", str(corpus_dir), "--json"])
        assert rc == 0
        cfg = tmp_path / f"{run}.cfg"
        cfg.write_text("\n".join([
            f"gtfs_dir = {corpus_dir / 'gtfs'}",
            f"pings = {corpus_dir / 'pings.csv'}",
            f"weather = {corpus_dir / 'weather.csv'}",
            f"intersections = {corpus_dir / 'intersections.csv'}",
            f"out_dir = {out}",
            "tz_offset = -5",
            "cut_date = 2023-08-22",
        ]) + "\n", encoding="utf-8")
        assert main(["infer", "--config", str(cfg)]) == 0
        assert main(["fit", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg)]) == 0
        trip = (corpus_dir / "pings.csv").read_text().split(",", 1)[0]
        assert main(["simulate", "--config", str(cfg), "--trip", trip,
                     "--replay"]) == 0
        blob = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        blob.update({f"corpus/{p.name}": p.read_bytes()
                     for p in sorted(corpus_dir.rglob("*")) if p.is_file()})
        outputs.append(blob)
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    report(12, f"synth/infer/fit/evaluate/simulate reruns byte-identical across "
               f"{len(outputs[0])} output files")
