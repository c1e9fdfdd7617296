"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Every expected number here is either computed by an independent method
inside the test (reference solvers, closed forms, hand constructions) or
is a published reference value being reproduced. Tolerances are pinned in
the constants next to each criterion.
"""

import json
import math
import os
import time
from contextlib import contextmanager
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from conftest import DATA_DIR
from wikivote import cli, features, forecast, ingest, stats
from wikivote.model import validate_dataset


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL", flush=True)
        raise
    print(f"[acceptance] {label}: PASS", flush=True)


# --- criterion 1: the linear solver agrees with an independent method ------

QR_SYSTEMS = 200
QR_TOL = 1e-8
QR_BUDGET_SECONDS = 1.0


def test_criterion_1_qr_matches_normal_equations():
    with criterion("1 linear solver vs normal equations"):
        rng = np.random.default_rng(731)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(QR_SYSTEMS):
            n = int(rng.integers(10, 60))
            k = int(rng.integers(2, min(8, n - 1)))
            x = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
            y = rng.normal(size=n)
            names = ("Intercept", *(f"x{j}" for j in range(1, k)))
            beta_qr = np.array(stats.ols_fit(stats.DesignMatrix(x.T, names), y).beta)
            beta_ne = np.linalg.solve(x.T @ x, x.T @ y)
            worst = max(worst, float(np.abs(beta_qr - beta_ne).max()))
            residual = y - x @ beta_qr
            assert np.abs(x.T @ residual).max() < 1e-7
        elapsed = time.perf_counter() - start
        assert worst <= QR_TOL, f"worst deviation {worst:.3e}"
        assert elapsed < QR_BUDGET_SECONDS, f"{elapsed:.2f}s for {QR_SYSTEMS} systems"


# --- criterion 2: t-distribution tails against closed forms ----------------

T_GRID = [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0]
T_CLOSED_FORM_TOL = 1e-10
T_GAUSSIAN_TOL = 1e-4
T_BUDGET_SECONDS = 1.0


def test_criterion_2_t_distribution_closed_forms():
    with criterion("2 t-distribution closed forms and normal limit"):
        start = time.perf_counter()
        for t in T_GRID:
            df1_exact = 1.0 - 2.0 * math.atan(t) / math.pi
            assert abs(stats.student_t_two_sided_p(t, 1) - df1_exact) < T_CLOSED_FORM_TOL
            df2_exact = 1.0 - t / math.sqrt(t * t + 2.0)
            assert abs(stats.student_t_two_sided_p(t, 2) - df2_exact) < T_CLOSED_FORM_TOL
            normal = math.erfc(t / math.sqrt(2.0))
            assert abs(stats.student_t_two_sided_p(t, 1e6) - normal) < T_GAUSSIAN_TOL
        elapsed = time.perf_counter() - start
        assert elapsed < T_BUDGET_SECONDS, f"{elapsed:.2f}s for the t grid"


# --- criterion 3: published-table reproduction (needs the curated dataset) -

REFERENCE_PARTIES_ENV = "WIKIVOTE_REFERENCE_PARTIES"
REFERENCE_PAGEVIEWS_ENV = "WIKIVOTE_REFERENCE_PAGEVIEWS"
TABLE_TOL = 0.005

# published estimates: model id -> (betas, ses, r2, adj_r2, n) in fixed
# term order (the page-view terms only where the model includes them)
PUBLISHED_TABLES = {
    "1.0": ([3.66, 0.66, -2.00, -6.24, 0.35], [1.81, 0.09, 1.72, 3.85, 0.16],
            0.75, 0.73, 59),
    "1.1": ([1.96, 0.65, -1.15, -4.91, 0.31, 0.12, -0.09],
            [2.13, 0.09, 2.72, 3.94, 0.16, 0.08, 0.11], 0.76, 0.73, 59),
    "1.2": ([4.75, 0.24, 0.00, -1.55, 0.10], [1.09, 0.09, 0.94, 2.37, 0.16],
            0.33, 0.24, 35),
    "1.3": ([2.58, 0.25, 1.79, 0.18, 0.05, 0.16, -0.15],
            [1.59, 0.09, 1.66, 2.50, 0.16, 0.09, 0.09], 0.40, 0.27, 35),
    "2.0": ([-0.70, -0.02, 3.35, -3.27, 0.15], [2.45, 0.12, 2.33, 5.22, 0.22],
            0.05, -0.02, 59),
    "2.1": ([-6.45, -0.03, 5.29, 1.21, 0.03, 0.40, -0.25],
            [2.51, 0.10, 3.19, 4.64, 0.19, 0.10, 0.13], 0.32, 0.24, 59),
    "2.2": ([-2.43, 0.06, 3.91, 1.36, -0.13], [1.54, 0.13, 1.33, 3.34, 0.22],
            0.25, 0.15, 35),
    "2.3": ([-5.71, 0.13, 4.10, 4.05, -0.26, 0.21, -0.12],
            [2.14, 0.12, 2.23, 3.36, 0.21, 0.12, 0.12], 0.40, 0.27, 35),
}


def reference_paths():
    parties = Path(os.environ.get(
        REFERENCE_PARTIES_ENV, DATA_DIR / "reference_parties.csv"))
    pageviews = Path(os.environ.get(
        REFERENCE_PAGEVIEWS_ENV, DATA_DIR / "reference_pageviews.csv"))
    return parties, pageviews


def test_criterion_3_published_table_reproduction():
    parties_path, pageviews_path = reference_paths()
    if not (parties_path.exists() and pageviews_path.exists()):
        print("[acceptance] 3 published-table reproduction: SKIP "
              "(curated source dataset not distributed with this repository; "
              "coefficient recovery is covered by criterion 4 instead)",
              flush=True)
        pytest.skip(
            f"reference dataset not found at {parties_path} / {pageviews_path}; "
            f"set {REFERENCE_PARTIES_ENV} and {REFERENCE_PAGEVIEWS_ENV} to run "
            "the full table check"
        )
    with criterion("3 published-table reproduction"):
        dataset = validate_dataset(ingest.load_party_csv(parties_path))
        series = ingest.load_pageviews_csv(pageviews_path)
        sums = features.window_sums_from_series(dataset, series)
        rows = features.build_feature_rows(dataset, sums)
        for model_id, (betas, ses, r2, adj_r2, n) in PUBLISHED_TABLES.items():
            report = forecast.fit_model(rows, forecast.ModelSpec.from_id(model_id))
            assert report.fit.n == n, f"model {model_id}: n={report.fit.n}"
            for term, beta, se in zip(report.fit.terms, betas, ses):
                assert abs(term.beta - beta) <= TABLE_TOL, (model_id, term.name)
                assert abs(term.se - se) <= TABLE_TOL, (model_id, term.name)
            assert abs(report.fit.r2 - r2) <= TABLE_TOL, model_id
            assert abs(report.fit.adj_r2 - adj_r2) <= TABLE_TOL, model_id


# --- criterion 4: coefficient recovery on synthetic data -------------------

RECOVERY_REPS = 1000
RECOVERY_N = 59
RECOVERY_BETAS = np.array([1.96, 0.65, -1.15, -4.91, 0.31, 0.12, -0.09])
RECOVERY_TARGET_ADJ_R2 = 0.73
COVERAGE_LOW, COVERAGE_HIGH = 0.93, 0.97
ADJ_R2_TOL = 0.05


def synthetic_design(rng):
    """A design resembling the feature table: shares, debut/incumbent flags."""
    n = RECOVERY_N
    news = rng.gamma(shape=2.0, scale=8.0, size=n)
    wiki = 0.6 * news + rng.gamma(shape=2.0, scale=5.0, size=n)
    new_party = (rng.random(n) < 0.17).astype(float)
    incumbent = ((rng.random(n) < 0.20) & (new_party == 0)).astype(float)
    return np.column_stack([
        np.ones(n), news, new_party, incumbent, news * incumbent,
        wiki, new_party * wiki,
    ])


def test_criterion_4_synthetic_coefficient_recovery():
    with criterion("4 synthetic coefficient recovery with CI coverage"):
        rng = np.random.default_rng(59)
        x = synthetic_design(rng)
        signal = x @ RECOVERY_BETAS
        n, k = x.shape
        # noise level that lands the fits at the target adjusted R^2
        target_r2 = 1.0 - (1.0 - RECOVERY_TARGET_ADJ_R2) * (n - k) / (n - 1)
        sigma = math.sqrt(float(np.var(signal)) * (1.0 - target_r2) / target_r2)
        # an independent oracle for the quantile; scipy is a test-only dependency
        from scipy.stats import t as student_t
        t_crit = float(student_t.ppf(0.975, n - k))

        dm = stats.DesignMatrix(x.T, (
            "Intercept", "News", "New Party", "Incumbency",
            "News x Incumbency", "Wikipedia", "New Party x Wikipedia",
        ))
        covered = np.zeros(k)
        adj_r2_sum = 0.0
        for _ in range(RECOVERY_REPS):
            y = signal + rng.normal(scale=sigma, size=n)
            fit = stats.ols_fit(dm, y)
            adj_r2_sum += fit.adj_r2
            for j, term in enumerate(fit.terms):
                half = t_crit * term.se
                if term.beta - half <= RECOVERY_BETAS[j] <= term.beta + half:
                    covered[j] += 1
        coverage = covered / RECOVERY_REPS
        for j, rate in enumerate(coverage):
            assert COVERAGE_LOW <= rate <= COVERAGE_HIGH, (
                f"term {j} coverage {rate:.3f}"
            )
        mean_adj = adj_r2_sum / RECOVERY_REPS
        assert abs(mean_adj - RECOVERY_TARGET_ADJ_R2) <= ADJ_R2_TOL, mean_adj


# --- criterion 5: turnout correlation at the reported operating point ------

TURNOUT_R = 0.72
TURNOUT_N = 12
TURNOUT_R_TOL = 0.01
TURNOUT_ADJ_R2 = 0.47024
TURNOUT_ADJ_R2_FORMULA_TOL = 0.001


def test_criterion_5_turnout_operating_point():
    with criterion("5 turnout correlation operating point"):
        # formula check is unconditional: r = 0.72 over 12 editions
        adj = 1.0 - (1.0 - TURNOUT_R**2) * (TURNOUT_N - 1) / (TURNOUT_N - 2)
        assert abs(adj - TURNOUT_ADJ_R2) < TURNOUT_ADJ_R2_FORMULA_TOL

        # the committed fixture was constructed to sit exactly there,
        # with two flagged outliers that must be echoed but excluded
        records = ingest.load_turnout_csv(DATA_DIR / "demo_turnout.csv")
        report = forecast.turnout_analysis(records)
        assert report.correlation.n == TURNOUT_N
        assert len(report.excluded) == 2
        assert abs(report.correlation.r - TURNOUT_R) <= TURNOUT_R_TOL
        assert abs(report.correlation.adj_r2 - TURNOUT_ADJ_R2) <= 0.01


# --- criterion 6: attention build-up/decay rate recovery -------------------

ATTENTION_LAMBDA_UP = 0.12
ATTENTION_LAMBDA_DOWN = 0.35
NOISE_FREE_REL_TOL = 0.01
NOISY_REL_TOL = 0.10
LOGNORMAL_SIGMA = 0.05


def planted_series(rng=None):
    peak = date(2014, 5, 24)
    daily = {}
    for offset in range(-30, 31):
        lam = ATTENTION_LAMBDA_UP if offset <= 0 else ATTENTION_LAMBDA_DOWN
        level = 5e8 * math.exp(-lam * abs(offset))
        if rng is not None:
            level *= math.exp(rng.normal(0.0, LOGNORMAL_SIGMA))
        daily[peak + timedelta(days=offset)] = int(round(level))
    return ingest.PageViewSeries("xx.wikipedia", "Parliament election", daily)


def test_criterion_6_attention_rate_recovery():
    with criterion("6 attention rate recovery"):
        election = date(2014, 5, 25)
        clean = forecast.attention_dynamics(planted_series(), election)
        assert abs(clean.lambda_up - ATTENTION_LAMBDA_UP) <= (
            NOISE_FREE_REL_TOL * ATTENTION_LAMBDA_UP
        )
        assert abs(clean.lambda_down - ATTENTION_LAMBDA_DOWN) <= (
            NOISE_FREE_REL_TOL * ATTENTION_LAMBDA_DOWN
        )
        noisy = forecast.attention_dynamics(
            planted_series(np.random.default_rng(6)), election
        )
        assert abs(noisy.lambda_up - ATTENTION_LAMBDA_UP) <= (
            NOISY_REL_TOL * ATTENTION_LAMBDA_UP
        )
        assert abs(noisy.lambda_down - ATTENTION_LAMBDA_DOWN) <= (
            NOISY_REL_TOL * ATTENTION_LAMBDA_DOWN
        )
        assert clean.lambda_down > clean.lambda_up
        assert noisy.lambda_down > noisy.lambda_up


# --- criterion 7: share-feature invariants ----------------------------------

SHARE_SUM_TOL = 1e-9
SCALE_INVARIANCE_TOL = 1e-12
SCALE_FACTORS = (0.5, 3.0, 1000.0)
SMALL_THRESHOLD = 15.0


def test_criterion_7_feature_invariants(demo_dataset, demo_series):
    with criterion("7 share-feature invariants"):
        sums = features.window_sums_from_series(demo_dataset, demo_series)
        rows = features.build_feature_rows(demo_dataset, sums)

        by_group = {}
        for row in rows:
            by_group.setdefault((row.country, row.election_date), []).append(row)
        for members in by_group.values():
            assert abs(sum(r.wiki_share for r in members) - 100.0) < SHARE_SUM_TOL
            assert abs(sum(r.news_share for r in members) - 100.0) < SHARE_SUM_TOL

        for factor in SCALE_FACTORS:
            scaled = {key: value.total * factor for key, value in sums.items()}
            rescaled = features.build_feature_rows(demo_dataset, scaled)
            for before, after in zip(rows, rescaled):
                assert abs(after.wiki_share - before.wiki_share) < SCALE_INVARIANCE_TOL

        small = features.subset_small(rows, SMALL_THRESHOLD)
        assert all(r.vote_share < SMALL_THRESHOLD for r in small)
        at_boundary = features.FeatureRow(
            party_id="pX", country="Arcadia", election_date=date(2014, 5, 25),
            wiki_share=10.0, news_share=10.0, new_party=0, incumbent=0,
            vote_share=SMALL_THRESHOLD, vote_change=1.0,
        )
        assert features.subset_small(rows + [at_boundary], SMALL_THRESHOLD) == small

        for row in rows:
            if row.new_party:
                assert row.vote_change == pytest.approx(row.vote_share)


# --- criterion 8: deterministic command-line reports ------------------------


def test_criterion_8_cli_reports_are_reproducible(tmp_path, capsys):
    with criterion("8 deterministic command-line reports"):
        args = [
            "fit",
            "--dataset", str(DATA_DIR / "demo_parties.csv"),
            "--pageviews", str(DATA_DIR / "demo_pageviews.csv"),
            "--models", "1.0,1.1,2.0,2.1", "--format", "json",
        ]
        assert cli.main(args + ["--output-dir", str(tmp_path / "first")]) == 0
        assert cli.main(args + ["--output-dir", str(tmp_path / "second")]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in (tmp_path / "first").iterdir())
        assert names == [
            "fit_table.json", "manifest.json", "model_1.0.json",
            "model_1.1.json", "model_2.0.json", "model_2.1.json",
        ]
        for name in names:
            first = (tmp_path / "first" / name).read_bytes()
            second = (tmp_path / "second" / name).read_bytes()
            assert first == second, f"{name} differs between runs"
        doc = json.loads((tmp_path / "first" / "model_1.1.json").read_text())
        assert [t["name"] for t in doc["terms"]] == [
            "Intercept", "News", "New Party", "Incumbency",
            "News x Incumbency", "Wikipedia", "New Party x Wikipedia",
        ]
