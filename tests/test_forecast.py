"""Model grid, design assembly, prediction, turnout and attention analyses."""

import math
import warnings
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import DATA_DIR
from wikivote.ingest import load_turnout_csv
from wikivote.errors import ComputationError, CurationWarning
from wikivote.features import FeatureRow, subset_small
from wikivote.forecast import (
    BASE_TERMS,
    MODEL_IDS,
    ModelReport,
    ModelSpec,
    TurnoutRecord,
    attention_dynamics,
    build_design_matrix,
    compare_models,
    fit_model,
    predict,
    turnout_analysis,
)
from wikivote.ingest import PageViewSeries
from wikivote.stats import FitResult, TermEstimate

ELECTION = date(2014, 5, 25)


def feature_row(party_id="p1", news=20.0, wiki=20.0, new=0, incumbent=0,
                share=20.0, change=2.0):
    return FeatureRow(
        party_id=party_id, country="Arcadia", election_date=ELECTION,
        wiki_share=wiki, news_share=news, new_party=new, incumbent=incumbent,
        vote_share=share, vote_change=change,
    )


def report_with_betas(model_id: str, betas) -> ModelReport:
    """Hand-assembled report: only spec and coefficients matter to predict()."""
    spec = ModelSpec.from_id(model_id)
    terms = tuple(
        TermEstimate(name=name, beta=b, se=1.0, t_stat=b, p_value=0.5, stars="")
        for name, b in zip(spec.term_names, betas)
    )
    fit = FitResult(
        terms=terms, r2=0.5, adj_r2=0.5, n=59, df_resid=59 - len(terms),
        residuals=np.zeros(59), sigma2=1.0,
    )
    return ModelReport(spec=spec, fit=fit)


class TestModelSpec:
    def test_all_eight_ids_resolve(self):
        assert MODEL_IDS == ("1.0", "1.1", "1.2", "1.3", "2.0", "2.1", "2.2", "2.3")
        for model_id in MODEL_IDS:
            spec = ModelSpec.from_id(model_id)
            assert spec.dependent == ("vote_share" if model_id[0] == "1" else "vote_change")
            assert spec.include_wikipedia == (model_id[2] in "13")
            assert spec.subset == ("small_parties" if model_id[2] in "23" else "all")

    def test_unknown_id_lists_valid_ones(self):
        with pytest.raises(ValueError, match="1.0, 1.1"):
            ModelSpec.from_id("9.9")

    def test_term_names(self):
        assert ModelSpec.from_id("1.0").term_names == BASE_TERMS
        assert ModelSpec.from_id("1.1").term_names[-2:] == (
            "Wikipedia", "New Party x Wikipedia"
        )


class TestBuildDesignMatrix:
    def test_shapes_on_demo_data(self, demo_features):
        for model_id, rows, cols in [
            ("1.0", 59, 5), ("1.1", 59, 7), ("1.2", 35, 5), ("1.3", 35, 7),
            ("2.0", 59, 5), ("2.1", 59, 7), ("2.2", 35, 5), ("2.3", 35, 7),
        ]:
            x, y = build_design_matrix(demo_features, ModelSpec.from_id(model_id))
            assert x.values.shape == (rows, cols)
            assert y.shape == (rows,)

    def test_column_order_and_contents(self, demo_features):
        x, y = build_design_matrix(demo_features, ModelSpec.from_id("1.1"))
        assert x.column_names == BASE_TERMS + ("Wikipedia", "New Party x Wikipedia")
        values = x.values
        assert np.all(values[:, 0] == 1.0)
        assert np.allclose(values[:, 4], values[:, 1] * values[:, 3])
        assert np.allclose(values[:, 6], values[:, 2] * values[:, 5])
        assert np.allclose(y, [r.vote_share for r in demo_features])

    def test_change_models_use_change_response(self, demo_features):
        _, y = build_design_matrix(demo_features, ModelSpec.from_id("2.0"))
        assert np.allclose(y, [r.vote_change for r in demo_features])

    def test_subset_applied_before_assembly(self, demo_features):
        x, y = build_design_matrix(demo_features, ModelSpec.from_id("1.2"))
        small_shares = [r.vote_share for r in demo_features if r.vote_share < 15.0]
        assert np.allclose(y, small_shares)

    def test_constant_column_warns(self):
        rows = [
            feature_row(f"p{i}", news=10.0 * i + 5.0, wiki=10.0 * i + 5.0,
                        share=5.0 * i + 5.0)
            for i in range(8)
        ]
        with pytest.warns(CurationWarning) as captured:
            build_design_matrix(rows, ModelSpec.from_id("1.0"))
        flagged = " ".join(str(w.message) for w in captured)
        assert "Incumbency" in flagged and "New Party" in flagged

    def test_empty_subset_is_an_error(self):
        rows = [feature_row(f"p{i}", share=20.0 + i) for i in range(6)]
        with pytest.raises(ComputationError, match="no rows left"):
            build_design_matrix(rows, ModelSpec.from_id("1.2"))


class TestFitModel:
    def test_report_carries_spec_and_size(self, demo_features):
        report = fit_model(demo_features, ModelSpec.from_id("1.1"))
        assert report.spec.id == "1.1"
        assert report.fit.n == 59
        assert len(report.fit.terms) == 7

    def test_wire_format(self, demo_features):
        doc = fit_model(demo_features, ModelSpec.from_id("1.0")).to_json_dict()
        assert set(doc) == {"spec", "terms", "r2", "adj_r2", "n"}
        assert doc["spec"] == "1.0"
        assert [t["name"] for t in doc["terms"]] == list(BASE_TERMS)
        assert set(doc["terms"][0]) == {"name", "beta", "se", "t", "p", "stars"}

    def test_failure_names_the_model(self):
        rows = [feature_row(f"p{i}", news=float(i), wiki=float(i), share=10.0)
                for i in range(8)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ComputationError, match="model 1.0"):
                fit_model(rows, ModelSpec.from_id("1.0"))


class TestCompareModels:
    def test_nested_gain_is_non_negative(self, demo_features):
        base = fit_model(demo_features, ModelSpec.from_id("1.0"))
        full = fit_model(demo_features, ModelSpec.from_id("1.1"))
        cmp = compare_models(base, full)
        assert cmp.delta_r2 >= -1e-12
        assert cmp.delta_r2 == pytest.approx(full.fit.r2 - base.fit.r2, abs=1e-12)

    def test_self_comparison_is_zero(self, demo_features):
        report = fit_model(demo_features, ModelSpec.from_id("2.0"))
        cmp = compare_models(report, report)
        assert cmp.delta_r2 == 0.0
        assert cmp.delta_adj_r2 == 0.0

    @pytest.mark.parametrize("base_id,full_id", [("1.0", "2.1"), ("1.0", "1.3")])
    def test_mismatched_pairs_rejected(self, demo_features, base_id, full_id):
        base = fit_model(demo_features, ModelSpec.from_id(base_id))
        full = fit_model(demo_features, ModelSpec.from_id(full_id))
        with pytest.raises(ValueError, match="cannot compare"):
            compare_models(base, full)


class TestPredict:
    def test_share_model_linear_combination(self):
        report = report_with_betas("1.0", [3.66, 0.66, -2.00, -6.24, 0.35])
        rows = [
            feature_row("plain", news=50.0, new=0, incumbent=0),
            feature_row("debut", news=10.0, new=1, incumbent=0),
            feature_row("gov", news=30.0, new=0, incumbent=1),
        ]
        values = predict(report, rows)
        assert values[0] == pytest.approx(3.66 + 0.66 * 50.0, abs=1e-12)
        assert values[1] == pytest.approx(3.66 + 0.66 * 10.0 - 2.00, abs=1e-12)
        assert values[2] == pytest.approx(
            3.66 + 0.66 * 30.0 - 6.24 + 0.35 * 30.0, abs=1e-12
        )

    def test_change_model_with_page_view_terms(self):
        report = report_with_betas(
            "2.1", [-6.45, -0.03, 5.29, 1.21, 0.03, 0.40, -0.25]
        )
        established = feature_row("est", news=0.0, wiki=50.0, new=0, incumbent=0)
        debut = feature_row("deb", news=0.0, wiki=50.0, new=1, incumbent=0)
        est_value, deb_value = predict(report, [established, debut])
        assert est_value == pytest.approx(-6.45 + 0.40 * 50.0, abs=1e-12)
        assert deb_value == pytest.approx(
            -6.45 + 5.29 + 0.40 * 50.0 - 0.25 * 50.0, abs=1e-12
        )

    @pytest.mark.parametrize("model_id", MODEL_IDS)
    def test_fitted_values_match_design_product(self, demo_features, model_id):
        spec = ModelSpec.from_id(model_id)
        report = fit_model(demo_features, spec)
        rows = subset_small(demo_features) if spec.subset == "small_parties" else demo_features
        x, _ = build_design_matrix(rows, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            values = predict(report, rows)
        assert values == [float(np.dot(row, report.fit.beta)) for row in x.values]

    def test_missing_covariate_is_named(self):
        report = report_with_betas("1.1", [0.0] * 7)

        class Partial:
            party_id = "p"
            news_share = 10.0
            new_party = 0
            incumbent = 0
            wiki_share = None

        with pytest.raises(ComputationError, match="wiki_share"):
            predict(report, [Partial()])

    def test_out_of_range_prediction_warns_but_returns(self):
        report = report_with_betas("1.0", [120.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.warns(CurationWarning, match="outside"):
            (value,) = predict(report, [feature_row()])
        assert value == pytest.approx(120.0)


def turnout_record(edition, views_prev, views_curr, t_prev, t_curr, outlier=False):
    return TurnoutRecord(
        language_edition=edition, views_prev=views_prev, views_curr=views_curr,
        turnout_prev=t_prev, turnout_curr=t_curr, outlier=outlier,
    )


class TestTurnoutAnalysis:
    def perfect_records(self):
        # turnout change constructed as exactly half the views change
        records = []
        for i, change in enumerate((0.10, 0.30, 0.50, 0.80)):
            prev = 1_000_000
            records.append(turnout_record(
                f"lang{i:02d}", prev, int(prev * (1 + change)),
                40.0, 40.0 * (1 + change / 2),
            ))
        return records

    def test_perfect_line_gives_r_one(self):
        report = turnout_analysis(self.perfect_records())
        assert report.correlation.r == pytest.approx(1.0, abs=1e-9)
        assert report.correlation.n == 4

    def test_outliers_echoed_but_excluded(self):
        records = self.perfect_records() + [
            turnout_record("wild", 1_000_000, 3_000_000, 60.0, 30.0, outlier=True)
        ]
        report = turnout_analysis(records)
        assert report.correlation.n == 4
        assert report.correlation.r == pytest.approx(1.0, abs=1e-9)
        assert len(report.ratios) == 5
        wild = [r for r in report.ratios if r.language_edition == "wild"][0]
        assert wild.outlier and wild.studentized_residual is None
        assert [r.language_edition for r in report.excluded] == ["wild"]

    def test_included_records_carry_residuals(self):
        report = turnout_analysis(self.perfect_records())
        for ratio in report.ratios:
            assert ratio.studentized_residual is not None

    def test_studentized_residuals_match_hat_matrix_oracle(self):
        report = turnout_analysis(load_turnout_csv(DATA_DIR / "demo_turnout.csv"))
        included = [r for r in report.ratios if not r.outlier]
        x = np.array([r.views_change for r in included])
        y = np.array([r.turnout_change for r in included])
        design = np.column_stack([np.ones(len(x)), x])
        hat = design @ np.linalg.solve(design.T @ design, design.T)
        resid = y - hat @ y
        s2 = resid @ resid / (len(x) - 2)
        expected = resid / np.sqrt(s2 * (1.0 - np.diag(hat)))
        got = [r.studentized_residual for r in included]
        assert len(got) == 12
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_needs_three_included_records(self):
        records = self.perfect_records()[:2] + [
            turnout_record("x", 100, 200, 50.0, 60.0, outlier=True)
        ]
        with pytest.raises(ComputationError, match="at least 3"):
            turnout_analysis(records)

    def test_order_invariance(self):
        records = self.perfect_records()
        forward = turnout_analysis(records).correlation
        backward = turnout_analysis(list(reversed(records))).correlation
        assert forward.r == pytest.approx(backward.r, abs=1e-12)

    def test_uniform_scaling_of_views_leaves_r_alone(self):
        records = self.perfect_records()
        scaled = [
            turnout_record(r.language_edition, r.views_prev * 10,
                           r.views_curr * 10, r.turnout_prev, r.turnout_curr)
            for r in records
        ]
        assert turnout_analysis(scaled).correlation.r == pytest.approx(
            turnout_analysis(records).correlation.r, abs=1e-12
        )

    def test_record_validation(self):
        with pytest.raises(ValueError):
            turnout_record("x", 0, 100, 50.0, 50.0)
        with pytest.raises(ValueError):
            turnout_record("x", 100, 100, 0.0, 50.0)
        with pytest.raises(ValueError):
            turnout_analysis([])


def exponential_series(lam_up, lam_down, peak=ELECTION - timedelta(days=1),
                       scale=1e9, span=30, title="Parliament election"):
    daily = {}
    for offset in range(-span, span + 1):
        day = peak + timedelta(days=offset)
        lam = lam_up if offset <= 0 else lam_down
        daily[day] = int(round(scale * math.exp(-lam * abs(offset))))
    return PageViewSeries("aa.wikipedia", title, daily)


class TestAttentionDynamics:
    def test_recovers_planted_rates(self):
        series = exponential_series(0.12, 0.35)
        result = attention_dynamics(series, ELECTION)
        assert result.peak_date == ELECTION - timedelta(days=1)
        assert result.lambda_up == pytest.approx(0.12, rel=1e-4)
        assert result.lambda_down == pytest.approx(0.35, rel=1e-4)
        assert result.fit_quality_up > 0.999
        assert result.fit_quality_down > 0.999
        assert result.lambda_down > result.lambda_up

    def test_window_length_is_configurable(self):
        series = exponential_series(0.2, 0.4, span=12)
        result = attention_dynamics(series, ELECTION, window_days=10)
        assert result.lambda_up == pytest.approx(0.2, rel=1e-4)

    def test_tie_breaks_to_earliest_day(self):
        daily = {ELECTION + timedelta(days=o): 100 for o in range(-9, 7)}
        daily[ELECTION - timedelta(days=3)] = 500
        daily[ELECTION + timedelta(days=2)] = 500
        series = PageViewSeries("aa.wikipedia", "X", daily)
        result = attention_dynamics(series, ELECTION, window_days=5)
        assert result.peak_date == ELECTION - timedelta(days=3)

    def test_boundary_peak_rejected(self):
        daily = {
            ELECTION + timedelta(days=o): 100 + o for o in range(-10, 11)
        }  # strictly increasing: peak lands on the window edge
        series = PageViewSeries("aa.wikipedia", "X", daily)
        with pytest.raises(ComputationError, match="interior"):
            attention_dynamics(series, ELECTION, window_days=10)

    def test_no_data_in_window(self):
        series = PageViewSeries(
            "aa.wikipedia", "X", {ELECTION + timedelta(days=90): 5}
        )
        with pytest.raises(ComputationError, match="no data"):
            attention_dynamics(series, ELECTION)

    def test_too_few_positive_days(self):
        daily = {ELECTION + timedelta(days=o): 0 for o in range(-8, 9)}
        daily[ELECTION - timedelta(days=1)] = 1000
        for o in (2, 3, 4):
            daily[ELECTION - timedelta(days=o)] = 800
            daily[ELECTION + timedelta(days=o)] = 800
        series = PageViewSeries("aa.wikipedia", "X", daily)
        with pytest.raises(ComputationError, match="positive-count"):
            attention_dynamics(series, ELECTION, window_days=8)

    def test_zero_days_are_dropped_not_logged(self):
        series = exponential_series(0.12, 0.35)
        # knock a couple of mid-series days to zero; the fit must survive
        daily = dict(series.daily)
        daily[ELECTION - timedelta(days=10)] = 0
        daily[ELECTION + timedelta(days=7)] = 0
        patched = PageViewSeries("aa.wikipedia", "X", daily)
        result = attention_dynamics(patched, ELECTION)
        assert result.lambda_up == pytest.approx(0.12, rel=1e-3)
        assert result.lambda_down == pytest.approx(0.35, rel=1e-3)
