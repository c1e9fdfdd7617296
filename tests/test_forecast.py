"""Model grid, design assembly, prediction, turnout and attention analyses."""

import math
import warnings
from datetime import date, timedelta
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, assert_residuals_match_oracle
from wikivote.ingest import load_turnout_csv
from wikivote.errors import ComputationError, CurationWarning, ValidationError
from wikivote.features import BASE_TERMS, MODEL_IDS, FeatureRow, subset_small
from wikivote.forecast import (
    ModelReport,
    ModelSpec,
    TurnoutRecord,
    _log_linear_rate,
    _studentized_residuals,
    attention_dynamics,
    build_design_matrix,
    fit_model,
    fitted_rows,
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
        TermEstimate(name=name, beta=b, se=1.0, t=b, p=0.5, stars="")
        for name, b in zip(spec.term_names, betas)
    )
    fit = FitResult(terms=terms, r2=0.5, adj_r2=0.5, n=59)
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
            assert x.shape == (rows, cols)
            assert len(y) == rows

    def test_column_order_and_contents(self, demo_features):
        x, y = build_design_matrix(demo_features, ModelSpec.from_id("1.1"))
        assert x.column_names == BASE_TERMS + ("Wikipedia", "New Party x Wikipedia")
        values = np.column_stack(x.columns)
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

    @pytest.mark.parametrize("model_id,small_only", [
        ("1.0", False), ("1.1", False), ("2.0", False), ("2.1", False),
        ("1.2", True), ("1.3", True), ("2.2", True), ("2.3", True),
    ])
    def test_fitted_rows_are_the_subset_of_the_spec(self, demo_features, model_id, small_only):
        rows = fitted_rows(demo_features, ModelSpec.from_id(model_id))
        assert rows == (subset_small(demo_features) if small_only else demo_features)
        assert len(rows) == (35 if small_only else 59)

    def test_empty_subset_is_an_error(self):
        rows = [feature_row(f"p{i}", share=20.0 + i) for i in range(6)]
        with pytest.raises(ComputationError,
                           match=r"^need more rows than columns to fit: n=0, columns=5$"):
            build_design_matrix(rows, ModelSpec.from_id("1.2"))


class TestFitModel:
    def test_report_carries_spec_and_size(self, demo_features):
        report = fit_model(demo_features, ModelSpec.from_id("1.1"))
        assert report.spec.id == "1.1"
        assert report.fit.n == 59
        assert len(report.fit.terms) == 7

    def test_wire_format(self, demo_features):
        doc = fit_model(demo_features, ModelSpec.from_id("1.0")).to_json_dict()
        # the key order is the field order of the records, and so the order of the written file
        assert list(doc) == ["spec", "terms", "r2", "adj_r2", "n"]
        assert doc["spec"] == "1.0"
        assert [t["name"] for t in doc["terms"]] == list(BASE_TERMS)
        for term in doc["terms"]:
            assert list(term) == list(TermEstimate._fields)

    def test_failure_names_the_model(self):
        rows = [feature_row(f"p{i}", news=float(i), wiki=float(i), share=10.0)
                for i in range(8)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ComputationError, match="model 1.0"):
                fit_model(rows, ModelSpec.from_id("1.0"))

    @pytest.mark.parametrize("base_id,full_id",
                             [("1.0", "1.1"), ("1.2", "1.3"), ("2.0", "2.1"), ("2.2", "2.3")])
    def test_nested_r2_gain_is_non_negative(self, demo_features, base_id, full_id):
        # x.1/x.3 add the page-view terms to the design of x.0/x.2, on the same rows
        base = fit_model(demo_features, ModelSpec.from_id(base_id))
        full = fit_model(demo_features, ModelSpec.from_id(full_id))
        assert full.fit.n == base.fit.n
        assert full.fit.r2 - base.fit.r2 >= -1e-12


def exact_least_squares(columns, y):
    """The solution of the normal equations X'X b = X'y in exact rationals."""
    x = [[Fraction(v) for v in column] for column in columns]
    y = [Fraction(v) for v in y]
    k = len(x)
    # the augmented system [X'X | X'y], reduced by Gauss-Jordan elimination
    system = [[sum(map(mul, x[i], x[j])) for j in range(k)] + [sum(map(mul, x[i], y))]
              for i in range(k)]
    for i in range(k):
        pivot = next(r for r in range(i, k) if system[r][i] != 0)
        system[i], system[pivot] = system[pivot], system[i]
        for r in range(k):
            if r != i:
                factor = system[r][i] / system[i][i]
                system[r] = [a - factor * b for a, b in zip(system[r], system[i])]
    return [system[i][k] / system[i][i] for i in range(k)]


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_betas_match_the_exact_normal_equations(demo_features, model_id):
    # the worst beta over the eight models on data/ is 1.5e-13 relative from the rationals
    spec = ModelSpec.from_id(model_id)
    x, y = build_design_matrix(demo_features, spec)
    exact = exact_least_squares(x.columns, y)
    for term, beta in zip(fit_model(demo_features, spec).fit.terms, exact):
        assert abs(Fraction(term.beta) - beta) <= Fraction(1, 10**12) * abs(beta), term.name


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
        assert predict(report, rows) == [math.fsum(map(mul, row, report.fit.beta))
                                         for row in zip(*x.columns)]

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

    def test_out_of_range_prediction_returns_unclamped_without_warning(self):
        # cmd_predict's out_of_range flag is the one range check
        report = report_with_betas("1.0", [120.0, 0.0, 0.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
        report = turnout_analysis(load_turnout_csv(DATA_DIR / "demo_turnout.csv"))
        for ratio in report.ratios:
            assert (ratio.studentized_residual is None) == ratio.outlier

    def test_exact_line_leaves_every_residual_undefined(self):
        # y is x / 2 to the last bit: no scatter about the line, so each residual is 0/0
        ratios = turnout_analysis(self.perfect_records()).ratios
        assert all(Fraction(r.views_change) == 2 * Fraction(r.turnout_change) for r in ratios)
        assert [r.studentized_residual for r in ratios] == [None] * 4

    @pytest.mark.parametrize("case, written", [("data", 12), ("view-change-of-1e12", 11),
                                               ("line-exact-up-to-rounding", 0)])
    def test_residuals_match_the_oracle_or_are_undefined(self, case, written):
        # a residual that rounding decides is None: lang01's leverage rounds to 1 beside a
        # view change of 1e12, and y = x / 3 leaves only the rounding of each x and y as scatter
        records = load_turnout_csv(DATA_DIR / "demo_turnout.csv")
        if case == "view-change-of-1e12":
            records[0] = records[0]._replace(views_prev=1, views_curr=10**12)
        elif case == "line-exact-up-to-rounding":
            records = [turnout_record(f"lang{i:02d}", 100, views, 30.0, 30.0 + (views - 100) / 10)
                       for i, views in enumerate((110, 130, 150, 180, 200))]
        assert assert_residuals_match_oracle(turnout_analysis(records).ratios) == written

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

    def test_residuals_equal_the_written_out_formulas(self):
        # the sums come from stats.centred; these are the same operations in the same order
        rng = np.random.default_rng(7)
        for n in (3, 12, 500):
            x, y = (rng.normal(size=n) * 1e3).tolist(), rng.normal(size=n).tolist()
            mean_x, mean_y = math.fsum(x) / n, math.fsum(y) / n
            dx = [v - mean_x for v in x]
            dy = [v - mean_y for v in y]
            sxx = math.fsum(map(mul, dx, dx))
            slope = math.fsum(map(mul, dx, dy)) / sxx
            resid = [v - slope * u for u, v in zip(dx, dy)]
            s2 = math.fsum(map(mul, resid, resid)) / (n - 2)
            hat = [1.0 / n + u * u / sxx for u in dx]
            expected = [e / math.sqrt(max(s2 * (1.0 - h), 1e-300)) for e, h in zip(resid, hat)]
            assert _studentized_residuals(x, y) == expected

    def test_changes_are_plain_ratios(self):
        records = [turnout_record("a", 200, 300, 40.0, 60.0),
                   turnout_record("b", 400, 300, 80.0, 60.0),
                   turnout_record("c", 5, 5, 50.0, 50.0)]
        ratios = turnout_analysis(records).ratios
        assert [r.views_change for r in ratios] == pytest.approx([0.5, -0.25, 0.0])
        assert [r.turnout_change for r in ratios] == pytest.approx([0.5, -0.25, 0.0])
        assert ratios[2].views_change == ratios[2].turnout_change == 0.0

    @given(
        old=st.floats(min_value=1e-6, max_value=1e9),
        new=st.floats(min_value=0.0, max_value=1e9),
    )
    @settings(max_examples=60, deadline=None)
    def test_changes_invert_cleanly(self, old, new):
        records = [turnout_record("a", old, new, 40.0, 60.0),
                   turnout_record("b", 400, 300, 80.0, 60.0),
                   turnout_record("c", 200, 300, 50.0, 50.0)]
        change = turnout_analysis(records).ratios[0].views_change
        # absolute tolerance scales with old: 1 + change cancels when new << old
        assert old * (1.0 + change) == pytest.approx(new, rel=1e-9, abs=old * 1e-12)

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
        with pytest.raises(ValidationError):
            turnout_record("x", 0, 100, 50.0, 50.0)
        with pytest.raises(ValidationError):
            turnout_record("x", -5, 100, 50.0, 50.0)
        with pytest.raises(ValidationError):
            turnout_record("x", 100, 100, 0.0, 50.0)
        # no records at all is the general "at least 3" rule, a data error
        with pytest.raises(ComputationError, match="at least 3 non-outlier records, got 0"):
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

    def test_rate_fit_error_names_the_series_and_the_side(self):
        # a full build-up, then zero views after the peak
        daily = {ELECTION + timedelta(days=o): (1000 + 100 * o if o <= 0 else 0)
                 for o in range(-8, 9)}
        series = PageViewSeries("aa.wikipedia", "X", daily)
        with pytest.raises(ComputationError, match=(
                "^aa.wikipedia/X: decay: fewer than 5 positive-count days for the rate fit$")):
            attention_dynamics(series, ELECTION + timedelta(days=1), window_days=8)

    def test_rate_equals_the_written_out_formulas(self):
        # the sums come from stats.centred; these are the same operations in the same order
        rng = np.random.default_rng(8)
        days = [ELECTION + timedelta(days=o) for o in range(-30, 0)]
        counts = [int(c) for c in rng.integers(0, 5000, size=len(days))]
        t = [float((d - ELECTION).days) for d, c in zip(days, counts) if c > 0]
        v = [math.log(c) for c in counts if c > 0]
        mean_t, mean_v = math.fsum(t) / len(t), math.fsum(v) / len(v)
        dt = [u - mean_t for u in t]
        dv = [u - mean_v for u in v]
        stv = math.fsum(map(mul, dt, dv))
        slope = stv / math.fsum(map(mul, dt, dt))
        expected = (slope, slope * stv / math.fsum(map(mul, dv, dv)))
        assert _log_linear_rate(days, counts, ELECTION, "X") == expected

    def test_peak_fit_window_leaving_the_calendar_names_the_series(self):
        # the search window around 0001-02-10 fits the calendar; the peak's fit window does not
        series = exponential_series(0.12, 0.35, peak=date(1, 1, 20), span=19)
        with pytest.raises(ComputationError, match=(
                r"^aa.wikipedia/Parliament election: window 0001-01-20 -30 to \+30 days "
                r"leaves the calendar$")):
            attention_dynamics(series, date(1, 2, 10))

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
