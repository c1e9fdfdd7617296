"""Fits of the eight regression model specifications, turnout and attention analyses.

The specifications themselves (ModelSpec, MODEL_GRID) are in features.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date
from operator import attrgetter, itemgetter, mul

from .errors import ComputationError, CurationWarning
from .features import (ATTENTION_WINDOW_DAYS, MIN_FIT_DAYS, FeatureRow, ModelSpec,
                       calendar_window, relative_change, subset_small)
from .ingest import PageViewSeries
from .model import TurnoutRecord
from .stats import CorrelationResult, DesignMatrix, FitResult, centred, ols_fit, pearson


@dataclass(frozen=True)
class ModelReport:
    spec: ModelSpec
    fit: FitResult

    def to_json_dict(self) -> dict:
        """The model_<id>.json document: the spec id, then FitResult's fields
        (terms, r2, adj_r2, n), each term a copy of its TermEstimate's fields."""
        # a key given again keeps its first place: terms stays second
        return {"spec": self.spec.id, **vars(self.fit),
                "terms": [dict(vars(t)) for t in self.fit.terms]}


@dataclass(frozen=True)
class TurnoutRatio:
    language_edition: str
    views_change: float
    turnout_change: float
    outlier: bool
    studentized_residual: float | None = None


@dataclass(frozen=True)
class TurnoutReport:
    correlation: CorrelationResult
    ratios: tuple[TurnoutRatio, ...]

    @property
    def excluded(self) -> tuple[TurnoutRatio, ...]:
        return tuple(r for r in self.ratios if r.outlier)


@dataclass(frozen=True)
class AttentionDynamics:
    """Exponential build-up and decay rates around an attention peak.

    lambda_up is the log-linear slope before the peak, lambda_down the negated
    slope after it, so positive values mean growth and decay respectively.
    """

    peak_date: date
    lambda_up: float
    lambda_down: float
    fit_quality_up: float
    fit_quality_down: float


def _design(rows, spec: ModelSpec) -> list[list[float]]:
    """The design columns of spec over rows, in spec.term_names order.

    Interactions are products of the covariates. A covariate that is None or
    NaN on any row raises ComputationError.
    """
    covariates = [list(map(attrgetter(field), rows)) for field in spec.covariates]
    for field, column in zip(spec.covariates, covariates):
        if None in column or any(map(math.isnan, column)):
            raise ComputationError(f"missing covariate {field!r}")
    news, new_party, incumbency, *wiki = covariates
    columns = [[1.0] * len(rows), news, new_party, incumbency, list(map(mul, news, incumbency))]
    if wiki:
        columns += [wiki[0], list(map(mul, new_party, wiki[0]))]
    return columns


def fitted_rows(rows: list[FeatureRow], spec: ModelSpec) -> list[FeatureRow]:
    """The rows spec is fitted on: the small-party subset, or all of them."""
    return subset_small(rows) if spec.subset == "small_parties" else list(rows)


def build_design_matrix(
    rows: list[FeatureRow], spec: ModelSpec, designs: dict | None = None
) -> tuple[DesignMatrix, list[float]]:
    """Assemble the fixed-order design and response for one model spec.

    designs, if given, holds the designs built so far by subset and terms: a
    spec with the rows and terms of an earlier one (1.k and 2.k) takes its
    DesignMatrix, and with it the factorisation. A constant non-intercept
    column draws a warning here and a named failure in the fit.
    """
    used = fitted_rows(rows, spec)
    designs = {} if designs is None else designs
    key = (spec.subset, spec.include_wikipedia)
    if key not in designs:
        designs[key] = DesignMatrix(_design(used, spec), spec.term_names)
    x = designs[key]
    for name, column in zip(x.column_names[1:], x.columns[1:]):
        if column.count(column[0]) == len(column):
            warnings.warn(f"model {spec.id}: column {name!r} is constant", CurationWarning,
                          stacklevel=2)
    return x, list(map(attrgetter(spec.dependent), used))


def fit_model(rows: list[FeatureRow], spec: ModelSpec, *, sides: str = "two",
              designs: dict | None = None) -> ModelReport:
    """Fit one model spec over the feature rows; designs as for build_design_matrix."""
    try:
        fit = ols_fit(*build_design_matrix(rows, spec, designs), sides=sides)
    except ComputationError as exc:
        raise ComputationError(f"model {spec.id}: {exc}") from exc
    return ModelReport(spec=spec, fit=fit)


def predict(report: ModelReport, new_rows) -> list[float]:
    """Point predictions in the dependent variable's units, unclamped: values
    outside spec.outcome_range come back as they are, for the caller to flag."""
    beta = report.fit.beta
    return [math.fsum(map(mul, row, beta)) for row in zip(*_design(list(new_rows), report.spec))]


def _studentized_residuals(x: Sequence[float], y: Sequence[float]) -> list[float]:
    """Internally studentized residuals of the straight-line fit y ~ x, n >= 3, x not constant.

    Closed form from centred x, with leverage h = 1/n + (x - mean x)**2 / Sxx:
    a rank test on the [1, x] design would weigh the intercept against the
    scale of x, and call a line through x of range ~1e12 rank deficient.
    """
    n = len(x)
    dx, dy, sxx, sxy, _ = centred(x, y)
    slope = sxy / sxx
    resid = [v - slope * u for u, v in zip(dx, dy)]
    s2 = math.fsum(map(mul, resid, resid)) / (n - 2)
    return [e / math.sqrt(max(s2 * (1.0 - (1.0 / n + u * u / sxx)), 1e-300))
            for u, e in zip(dx, resid)]


def turnout_analysis(
    records: list[TurnoutRecord], *, sides: str = "two"
) -> TurnoutReport:
    """Correlate relative view changes with relative turnout changes.

    Records flagged as outliers are echoed in the ratio table but excluded
    from the correlation; exclusion is always an explicit input flag, never
    detected here. Studentized residuals are attached to the included records
    as a diagnostic to help users judge their own flags.
    """
    changes = [(relative_change(r.views_prev, r.views_curr),
                relative_change(r.turnout_prev, r.turnout_curr)) for r in records]
    included = [pair for r, pair in zip(records, changes) if not r.outlier]
    if len(included) < 3:
        raise ComputationError(
            f"need at least 3 non-outlier records, got {len(included)}"
        )
    x, y = zip(*included)
    correlation = pearson(x, y, sides=sides)
    residuals = iter(_studentized_residuals(x, y))
    ratios = tuple(
        TurnoutRatio(
            language_edition=r.language_edition,
            views_change=views,
            turnout_change=turnout,
            outlier=r.outlier,
            studentized_residual=None if r.outlier else next(residuals),
        )
        for r, (views, turnout) in zip(records, changes)
    )
    return TurnoutReport(correlation=correlation, ratios=ratios)


def _log_linear_rate(
    days: Sequence[date], counts: Sequence[int], origin: date, what: str
) -> tuple[float, float]:
    """Slope and r² of ln(views) against day offsets; zero-count days dropped.

    A failure is prefixed by what, which names the series and the side.
    """
    t, logv = [], []
    for day, count in zip(days, counts):
        if count > 0:
            t.append(float((day - origin).days))
            logv.append(math.log(count))
    if len(t) < MIN_FIT_DAYS:
        raise ComputationError(
            f"{what}: fewer than {MIN_FIT_DAYS} positive-count days for the rate fit"
        )
    _, _, stt, stv, svv = centred(t, logv)
    slope = stv / stt
    return slope, slope * stv / svv if svv else 0.0


def attention_dynamics(
    series: PageViewSeries,
    election_date: date,
    window_days: int = ATTENTION_WINDOW_DAYS,
) -> AttentionDynamics:
    """Estimate exponential build-up/decay rates around the attention peak.

    The peak is the view maximum within +-window_days of the election (ties
    break to the earliest date). Each side is fitted log-linearly over
    window_days days, skipping zero-count days rather than imputing.
    """
    name = f"{series.wiki_project}/{series.page_title}"
    start, end, window = calendar_window(series, election_date, -window_days, window_days)
    days, counts = series.days[window], series.counts[window]
    if not days:
        raise ComputationError(f"{name}: no data within {window_days} days of {election_date}")
    # max keeps the first of equal counts, and days increase: a tie goes to the earliest date
    peak_date, _ = max(zip(days, counts), key=itemgetter(1))
    if peak_date in (start, end):
        raise ComputationError(f"{name}: peak not interior (falls on {peak_date})")

    # fit windows hang off the peak, not the search window
    _, _, fit = calendar_window(series, peak_date, -window_days, window_days)
    days, counts = series.days[fit], series.counts[fit]
    peak = days.index(peak_date)
    up_slope, up_r2 = _log_linear_rate(days[:peak], counts[:peak], peak_date, f"{name}: build-up")
    down_slope, down_r2 = _log_linear_rate(days[peak + 1:], counts[peak + 1:], peak_date,
                                           f"{name}: decay")
    return AttentionDynamics(
        peak_date=peak_date,
        lambda_up=up_slope,
        lambda_down=-down_slope,
        fit_quality_up=up_r2,
        fit_quality_down=down_r2,
    )
