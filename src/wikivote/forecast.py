"""The eight regression model specifications, turnout and attention analyses.

Model ids follow a fixed grid: the 1.x family predicts absolute vote share,
the 2.x family predicts vote change; x.0/x.1 fit all parties without/with the
page-view terms, x.2/x.3 repeat that on the small-party subset.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .errors import ComputationError, CurationWarning
from .features import FeatureRow, relative_change, subset_small
from .ingest import PageViewSeries
from .model import TurnoutRecord
from .stats import CorrelationResult, DesignMatrix, FitResult, ols_fit, pearson, qr_least_squares

BASE_TERMS = ("Intercept", "News", "New Party", "Incumbency", "News x Incumbency")
WIKI_TERMS = ("Wikipedia", "New Party x Wikipedia")

ATTENTION_WINDOW_DAYS = 30
MIN_FIT_DAYS = 5


@dataclass(frozen=True)
class ModelSpec:
    id: str
    dependent: str
    include_wikipedia: bool
    subset: str

    @classmethod
    def from_id(cls, model_id: str) -> "ModelSpec":
        if model_id not in MODEL_GRID:
            raise ValueError(
                f"unknown model id {model_id!r}; valid ids: {', '.join(MODEL_IDS)}"
            )
        return MODEL_GRID[model_id]

    @property
    def term_names(self) -> tuple[str, ...]:
        return BASE_TERMS + WIKI_TERMS if self.include_wikipedia else BASE_TERMS

    @property
    def covariates(self) -> tuple[str, ...]:
        """The row fields the design is built from."""
        base = ("news_share", "new_party", "incumbent")
        return base + ("wiki_share",) if self.include_wikipedia else base

    @property
    def outcome_range(self) -> tuple[float, float]:
        """Plausible outcomes: [0, 100] for vote share, [-100, 100] for vote change."""
        return (0.0, 100.0) if self.dependent == "vote_share" else (-100.0, 100.0)


MODEL_GRID = {
    spec.id: spec
    for spec in (
        ModelSpec("1.0", "vote_share", False, "all"),
        ModelSpec("1.1", "vote_share", True, "all"),
        ModelSpec("1.2", "vote_share", False, "small_parties"),
        ModelSpec("1.3", "vote_share", True, "small_parties"),
        ModelSpec("2.0", "vote_change", False, "all"),
        ModelSpec("2.1", "vote_change", True, "all"),
        ModelSpec("2.2", "vote_change", False, "small_parties"),
        ModelSpec("2.3", "vote_change", True, "small_parties"),
    )
}
MODEL_IDS = tuple(MODEL_GRID)


@dataclass(frozen=True)
class ModelReport:
    spec: ModelSpec
    fit: FitResult

    def to_json_dict(self) -> dict:
        """Fixed wire format: {spec, terms[], r2, adj_r2, n}."""
        return {
            "spec": self.spec.id,
            "terms": [
                {
                    "name": t.name,
                    "beta": t.beta,
                    "se": t.se,
                    "t": t.t_stat,
                    "p": t.p_value,
                    "stars": t.stars,
                }
                for t in self.fit.terms
            ],
            "r2": self.fit.r2,
            "adj_r2": self.fit.adj_r2,
            "n": self.fit.n,
        }


@dataclass(frozen=True)
class ModelComparison:
    delta_r2: float
    delta_adj_r2: float


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


def _design(rows, spec: ModelSpec) -> np.ndarray:
    """The design rows of spec over rows, columns in spec.term_names order.

    Interactions are elementwise products of the already-built columns. A
    covariate that is absent or NaN on any row raises ComputationError.
    """
    values = {}
    for field in spec.covariates:
        column = np.array([getattr(row, field, None) for row in rows], dtype=float)
        if np.isnan(column).any():
            raise ComputationError(f"missing covariate {field!r}")
        values[field] = column
    news, new_party, incumbency = values["news_share"], values["new_party"], values["incumbent"]
    columns = [np.ones(len(rows)), news, new_party, incumbency, news * incumbency]
    if spec.include_wikipedia:
        wiki = values["wiki_share"]
        columns += [wiki, new_party * wiki]
    return np.column_stack(columns)


def build_design_matrix(
    rows: list[FeatureRow], spec: ModelSpec
) -> tuple[DesignMatrix, np.ndarray]:
    """Assemble the fixed-order design and response for one model spec.

    A constant non-intercept column draws a warning here and a named failure
    in the fit.
    """
    used = subset_small(rows) if spec.subset == "small_parties" else list(rows)
    if not used:
        raise ComputationError(f"model {spec.id}: no rows left after subsetting")

    design = _design(used, spec)
    names = spec.term_names
    for name, column in zip(names[1:], design.T[1:]):
        if np.ptp(column) == 0.0:
            warnings.warn(
                f"model {spec.id}: column {name!r} is constant",
                CurationWarning,
                stacklevel=2,
            )
    y = np.array([getattr(r, spec.dependent) for r in used])
    return DesignMatrix(values=design, column_names=names), y


def fit_model(rows: list[FeatureRow], spec: ModelSpec, *, sides: str = "two") -> ModelReport:
    """Fit one model spec over the feature rows."""
    x, y = build_design_matrix(rows, spec)
    try:
        fit = ols_fit(x, y, sides=sides)
    except ComputationError as exc:
        raise ComputationError(f"model {spec.id}: {exc}") from exc
    return ModelReport(spec=spec, fit=fit)


def compare_models(base: ModelReport, full: ModelReport) -> ModelComparison:
    """R² and adjusted-R² gains of the full model over the base model."""
    if (base.spec.dependent, base.spec.subset) != (full.spec.dependent, full.spec.subset):
        raise ValueError(
            f"cannot compare {base.spec.id} against {full.spec.id}: "
            "different dependent variable or subset"
        )
    return ModelComparison(
        delta_r2=full.fit.r2 - base.fit.r2,
        delta_adj_r2=full.fit.adj_r2 - base.fit.adj_r2,
    )


def predict(report: ModelReport, new_rows) -> list[float]:
    """Point predictions in the dependent variable's units, unclamped.

    Values outside spec.outcome_range are reported as-is with a warning.
    """
    spec = report.spec
    beta = report.fit.beta
    low, high = spec.outcome_range
    rows = list(new_rows)
    predictions: list[float] = []
    for row, design in zip(rows, _design(rows, spec)):
        value = float(np.dot(design, beta))
        if not low <= value <= high:
            warnings.warn(
                f"prediction {value:.2f} outside [{low:g}, {high:g}] for "
                f"{getattr(row, 'party_id', '?')}",
                CurationWarning,
                stacklevel=2,
            )
        predictions.append(value)
    return predictions


def _studentized_residuals(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Internally studentized residuals of the straight-line fit y ~ x."""
    dof = len(x) - 2
    if dof <= 0:
        return np.full(len(x), np.nan)
    design = np.column_stack([np.ones(len(x)), x])
    q, _, beta = qr_least_squares(design, y)
    resid = y - design @ beta
    s2 = float(resid @ resid) / dof
    hat = (q * q).sum(axis=1)
    denom = np.sqrt(np.maximum(s2 * (1.0 - hat), 1e-300))
    return resid / denom


def turnout_analysis(
    records: list[TurnoutRecord], *, sides: str = "two"
) -> TurnoutReport:
    """Correlate relative view changes with relative turnout changes.

    Records flagged as outliers are echoed in the ratio table but excluded
    from the correlation; exclusion is always an explicit input flag, never
    detected here. Studentized residuals are attached to the included records
    as a diagnostic to help users judge their own flags.
    """
    if not records:
        raise ValueError("no turnout records")
    included = [r for r in records if not r.outlier]
    if len(included) < 3:
        raise ComputationError(
            f"need at least 3 non-outlier records, got {len(included)}"
        )
    views = {
        r.language_edition: relative_change(r.views_prev, r.views_curr) for r in records
    }
    turnout = {
        r.language_edition: relative_change(r.turnout_prev, r.turnout_curr) for r in records
    }
    x = np.array([views[r.language_edition] for r in included])
    y = np.array([turnout[r.language_edition] for r in included])
    correlation = pearson(x, y, sides=sides)
    studentized = dict(
        zip((r.language_edition for r in included), _studentized_residuals(x, y))
    )
    ratios = tuple(
        TurnoutRatio(
            language_edition=r.language_edition,
            views_change=views[r.language_edition],
            turnout_change=turnout[r.language_edition],
            outlier=r.outlier,
            studentized_residual=(
                float(studentized[r.language_edition]) if not r.outlier else None
            ),
        )
        for r in records
    )
    return TurnoutReport(correlation=correlation, ratios=ratios)


def _log_linear_rate(days: list[date], counts: list[int], origin: date) -> tuple[float, float]:
    """Slope and r² of ln(views) against day offsets; zero-count days dropped."""
    t, logv = [], []
    for day, count in zip(days, counts):
        if count > 0:
            t.append(float((day - origin).days))
            logv.append(math.log(count))
    if len(t) < MIN_FIT_DAYS:
        raise ComputationError(
            f"fewer than {MIN_FIT_DAYS} positive-count days for the rate fit"
        )
    t_arr = np.array(t)
    v_arr = np.array(logv)
    dt = t_arr - t_arr.mean()
    dv = v_arr - v_arr.mean()
    stt = float(dt @ dt)
    slope = float(dt @ dv) / stt
    svv = float(dv @ dv)
    if svv == 0.0:
        return slope, 0.0
    fitted = slope * dt
    r2 = float(fitted @ fitted) / svv
    return slope, r2


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
    window_start = election_date - timedelta(days=window_days)
    window_end = election_date + timedelta(days=window_days)
    in_window = [(d, v) for d, v in series.daily.items() if window_start <= d <= window_end]
    if not in_window:
        raise ComputationError(
            f"{series.wiki_project}/{series.page_title}: no data within "
            f"{window_days} days of {election_date}"
        )
    peak_date = max(in_window, key=lambda item: (item[1], -item[0].toordinal()))[0]
    if peak_date in (window_start, window_end):
        raise ComputationError(
            f"{series.wiki_project}/{series.page_title}: peak not interior "
            f"(falls on {peak_date})"
        )

    # fit windows hang off the peak, not the search window
    up_days = [
        d for d in series.daily
        if peak_date - timedelta(days=window_days) <= d < peak_date
    ]
    down_days = [
        d for d in series.daily
        if peak_date < d <= peak_date + timedelta(days=window_days)
    ]
    up_slope, up_r2 = _log_linear_rate(up_days, [series.daily[d] for d in up_days], peak_date)
    down_slope, down_r2 = _log_linear_rate(down_days, [series.daily[d] for d in down_days], peak_date)
    return AttentionDynamics(
        peak_date=peak_date,
        lambda_up=up_slope,
        lambda_down=-down_slope,
        fit_quality_up=up_r2,
        fit_quality_down=down_r2,
    )
