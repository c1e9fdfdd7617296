"""Election forecasting from Wikipedia page-view and news-mention shares."""

from .errors import (
    ComputationError,
    CurationWarning,
    DataError,
    MissingPageError,
    NetworkError,
    RateLimitError,
    RowError,
    SchemaError,
    SingularityError,
    ValidationError,
    WikivoteError,
)
from .features import (
    FeatureRow,
    WindowViews,
    build_feature_rows,
    news_shares,
    relative_change,
    subset_small,
    traffic_shares,
    window_sums_from_series,
    window_views,
)
from .forecast import (
    MODEL_IDS,
    AttentionDynamics,
    ModelComparison,
    ModelReport,
    ModelSpec,
    TurnoutReport,
    attention_dynamics,
    build_design_matrix,
    compare_models,
    fit_model,
    predict,
    turnout_analysis,
)
from .ingest import (
    FetchPolicy,
    PageViewSeries,
    fetch_many,
    fetch_pageviews,
    load_pageviews_csv,
    load_party_csv,
    resolve_page_variant,
    save_pageviews_csv,
)
from .model import (
    Dataset,
    ElectionGroup,
    PartyObservation,
    TurnoutRecord,
    validate_dataset,
    vote_change,
)
from .stats import (
    CorrelationResult,
    DesignMatrix,
    FitResult,
    TermEstimate,
    ols_fit,
    pearson,
    qr_solve,
    significance_stars,
    student_t_critical,
    student_t_two_sided_p,
)

__version__ = "0.1.0"
