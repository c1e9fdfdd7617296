"""Regression covariates, week-before windows, 0-100 shares, subsets and the model grid.

The attention window is the 7 calendar days ending the day before the first
polling day; election day itself is excluded so pre-vote information seeking
is not conflated with results-chasing. Days missing from a series contribute
nothing to a window sum but are reported through the coverage count.

Model ids follow a fixed grid: the 1.x family predicts absolute vote share,
the 2.x family predicts vote change; x.0/x.1 fit all parties without/with the
page-view terms, x.2/x.3 repeat that on the small-party subset.

The command line builds its parser from this module, which loads neither
forecast nor stats: commands that fit nothing (features, ingest, --help,
usage errors) never load them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from datetime import date, timedelta
from typing import Mapping, NamedTuple

from .errors import ComputationError
from .ingest import PageViewSeries
from .model import Dataset, ElectionGroup, vote_change

WINDOW_DAYS = 7
SMALL_PARTY_THRESHOLD = 15.0

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
class FeatureRow:
    """Per-observation regression covariates, shares on the 0-100 scale."""

    party_id: str
    country: str
    election_date: date
    wiki_share: float
    news_share: float
    new_party: int
    incumbent: int
    vote_share: float
    vote_change: float

    def __post_init__(self):
        if self.new_party not in (0, 1) or self.incumbent not in (0, 1):
            raise ValueError(f"{self.party_id}: indicators must be exactly 0 or 1")


FEATURE_COLUMNS = [f.name for f in fields(FeatureRow)]


class WindowViews(NamedTuple):
    total: int
    days_covered: int
    window_days: int


def calendar_window(series: PageViewSeries, center: date, first: int, last: int):
    """The days start = center + first and end = center + last, and the slice of
    series.days and series.counts from start to end, both ends included.

    A day that leaves the calendar raises a ComputationError naming the series.
    """
    try:
        start, end = center + timedelta(days=first), center + timedelta(days=last)
    except OverflowError:
        raise ComputationError(f"{series.wiki_project}/{series.page_title}: window {center} "
                               f"{first:+d} to {last:+d} days leaves the calendar") from None
    lo = bisect_left(series.days, start)
    return start, end, slice(lo, bisect_right(series.days, end, lo))


def window_views(
    series: PageViewSeries, election_date: date, window_days: int = WINDOW_DAYS
) -> WindowViews:
    """Sum views over the window_days days ending the day before the election."""
    start, end, window = calendar_window(series, election_date, -window_days, -1)
    counts = series.counts[window]
    if not counts:
        raise ComputationError(f"no data in window [{start}, {end}] for "
                               f"{series.wiki_project}/{series.page_title}")
    return WindowViews(total=sum(counts), days_covered=len(counts), window_days=window_days)


def _shares(counts: Mapping[str, float], what: str) -> dict[str, float]:
    total = math.fsum(counts.values())
    if total <= 0.0:
        raise ComputationError(f"zero total: cannot compute {what} shares")
    return {party: 100.0 * count / total for party, count in counts.items()}


def news_shares(group: ElectionGroup) -> dict[str, float]:
    """Each party's share of the group's news mentions, 0-100."""
    counts = {obs.party_id: float(obs.news_mentions) for obs in group.observations}
    return _shares(counts, "news")


def build_feature_rows(
    dataset: Dataset,
    window_sums: Mapping[tuple[str, date, str], WindowViews | float],
) -> list[FeatureRow]:
    """One FeatureRow per observation.

    window_sums is keyed by observation key; each value is a WindowViews or a
    plain number of views.
    """
    rows: list[FeatureRow] = []
    for group in dataset.groups:
        per_party = {}
        for obs in group.observations:
            if obs.key not in window_sums:
                raise ComputationError(f"missing window sum for observation {obs.label}")
            raw = window_sums[obs.key]
            per_party[obs.party_id] = float(raw.total if isinstance(raw, WindowViews) else raw)
        try:
            wiki = _shares(per_party, "traffic")
            news = news_shares(group)
        except ComputationError as exc:
            raise ComputationError(
                f"group {group.country}/{group.election_date}: {exc}"
            ) from exc
        for obs in group.observations:
            rows.append(
                FeatureRow(
                    party_id=obs.party_id,
                    country=obs.country,
                    election_date=obs.election_date,
                    wiki_share=wiki[obs.party_id],
                    news_share=news[obs.party_id],
                    new_party=int(obs.is_new),
                    incumbent=int(obs.is_incumbent),
                    vote_share=obs.vote_share,
                    vote_change=vote_change(obs),
                )
            )
    return rows


def window_sums_from_series(
    dataset: Dataset,
    series_list: list[PageViewSeries],
    window_days: int = WINDOW_DAYS,
) -> dict[tuple[str, date, str], WindowViews]:
    """Match each observation to its page series and sum its window.

    Raises if an observation has no matching (wiki_project, wiki_page_title)
    series; partial window coverage is carried in the WindowViews values.
    """
    by_page = {s.key: s for s in series_list}
    sums: dict[tuple[str, date, str], WindowViews] = {}
    for obs in dataset.observations:
        series = by_page.get((obs.wiki_project, obs.wiki_page_title))
        if series is None:
            raise ComputationError(
                f"no page-view series for {obs.wiki_project}/{obs.wiki_page_title} "
                f"(observation {obs.label})"
            )
        sums[obs.key] = window_views(series, obs.election_date, window_days)
    return sums


def subset_small(
    rows: list[FeatureRow], threshold: float = SMALL_PARTY_THRESHOLD
) -> list[FeatureRow]:
    """Rows with vote share strictly below the threshold (exactly-at excluded)."""
    return [row for row in rows if row.vote_share < threshold]


def relative_change(old: float, new: float) -> float:
    """(new - old) / old; the plain ratio, not a percentage."""
    if old <= 0.0:
        raise ValueError(f"relative change needs a positive baseline, got {old}")
    return (new - old) / old
