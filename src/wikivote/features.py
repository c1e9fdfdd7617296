"""Regression covariates: week-before windows, 0-100 shares, and subsets.

The attention window is the 7 calendar days ending the day before the first
polling day; election day itself is excluded so pre-vote information seeking
is not conflated with results-chasing. Days missing from a series contribute
nothing to a window sum but are reported through the coverage count.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Mapping, NamedTuple

from .errors import ComputationError
from .ingest import PageViewSeries
from .model import Dataset, ElectionGroup, vote_change

WINDOW_DAYS = 7
SMALL_PARTY_THRESHOLD = 15.0

FEATURE_COLUMNS = [
    "party_id", "country", "election_date", "wiki_share", "news_share",
    "new_party", "incumbent", "vote_share", "vote_change",
]


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


class WindowViews(NamedTuple):
    total: int
    days_covered: int
    window_days: int


def calendar_window(series: PageViewSeries, center: date, first: int, last: int):
    """The days center + first and center + last, or a ComputationError naming
    the series when either leaves the calendar."""
    try:
        return center + timedelta(days=first), center + timedelta(days=last)
    except OverflowError:
        raise ComputationError(f"{series.wiki_project}/{series.page_title}: window {center} "
                               f"{first:+d} to {last:+d} days leaves the calendar") from None


def window_views(
    series: PageViewSeries, election_date: date, window_days: int = WINDOW_DAYS
) -> WindowViews:
    """Sum views over the window_days days ending the day before the election."""
    start, end = calendar_window(series, election_date, -window_days, -1)
    lo = bisect_left(series.days, start)
    hi = bisect_right(series.days, end, lo)
    if lo == hi:
        raise ComputationError(
            f"no data in window [{start}, {end}] for "
            f"{series.wiki_project}/{series.page_title}"
        )
    total = sum(series.counts[lo:hi])
    return WindowViews(total=total, days_covered=hi - lo, window_days=window_days)


def _shares(counts: Mapping[str, float], what: str) -> dict[str, float]:
    total = float(sum(counts.values()))
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
