"""Page-view acquisition (live REST client and offline CSV) and the CSV inputs.

Two acquisition paths exist on purpose: the live per-article endpoint only
covers recent years, so historical series arrive as CSV dumps. Missing days
are absent from a series, never zero-filled; window operations decide their
own missing-data policy. Every CSV input (parties, page views, turnout
records, scenarios, page lists) is read by read_table against a schema.
"""

from __future__ import annotations

import csv
import io
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple
from urllib.parse import quote

import requests

from .errors import (
    CurationWarning,
    ComputationError,
    MissingPageError,
    NetworkError,
    RateLimitError,
    RowError,
    SchemaError,
    ValidationError,
)
from .model import PartyObservation, TurnoutRecord

DEFAULT_BASE_URL = "https://wikimedia.org/api/rest_v1/metrics/pageviews/per-article"
BASE_URL_ENV_VAR = "WIKIVOTE_PAGEVIEWS_BASE_URL"


@dataclass(frozen=True)
class PageViewSeries:
    """Daily view counts for one article in one language edition.

    Dates are kept strictly increasing; days without data are simply absent.
    """

    wiki_project: str
    page_title: str
    daily: dict[date, int]

    def __post_init__(self):
        ordered = dict(sorted(self.daily.items()))
        for day, count in ordered.items():
            if count < 0:
                raise ValueError(f"{self.page_title} {day}: negative view count {count}")
        object.__setattr__(self, "daily", ordered)

    @property
    def key(self) -> tuple[str, str]:
        return (self.wiki_project, self.page_title)

    def views_between(self, start: date, end: date) -> int:
        return sum(v for d, v in self.daily.items() if start <= d <= end)


@dataclass(frozen=True)
class FetchPolicy:
    max_in_flight: int = 4
    retry_limit: int = 3
    backoff_base: float = 0.5
    user_agent: str = "wikivote/0.1 (page-view research client)"

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")


def _base_url(override: str | None) -> str:
    return override or os.environ.get(BASE_URL_ENV_VAR) or DEFAULT_BASE_URL


def fetch_pageviews(
    project: str,
    title: str,
    start: date,
    end: date,
    policy: FetchPolicy | None = None,
    *,
    base_url: str | None = None,
    session=None,
    sleep=time.sleep,
) -> PageViewSeries:
    """Fetch daily per-article counts for [start, end] from the REST endpoint.

    404 maps to MissingPageError without retrying; 429 and 5xx are retried
    with exponential backoff up to policy.retry_limit. Only the `timestamp`
    and `views` fields of the response items are consumed.
    """
    if start > end:
        raise ValueError(f"start {start} is after end {end}")
    if not title:
        raise ValueError("title must be non-empty")
    policy = policy or FetchPolicy()
    url = "{base}/{project}/all-access/all-agents/{title}/daily/{s}00/{e}00".format(
        base=_base_url(base_url).rstrip("/"),
        project=project,
        title=quote(title.replace(" ", "_"), safe=""),
        s=start.strftime("%Y%m%d"),
        e=end.strftime("%Y%m%d"),
    )
    http = session or requests.Session()
    headers = {"User-Agent": policy.user_agent, "Accept": "application/json"}

    attempt = 0
    while True:
        try:
            response = http.get(url, headers=headers, timeout=30)
            status = response.status_code
        except requests.RequestException as exc:
            status = None
            failure = NetworkError(f"request failed for {project}/{title}: {exc}")
        if status == 404:
            raise MissingPageError(f"no page-view record for {project}/{title}")
        if status == 200:
            return _series_from_items(project, title, response.json(), start, end)
        if status is not None:
            if status != 429 and status < 500:
                raise NetworkError(f"unexpected HTTP {status} for {project}/{title}")
            kind = RateLimitError if status == 429 else NetworkError
            failure = kind(
                f"HTTP {status} for {project}/{title} after {attempt + 1} attempts"
            )
        if attempt >= policy.retry_limit:
            raise failure
        sleep(policy.backoff_base * 2**attempt)
        attempt += 1


def _series_from_items(project, title, payload, start, end) -> PageViewSeries:
    daily: dict[date, int] = {}
    for item in payload.get("items", []):
        stamp = str(item["timestamp"])
        day = date(int(stamp[0:4]), int(stamp[4:6]), int(stamp[6:8]))
        if start <= day <= end:
            daily[day] = int(item["views"])
    return PageViewSeries(wiki_project=project, page_title=title, daily=daily)


def fetch_many(
    pages: list[tuple[str, str]],
    start: date,
    end: date,
    policy: FetchPolicy | None = None,
    **kwargs,
) -> tuple[list[PageViewSeries], list[tuple[tuple[str, str], Exception]]]:
    """Fetch several pages concurrently, never more than max_in_flight at once.

    Returns (series in input order, per-page failures).
    """
    policy = policy or FetchPolicy()

    def one(page):
        project, title = page
        return fetch_pageviews(project, title, start, end, policy, **kwargs)

    results: list[PageViewSeries] = []
    failures: list[tuple[tuple[str, str], Exception]] = []
    with ThreadPoolExecutor(max_workers=policy.max_in_flight) as pool:
        futures = [pool.submit(one, page) for page in pages]
        for page, future in zip(pages, futures):
            try:
                results.append(future.result())
            except Exception as exc:  # itemized; callers decide what is fatal
                failures.append((page, exc))
    return results, failures


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"must be 0 or 1, got {text!r}")
    return text == "1"


def _optional_float(text: str) -> float | None:
    return float(text) if text != "" else None


# Each schema lists (column, converter) pairs in the order its loader consumes
# the values; render_pageviews_csv takes its header from PAGEVIEWS_SCHEMA.
PAGEVIEWS_SCHEMA = (
    ("wiki_project", str), ("page_title", str), ("date", date.fromisoformat), ("views", int),
)
PAGES_SCHEMA = PAGEVIEWS_SCHEMA[:2]
PARTY_SCHEMA = (
    ("country", str), ("election_date", date.fromisoformat), ("party_id", str),
    ("name_english", str), ("name_local", str), ("abbreviation", str),
    ("is_new", _flag), ("is_incumbent", _flag), ("vote_share", float),
    ("prev_vote_share", _optional_float), ("news_mentions", int),
    ("wiki_project", str), ("wiki_page_title", str),
)
TURNOUT_SCHEMA = (
    ("language_edition", str), ("views_prev", int), ("views_curr", int),
    ("turnout_prev", float), ("turnout_curr", float), ("outlier", _flag),
)
SCENARIO_SCHEMA = (
    ("party_id", str), ("news_share", float), ("wiki_share", float),
    ("new_party", _flag), ("incumbent", _flag),
)


def read_table(path, schema, what: str):
    """Yield (line, values) for every non-blank data row of the CSV at path.

    Columns are found by header name, so their order is free and extra
    columns are ignored; values come in schema order, each cell passed
    through its column's converter. A missing column raises SchemaError; a
    short row raises RowError with its line, and a cell its converter rejects
    raises one with its line and column. A file that is not UTF-8 raises
    RowError with the line of its first undecodable byte.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            missing = [name for name, _ in schema if name not in header]
            if missing:
                raise SchemaError(f"{path}, line 1: missing columns {', '.join(missing)}")
            columns = [(name, header.index(name), convert) for name, convert in schema]
            width = max(index for _, index, _ in columns) + 1
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) < width:
                    raise RowError(line, f"malformed {what} row: fewer fields than the header")
                values = []
                for name, index, convert in columns:
                    try:
                        values.append(convert(row[index]))
                    except ValueError as exc:
                        raise RowError(line, f"malformed {what} row: {name}: {exc}") from exc
                yield line, values
        except UnicodeDecodeError:
            # the error's offset counts from the decoder's buffered chunk, so decode the whole file
            with open(path, "rb") as raw_handle:
                raw = raw_handle.read()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = raw.count(b"\n", 0, exc.start) + 1
                raise RowError(line, f"{what} file {path} is not UTF-8: {exc.reason}") from None
            raise


def render_csv(header, rows) -> str:
    """CSV text of a header row and the rows, each line ending in "\\n".

    rows may be any iterable; a generator is consumed one row at a time.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def load_pageviews_csv(path) -> list[PageViewSeries]:
    """Load `wiki_project,page_title,date,views` rows into one series per page.

    Rows may arrive in any date order; each series is re-sorted. Negative
    counts and malformed rows fail with their line number.
    """
    collected: dict[tuple[str, str], dict[date, int]] = {}
    for line, (project, title, day, views) in read_table(path, PAGEVIEWS_SCHEMA, "page-view"):
        if not project or not title:
            raise RowError(line, "empty wiki_project or page_title")
        if views < 0:
            raise RowError(line, f"negative view count {views}")
        day_map = collected.setdefault((project, title), {})
        if day in day_map:
            raise RowError(line, f"duplicate day {day} for {project}/{title}")
        day_map[day] = views
    return [
        PageViewSeries(wiki_project=project, page_title=title, daily=daily)
        for (project, title), daily in sorted(collected.items())
    ]


def render_pageviews_csv(series_list: list[PageViewSeries]) -> str:
    """Page-view CSV text, pages in key order; load_pageviews_csv reads it back."""
    return render_csv(
        [name for name, _ in PAGEVIEWS_SCHEMA],
        ((series.wiki_project, series.page_title, day.isoformat(), views)
         for series in sorted(series_list, key=lambda s: s.key)
         for day, views in series.daily.items()),
    )


def save_pageviews_csv(series_list: list[PageViewSeries], path) -> None:
    """Inverse of load_pageviews_csv; loading the output reproduces the input."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(render_pageviews_csv(series_list))


def load_party_csv(path) -> list[PartyObservation]:
    """Load the party dataset CSV into typed observations (strict parsing).

    A repeated (country, election_date, party_id) fails on its second line.
    """
    rows: list[PartyObservation] = []
    first_lines: dict[tuple[str, date, str], int] = {}
    for line, values in read_table(path, PARTY_SCHEMA, "party"):
        try:
            obs = PartyObservation(*values)
        except ValidationError as exc:
            raise RowError(line, f"malformed party row: {exc}") from exc
        first = first_lines.setdefault(obs.key, line)
        if first != line:
            raise RowError(line, f"duplicate party row {obs.label} (first on line {first})")
        rows.append(obs)
    return rows


def load_turnout_csv(path) -> list[TurnoutRecord]:
    """Load one turnout record per language edition (strict parsing)."""
    records: list[TurnoutRecord] = []
    for line, values in read_table(path, TURNOUT_SCHEMA, "turnout"):
        try:
            records.append(TurnoutRecord(*values))
        except ValueError as exc:
            raise RowError(line, f"malformed turnout row: {exc}") from exc
    return records


class ScenarioRow(NamedTuple):
    """One hypothetical party to predict for."""

    party_id: str
    news_share: float
    wiki_share: float
    new_party: bool
    incumbent: bool


def load_scenario_csv(path) -> list[ScenarioRow]:
    """Load the scenario rows `predict` applies a fitted model to."""
    return [ScenarioRow(*values) for _, values in read_table(path, SCENARIO_SCHEMA, "scenario")]


def resolve_page_variant(
    candidates: list[PageViewSeries], window_start: date, window_end: date
) -> str:
    """Pick the candidate article with the most views inside the window.

    Exact ties keep the first candidate in input order, with a warning.
    """
    if not candidates:
        raise ValueError("need at least one candidate series")
    if window_start > window_end:
        raise ValueError("window_start is after window_end")
    sums = [c.views_between(window_start, window_end) for c in candidates]
    best = max(sums)
    if best == 0:
        raise ComputationError(
            "no signal: every candidate has zero views in the window"
        )
    winner = sums.index(best)
    if sums.count(best) > 1:
        warnings.warn(
            f"view-count tie at {best}; keeping first candidate "
            f"{candidates[winner].page_title!r}",
            CurationWarning,
            stacklevel=2,
        )
    return candidates[winner].page_title
