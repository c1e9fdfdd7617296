"""Page-view acquisition (live REST client and offline CSV) and the CSV inputs.

Two acquisition paths exist on purpose: the live per-article endpoint only
covers recent years, so historical series arrive as CSV dumps. Missing days
are absent from a series, never zero-filled; window operations decide their
own missing-data policy. Every CSV input (parties, page views, turnout
records, scenarios, page lists) is read against a schema through _table,
the one csv.reader: read_table converts the cells of each row through the
schema, rejects a repeated row key and makes the row's record, and the
page-view loader walks the reader itself and converts its own cells into
columns, since that file is by far the largest input.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import os
import re
import time
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple
from urllib.parse import quote

from .errors import (
    MissingPageError,
    NetworkError,
    RateLimitError,
    RowError,
    SchemaError,
    ValidationError,
    WikivoteError,
)
from .model import PartyObservation, TurnoutRecord

DEFAULT_BASE_URL = "https://wikimedia.org/api/rest_v1/metrics/pageviews/per-article"
BASE_URL_ENV_VAR = "WIKIVOTE_PAGEVIEWS_BASE_URL"
# the most page fetches FetchPolicy lets run at once, each on its own thread
MAX_IN_FLIGHT = 16
# the most retries FetchPolicy allows per page: the wait doubles each time, so ten
# at the default backoff_base already wait 0.5 * (2**10 - 1) s, about 8.5 minutes
MAX_RETRY_LIMIT = 10
# the longest first retry wait: with MAX_RETRY_LIMIT, a page waits 10 * (2**10 - 1) s, ~2.8 h
MAX_BACKOFF_BASE = 10.0
USER_AGENT = "wikivote/0.1 (page-view research client)"


class DailyView(Mapping):
    """Read-only {day: views} mapping over a series' two columns, in date order."""

    __slots__ = ("_days", "_counts")

    def __init__(self, days: tuple[date, ...], counts: array):
        self._days = days
        self._counts = counts

    def __len__(self) -> int:
        return len(self._days)

    def __iter__(self):
        return iter(self._days)

    def __getitem__(self, day: date) -> int:
        try:
            i = bisect_left(self._days, day)
        except TypeError:  # a key that does not compare with dates, such as a str
            raise KeyError(day) from None
        if i < len(self._days) and self._days[i] == day:
            return self._counts[i]
        raise KeyError(day)


@dataclass(frozen=True, init=False)
class PageViewSeries:
    """Daily view counts for one article in one language edition.

    Two columns: `days`, strictly increasing `date`s, and `counts`, the views
    of each day (array('q')). Days without data are simply absent. `daily` is
    a read-only {day: views} view over the columns.
    """

    wiki_project: str
    page_title: str
    days: tuple[date, ...]
    counts: array

    def __init__(self, wiki_project: str, page_title: str, daily: Mapping[date, int]):
        days = tuple(sorted(daily))  # the one sort of a series' days: linear on sorted keys
        try:
            counts = array("q", map(daily.__getitem__, days))
        except OverflowError:
            day = next(day for day in days if not -2**63 <= daily[day] < 2**63)
            raise ValueError(f"{page_title} {day}: a view count does not fit in 64 bits") from None
        if min(counts, default=0) < 0:
            i = next(i for i, count in enumerate(counts) if count < 0)
            raise ValueError(f"{page_title} {days[i]}: negative view count {counts[i]}")
        self._fill(wiki_project, page_title, days, counts)

    @classmethod
    def _from_columns(cls, wiki_project, page_title, days, counts) -> "PageViewSeries":
        """A series from columns already checked: days increasing, counts >= 0."""
        series = cls.__new__(cls)
        series._fill(wiki_project, page_title, days, counts)
        return series

    def _fill(self, wiki_project, page_title, days, counts) -> None:  # past frozen's __setattr__
        vars(self).update(wiki_project=wiki_project, page_title=page_title, days=days, counts=counts)

    @property
    def daily(self) -> DailyView:
        return DailyView(self.days, self.counts)

    @property
    def key(self) -> tuple[str, str]:
        return (self.wiki_project, self.page_title)


@dataclass(frozen=True)
class FetchPolicy:
    max_in_flight: int = 4
    retry_limit: int = 3
    backoff_base: float = 0.5

    def __post_init__(self):
        if not 1 <= self.max_in_flight <= MAX_IN_FLIGHT:
            raise ValueError(
                f"max_in_flight must be from 1 to {MAX_IN_FLIGHT}, got {self.max_in_flight}")
        if not 0 <= self.retry_limit <= MAX_RETRY_LIMIT:
            raise ValueError(
                f"retry_limit must be from 0 to {MAX_RETRY_LIMIT}, got {self.retry_limit}")
        if not 0 <= self.backoff_base <= MAX_BACKOFF_BASE:  # nan compares false: rejected too
            raise ValueError(f"backoff_base must be a finite number >= 0 and at most "
                             f"{MAX_BACKOFF_BASE}, got {self.backoff_base}")


def fetch_pageviews(
    project: str,
    title: str,
    start: date,
    end: date,
    policy: FetchPolicy | None = None,
    *,
    session=None,
    sleep=time.sleep,
) -> PageViewSeries:
    """Fetch daily per-article counts for [start, end] from the REST endpoint.

    404 maps to MissingPageError without retrying; 429 and 5xx are retried
    with exponential backoff up to policy.retry_limit. Only the `timestamp`
    and `views` fields of the response items are consumed; the base URL is
    WIKIVOTE_PAGEVIEWS_BASE_URL if set.
    """
    import requests  # here, not at module level: no other command loads the HTTP stack

    if start > end:
        raise ValueError(f"start {start} is after end {end}")
    page_key((project, title))
    policy = policy or FetchPolicy()
    url = "{base}/{project}/all-access/all-agents/{title}/daily/{s}00/{e}00".format(
        base=(os.environ.get(BASE_URL_ENV_VAR) or DEFAULT_BASE_URL).rstrip("/"),
        project=project,
        title=quote(title.replace(" ", "_"), safe=""),
        s=start.strftime("%Y%m%d"),
        e=end.strftime("%Y%m%d"),
    )
    http = session or requests.Session()
    headers = {"User-Agent": USER_AGENT, "Accept": "application/json"}

    for attempt in range(policy.retry_limit + 1):
        if attempt:
            sleep(policy.backoff_base * 2**(attempt - 1))
        try:
            response = http.get(url, headers=headers, timeout=30)
        except requests.RequestException as exc:
            failure = NetworkError(f"request failed for {project}/{title}: {exc}")
            continue
        status = response.status_code
        if status == 404:
            raise MissingPageError(f"no page-view record for {project}/{title}")
        if status == 200:
            try:
                payload = response.json()
            except ValueError:  # requests' JSONDecodeError is a ValueError
                raise NetworkError(f"{project}/{title}: the answer is not JSON") from None
            return _series_from_items(project, title, payload, start, end)
        if status != 429 and status < 500:
            raise NetworkError(f"unexpected HTTP {status} for {project}/{title}")
        kind = RateLimitError if status == 429 else NetworkError
        failure = kind(f"HTTP {status} for {project}/{title} after {attempt + 1} attempts")
    raise failure


def _series_from_items(project, title, payload, start, end) -> PageViewSeries:
    """The series of a REST answer, checked in the order it is read: an object
    whose `items`, if present, is a list of objects, each with a string
    `timestamp` and, within [start, end], an integer `views`."""
    if type(payload) is not dict:
        raise NetworkError(f"{project}/{title}: the answer is not a JSON object")
    items = payload.get("items", [])
    if type(items) is not list:
        raise NetworkError(f"{project}/{title}: items is not a JSON list")
    daily: dict[date, int] = {}
    for i, item in enumerate(items):
        if type(item) is not dict:
            raise NetworkError(f"{project}/{title}: item {i} is not a JSON object")
        stamp = item.get("timestamp")
        if type(stamp) is not str:
            raise NetworkError(f"{project}/{title}: item {i} has no string timestamp")
        match = _REST_STAMP.fullmatch(stamp)
        try:
            day = iso_date("-".join(match.groups())) if match else None
        except ValueError:  # a day that does not exist, such as 2014-02-30
            day = None
        if day is None:
            raise NetworkError(
                f"{project}/{title}: timestamp must be YYYYMMDDHH in ASCII digits, got {stamp!r}")
        if start <= day <= end:
            views = item.get("views")
            if type(views) is not int:  # a JSON integer: not a bool, a float or a string
                raise NetworkError(
                    f"{project}/{title} {day}: views must be a JSON integer, got {views!r}")
            if day in daily:  # a day stamped twice, say at hours 00 and 01, as the CSV rejects
                raise NetworkError(f"{project}/{title}: duplicate day {day}")
            daily[day] = views
    try:
        return PageViewSeries(wiki_project=project, page_title=title, daily=daily)
    except ValueError as exc:  # a negative or over-64-bit count; the message starts with the title
        raise NetworkError(f"{project}/{exc}") from None


def fetch_many(
    pages: list[tuple[str, str]],
    start: date,
    end: date,
    policy: FetchPolicy | None = None,
    **kwargs,
) -> tuple[list[PageViewSeries], list[tuple[tuple[str, str], Exception]]]:
    """Fetch several pages concurrently, never more than max_in_flight at once.

    Returns (series in input order, per-page failures). A failure is one of
    the toolkit's errors; any other exception is a bug, and propagates.
    """
    from concurrent.futures import ThreadPoolExecutor

    policy = policy or FetchPolicy()
    results: list[PageViewSeries] = []
    failures: list[tuple[tuple[str, str], Exception]] = []
    with ThreadPoolExecutor(max_workers=policy.max_in_flight) as pool:
        futures = [pool.submit(fetch_pageviews, project, title, start, end, policy, **kwargs)
                   for project, title in pages]
        for page, future in zip(pages, futures):
            try:
                results.append(future.result())
            except WikivoteError as exc:  # itemized; callers decide what is fatal
                failures.append((page, exc))
    return results, failures


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_REST_STAMP = re.compile(r"([0-9]{4})([0-9]{2})([0-9]{2})[0-9]{2}")
_ASCII_INT = re.compile(r"-?[0-9]+")
# float's own ASCII grammar less `_`, whitespace and `+`; nan and inf pass, for
# their callers to reject with their own message
_ASCII_FLOAT = re.compile(r"-?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[-+]?[0-9]+)?|inf(?:inity)?|nan)",
                          re.ASCII | re.IGNORECASE)


def iso_date(text: str) -> date:
    """A `YYYY-MM-DD` date of ASCII digits; date.fromisoformat alone accepts
    other forms, such as `20140501`, on some Python versions and not on others."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {shown(text)}")
    return date.fromisoformat(text)


def ascii_int(text: str) -> int:
    """An integer of ASCII digits and of magnitude at most 2**63 - 1, with an
    optional leading `-` for the callers that reject a negative value with
    their own message; int alone also takes `1_010`, ` 7 `, `+5` and
    non-ASCII digits such as `١٠`.

    The bound is tested on the digits without leading zeros, and int() reads
    only those: int() refuses a string of over 4 300 characters with a message
    of its own. The error gives the number of digits, not the value.
    """
    if not _ASCII_INT.fullmatch(text):
        raise ValueError(f"not an integer of ASCII digits: {shown(text)}")
    digits = text.removeprefix("-").lstrip("0")
    # without leading zeros, (length, text) orders digit strings as their values
    if (len(digits), digits) > (len(_MAX_COUNT), _MAX_COUNT):
        raise ValueError(f"a {len(digits)}-digit count is too large (at most 2**63 - 1)")
    value = int(digits or "0")
    return -value if text[0] == "-" else value


def ascii_float(text: str) -> float:
    """A decimal of ASCII digits, such as `29`, `-3.5`, `.5` or `1e-3`, with
    an optional leading `-`; float alone also takes `2_9.0`, ` 29 `, `+5` and
    non-ASCII digits such as `٢٥.8`."""
    if not _ASCII_FLOAT.fullmatch(text):
        raise ValueError(f"not a decimal of ASCII digits: {shown(text)}")
    return float(text)


_MAX_COUNT = str(2**63 - 1)  # what array("q") holds
# the most characters of a rejected value that its error message repeats
_SHOWN = 40


def shown(text: str) -> str:
    """text quoted for an error message: its repr, or past _SHOWN characters
    the repr of its first _SHOWN and its length, so a huge cell or option is
    not echoed whole."""
    if len(text) <= _SHOWN:
        return repr(text)
    return f"{text[:_SHOWN]!r}... ({len(text)} characters)"


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"must be 0 or 1, got {shown(text)}")
    return text == "1"


def _finite_float(text: str) -> float:
    value = ascii_float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {shown(text)}")
    return value


def _optional_float(text: str) -> float | None:
    return _finite_float(text) if text != "" else None


# Each schema lists (column, converter) pairs in the order its loader consumes
# the values; render_pageviews_csv takes its header from PAGEVIEWS_SCHEMA.
PAGEVIEWS_SCHEMA = (
    ("wiki_project", str), ("page_title", str), ("date", iso_date), ("views", ascii_int),
)
PAGES_SCHEMA = PAGEVIEWS_SCHEMA[:2]
PARTY_SCHEMA = (
    ("country", str), ("election_date", iso_date), ("party_id", str),
    ("name_english", str), ("name_local", str), ("abbreviation", str),
    ("is_new", _flag), ("is_incumbent", _flag), ("vote_share", _finite_float),
    ("prev_vote_share", _optional_float), ("news_mentions", ascii_int),
    ("wiki_project", str), ("wiki_page_title", str),
)
TURNOUT_SCHEMA = (
    ("language_edition", str), ("views_prev", ascii_int), ("views_curr", ascii_int),
    ("turnout_prev", _finite_float), ("turnout_curr", _finite_float), ("outlier", _flag),
)
SCENARIO_SCHEMA = (
    ("party_id", str), ("news_share", _finite_float), ("wiki_share", _finite_float),
    ("new_party", _flag), ("incumbent", _flag),
)


@contextmanager
def _table(path, schema, what: str):
    """Open the CSV at path and yield (reader, indices) past its header.

    Columns are found by header name, so their order is free and extra
    columns are ignored: indices holds the row index of each schema column,
    in schema order. A schema column missing or named twice raises SchemaError.
    Inside the block, a csv.Error (say, a field over the csv module's size
    limit) becomes RowError with the reader's line, and a file that is not
    UTF-8 RowError with the line of its first undecodable byte. A leading
    UTF-8 byte-order mark, as spreadsheet exports write, is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            missing = [name for name, _ in schema if name not in header]
            if missing:
                raise SchemaError(f"{path}, line 1: missing columns {', '.join(missing)}")
            repeated = [name for name, _ in schema if header.count(name) > 1]
            if repeated:
                raise SchemaError(f"{path}, line 1: repeated columns {', '.join(repeated)}")
            yield reader, [header.index(name) for name, _ in schema]
        except csv.Error as exc:
            raise RowError(reader.line_num, f"malformed {what} row: {exc}") from None
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


def _short_row(line: int, what: str) -> RowError:
    return RowError(line, f"malformed {what} row: fewer fields than the header")


def _convert_cells(line: int, cells, schema, what: str) -> list:
    """Each cell passed through its column's converter, as read_table does."""
    values = []
    for (name, convert), text in zip(schema, cells):
        try:
            values.append(convert(text))
        except ValueError as exc:
            raise RowError(line, f"malformed {what} row: {name}: {exc}") from exc
    return values


def read_table(path, schema, what: str, record, key: int = 0) -> list:
    """The record(values) of every non-blank data row of the CSV at path.

    The checks of _table, plus a short row raising RowError with its line.
    Values come in schema order, each cell passed through its column's
    converter, and a cell its converter rejects raises RowError with its line
    and column, as does a ValidationError raised by record. The first `key`
    values form the row's key: a row that repeats an earlier row's key raises
    RowError naming the key as a/b/c and both lines.
    """
    records = []
    first_lines: dict[tuple, int] = {}
    with _table(path, schema, what) as (reader, indices):
        # a tuple, as every schema has 2+ columns; IndexError on a blank or short row
        cells = operator.itemgetter(*indices)
        for row in reader:
            try:
                values = cells(row)
            except IndexError:
                if not row:
                    continue
                raise _short_row(reader.line_num, what) from None
            line = reader.line_num
            values = _convert_cells(line, values, schema, what)
            if key:
                first = first_lines.setdefault(tuple(values[:key]), line)
                if first != line:
                    label = "/".join(map(str, values[:key]))
                    raise RowError(line, f"duplicate {what} row {label} (first on line {first})")
            try:
                records.append(record(values))
            except ValidationError as exc:
                raise RowError(line, f"malformed {what} row: {exc}") from exc
    return records


def page_key(values) -> tuple[str, str]:
    """A page's (wiki_project, page_title), neither of them empty."""
    if not all(values):
        raise ValidationError("empty wiki_project or page_title")
    return tuple(values)


def render_csv(header, rows) -> str:
    """CSV text of a header row and the rows, each line ending in "\\n".

    Cells are values, written as csv.writer writes them: a str as itself,
    quoted where needed; a float as its repr, the shortest text that reads
    back to the same float; a date as YYYY-MM-DD. rows may be any
    iterable; a generator is consumed one row at a time.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def load_pageviews_csv(path) -> list[PageViewSeries]:
    """Load `wiki_project,page_title,date,views` rows into one series per page.

    One pass over the file appends each row to its page's two columns. Rows
    may arrive in any date order, and a page's rows need not be contiguous;
    PageViewSeries sorts a page whose days went out of order. Negative
    counts, repeated days and malformed rows fail with their line number.
    """
    # per page: [days, counts, latest day, set of its days once they went out of order]
    pages: dict[tuple[str, str], list] = {}
    # one date object per distinct date string: a file repeats each day once per page
    dates: dict[str, date] = {}
    project = title = None
    days = counts = latest = seen = None
    with _table(path, PAGEVIEWS_SCHEMA, "page-view") as (reader, indices):
        # indexed in place: per row, cheaper than the itemgetter of read_table
        i_project, i_title, i_day, i_views = indices
        for row in reader:
            try:
                row_project, row_title, day_text, views_text = (
                    row[i_project], row[i_title], row[i_day], row[i_views])
            except IndexError:  # a blank row, or one shorter than the header
                if not row:
                    continue
                raise _short_row(reader.line_num, "page-view") from None
            try:
                day = dates.get(day_text)
                if day is None:
                    day = dates[day_text] = iso_date(day_text)
                # plain ASCII digits without a call or a regex per row; the rest go to ascii_int
                views = (int(views_text) if views_text.isdigit() and views_text.isascii()
                         else ascii_int(views_text))
            except ValueError:
                # the schema's converters raise the RowError read_table would, naming the
                # column, or read what int() refused, such as a count padded past 4 300 zeros
                _, _, day, views = _convert_cells(
                    reader.line_num, (row_project, row_title, day_text, views_text),
                    PAGEVIEWS_SCHEMA, "page-view")
            if row_title != title or row_project != project:
                if not row_project or not row_title:
                    raise RowError(reader.line_num, "empty wiki_project or page_title")
                if days is not None:
                    pages[project, title][2:] = latest, seen
                project, title = row_project, row_title
                days, counts, latest, seen = pages.setdefault(
                    (project, title), [[], array("q"), date.min, None])
                add_day, add_count = days.append, counts.append
            if views < 0:
                raise RowError(reader.line_num, f"negative view count {views}")
            if day > latest:
                latest = day
                if seen is not None:
                    seen.add(day)
            else:
                if seen is None:
                    seen = set(days)
                if day in seen:
                    raise RowError(reader.line_num, f"duplicate day {day} for {project}/{title}")
                seen.add(day)
            try:
                add_count(views)
            except OverflowError:  # ascii_int names the cell, as read_table would
                _convert_cells(reader.line_num, (row_project, row_title, day_text, views_text),
                               PAGEVIEWS_SCHEMA, "page-view")
                raise
            add_day(day)
    if days is not None:
        pages[project, title][2:] = latest, seen
    return [PageViewSeries._from_columns(*key, tuple(days), counts) if seen is None
            else PageViewSeries(*key, dict(zip(days, counts)))
            for key, (days, counts, _, seen) in sorted(pages.items())]


def render_pageviews_csv(series_list: list[PageViewSeries]) -> str:
    """Page-view CSV text, pages in key order; load_pageviews_csv reads it back."""
    return render_csv(
        [name for name, _ in PAGEVIEWS_SCHEMA],
        ((series.wiki_project, series.page_title, day, views)
         for series in sorted(series_list, key=lambda s: s.key)
         for day, views in zip(series.days, series.counts)),
    )


def load_party_csv(path) -> list[PartyObservation]:
    """Load the party dataset CSV into typed observations (strict parsing).

    A repeated (country, election_date, party_id) fails on its second line.
    """
    return read_table(path, PARTY_SCHEMA, "party", lambda values: PartyObservation(*values), key=3)


def load_turnout_csv(path) -> list[TurnoutRecord]:
    """Load one turnout record per language edition (strict parsing)."""
    return read_table(path, TURNOUT_SCHEMA, "turnout", lambda values: TurnoutRecord(*values), key=1)


class ScenarioRow(NamedTuple):
    """One hypothetical party to predict for."""

    party_id: str
    news_share: float
    wiki_share: float
    new_party: bool
    incumbent: bool


def load_scenario_csv(path) -> list[ScenarioRow]:
    """Load the scenario rows `predict` applies a fitted model to."""
    return read_table(path, SCENARIO_SCHEMA, "scenario", ScenarioRow._make)
