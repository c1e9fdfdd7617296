"""Acquisition paths: REST client against a scripted session, CSV loaders."""

import csv
import tracemalloc
from array import array
from collections.abc import Mapping
from datetime import date, timedelta

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, FakeResponse, FakeSession, pageview_payload
from wikivote.errors import (
    MissingPageError,
    NetworkError,
    RateLimitError,
    RowError,
    SchemaError,
    ValidationError,
)
from wikivote.ingest import (
    BASE_URL_ENV_VAR,
    MAX_IN_FLIGHT,
    MAX_RETRY_LIMIT,
    TURNOUT_SCHEMA,
    USER_AGENT,
    FetchPolicy,
    PageViewSeries,
    ascii_float,
    fetch_many,
    fetch_pageviews,
    load_pageviews_csv,
    load_party_csv,
    read_table,
    render_pageviews_csv,
)

WEEK = [(date(2014, 5, 18 + i), 100 + i) for i in range(7)]
PAGES = [("aa.wikipedia", "A"), ("aa.wikipedia", "B, with comma"), ("bb.wikipedia", "A")]
DAYS = [date(2014, 5, 18 + i).isoformat() for i in range(6)]


def no_sleep(_):
    raise AssertionError("sleep should not be called")


class TestPageViewSeries:
    def test_days_are_resorted(self):
        series = PageViewSeries("aa.wikipedia", "X", {
            date(2014, 5, 20): 3, date(2014, 5, 18): 1, date(2014, 5, 19): 2,
        })
        assert list(series.daily) == [date(2014, 5, 18), date(2014, 5, 19), date(2014, 5, 20)]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            PageViewSeries("aa.wikipedia", "X", {date(2014, 5, 18): -1})

    def test_count_beyond_64_bits_rejected(self):
        with pytest.raises(ValueError, match="^X: a view count does not fit in 64 bits$"):
            PageViewSeries("aa.wikipedia", "X", {date(2014, 5, 18): 2**63})

    def test_negative_count_names_its_first_day_in_date_order(self):
        with pytest.raises(ValueError, match="^X 2014-05-18: negative view count -1$"):
            PageViewSeries("aa.wikipedia", "X", {
                date(2014, 5, 20): -3, date(2014, 5, 19): 2, date(2014, 5, 18): -1,
            })

    @pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
    def test_callers_dict_is_copied(self, ordered):
        daily = dict(WEEK if ordered else reversed(WEEK))
        series = PageViewSeries("aa.wikipedia", "X", daily)
        daily[date(2014, 5, 18)] = 999
        daily[date(2014, 6, 1)] = 1
        assert series.daily == dict(WEEK)
        assert list(series.daily) == [day for day, _ in WEEK]

    def test_columns_and_a_read_only_daily_view(self):
        series = PageViewSeries("aa.wikipedia", "X", dict(reversed(WEEK)))
        assert series.days == tuple(day for day, _ in WEEK)
        assert series.counts == array("q", [views for _, views in WEEK])
        assert isinstance(series.daily, Mapping)
        assert series.daily[date(2014, 5, 20)] == 102
        assert date(2014, 5, 25) not in series.daily
        assert "2014-05-18" not in series.daily  # as for a dict, not a TypeError
        with pytest.raises(KeyError):
            series.daily[date(2014, 5, 25)]
        with pytest.raises(TypeError):
            series.daily[date(2014, 5, 18)] = 1
        assert len(series.daily.items()) == 7 and list(series.daily.values())[0] == 100
        assert series == PageViewSeries("aa.wikipedia", "X", dict(WEEK))
        assert series != PageViewSeries("aa.wikipedia", "X", dict(WEEK[1:]))


class TestFetchPageviews:
    def test_happy_path(self):
        session = FakeSession([FakeResponse(200, pageview_payload(WEEK))])
        series = fetch_pageviews(
            "aa.wikipedia", "Unity Party", date(2014, 5, 18), date(2014, 5, 24),
            session=session, sleep=no_sleep,
        )
        assert series.key == ("aa.wikipedia", "Unity Party")
        assert series.daily == dict(WEEK)
        url = session.requests[0]["url"]
        assert "/aa.wikipedia/all-access/all-agents/Unity_Party/daily/2014051800/2014052400" in url
        assert session.requests[0]["headers"]["User-Agent"] == (
            "wikivote/0.1 (page-view research client)") == USER_AGENT

    def test_days_outside_range_are_dropped(self):
        padded = [(date(2014, 5, 17), 999)] + WEEK + [(date(2014, 5, 25), 999)]
        session = FakeSession([FakeResponse(200, pageview_payload(padded))])
        series = fetch_pageviews(
            "aa.wikipedia", "X", date(2014, 5, 18), date(2014, 5, 24),
            session=session, sleep=no_sleep,
        )
        assert series.daily == dict(WEEK)

    def test_missing_page_fails_without_retry(self):
        session = FakeSession([FakeResponse(404)])
        with pytest.raises(MissingPageError):
            fetch_pageviews(
                "aa.wikipedia", "Nope", date(2014, 5, 18), date(2014, 5, 24),
                session=session, sleep=no_sleep,
            )
        assert len(session.requests) == 1

    def test_rate_limit_retries_with_backoff_then_succeeds(self):
        session = FakeSession([
            FakeResponse(429), FakeResponse(429),
            FakeResponse(200, pageview_payload(WEEK)),
        ])
        sleeps = []
        series = fetch_pageviews(
            "aa.wikipedia", "X", date(2014, 5, 18), date(2014, 5, 24),
            FetchPolicy(retry_limit=3, backoff_base=0.5),
            session=session, sleep=sleeps.append,
        )
        assert series.daily == dict(WEEK)
        assert sleeps == [0.5, 1.0]

    def test_rate_limit_exhaustion(self):
        session = FakeSession([FakeResponse(429)] * 3)
        sleeps = []
        with pytest.raises(RateLimitError, match="^HTTP 429 for aa.wikipedia/X after 3 attempts$"):
            fetch_pageviews(
                "aa.wikipedia", "X", date(2014, 5, 18), date(2014, 5, 24),
                FetchPolicy(retry_limit=2, backoff_base=1.0),
                session=session, sleep=sleeps.append,
            )
        assert len(session.requests) == 3
        assert sleeps == [1.0, 2.0]

    def test_server_error_exhaustion_is_network_error(self):
        session = FakeSession([FakeResponse(503)] * 2)
        with pytest.raises(NetworkError) as excinfo:
            fetch_pageviews(
                "aa.wikipedia", "X", date(2014, 5, 18), date(2014, 5, 24),
                FetchPolicy(retry_limit=1, backoff_base=0.0),
                session=session, sleep=lambda _: None,
            )
        assert not isinstance(excinfo.value, RateLimitError)
        assert str(excinfo.value) == "HTTP 503 for aa.wikipedia/X after 2 attempts"

    def test_client_error_fails_immediately(self):
        session = FakeSession([FakeResponse(400)])
        with pytest.raises(NetworkError, match="^unexpected HTTP 400 for aa.wikipedia/X$"):
            fetch_pageviews(
                "aa.wikipedia", "X", date(2014, 5, 18), date(2014, 5, 24),
                session=session, sleep=no_sleep,
            )
        assert len(session.requests) == 1

    def test_connection_trouble_is_retried(self):
        session = FakeSession([
            requests.ConnectionError("refused"),
            FakeResponse(200, pageview_payload(WEEK)),
        ])
        series = fetch_pageviews(
            "aa.wikipedia", "X", date(2014, 5, 18), date(2014, 5, 24),
            FetchPolicy(retry_limit=1, backoff_base=0.0),
            session=session, sleep=lambda _: None,
        )
        assert series.daily == dict(WEEK)

    def test_connection_trouble_exhaustion_raises_the_last_failure(self):
        session = FakeSession([requests.ConnectionError("refused"),
                               requests.ConnectionError("reset")])
        sleeps = []
        with pytest.raises(NetworkError, match="^request failed for aa.wikipedia/X: reset$"):
            fetch_pageviews(
                "aa.wikipedia", "X", date(2014, 5, 18), date(2014, 5, 24),
                FetchPolicy(retry_limit=1, backoff_base=0.5),
                session=session, sleep=sleeps.append,
            )
        assert sleeps == [0.5]

    def test_start_after_end_rejected(self):
        with pytest.raises(ValueError):
            fetch_pageviews(
                "aa.wikipedia", "X", date(2014, 5, 24), date(2014, 5, 18),
                session=FakeSession([]), sleep=no_sleep,
            )

    @pytest.mark.parametrize("project,title", [("", "X"), ("aa.wikipedia", "")])
    def test_empty_project_or_title_rejected_before_any_request(self, project, title):
        session = FakeSession([])
        with pytest.raises(ValidationError, match="^empty wiki_project or page_title$"):
            fetch_pageviews(project, title, date(2014, 5, 18), date(2014, 5, 24),
                            session=session, sleep=no_sleep)
        assert session.requests == []

    def test_base_url_env_override(self, monkeypatch):
        monkeypatch.setenv(BASE_URL_ENV_VAR, "http://localhost:9/views/")
        session = FakeSession([FakeResponse(200, pageview_payload(WEEK))])
        fetch_pageviews(
            "aa.wikipedia", "X", date(2014, 5, 18), date(2014, 5, 24),
            session=session, sleep=no_sleep,
        )
        assert session.requests[0]["url"].startswith("http://localhost:9/views/aa.wikipedia/")


class TestFetchMany:
    def test_collects_results_and_failures(self):
        session = FakeSession([
            FakeResponse(200, pageview_payload(WEEK)),
            FakeResponse(404),
            FakeResponse(200, pageview_payload(WEEK)),
        ])
        pages = [("aa.wikipedia", "A"), ("aa.wikipedia", "B"), ("aa.wikipedia", "C")]
        results, failures = fetch_many(
            pages, date(2014, 5, 18), date(2014, 5, 24),
            FetchPolicy(max_in_flight=1),
            session=session, sleep=no_sleep,
        )
        assert [s.page_title for s in results] == ["A", "C"]
        assert len(failures) == 1
        (page, exc), = failures
        assert page == ("aa.wikipedia", "B")
        assert isinstance(exc, MissingPageError)

    def test_views_that_are_not_json_integers_fail_their_page(self):
        day = date(2014, 5, 18)
        bad = [12.9, "1_0", True]
        session = FakeSession([FakeResponse(200, pageview_payload([(day, views)]))
                               for views in [*bad, 7]])
        pages = [("aa.wikipedia", title) for title in ("Float", "Text", "Bool", "Good")]
        results, failures = fetch_many(pages, day, day, FetchPolicy(max_in_flight=1),
                                       session=session, sleep=no_sleep)
        assert [(s.page_title, s.daily) for s in results] == [("Good", {day: 7})]
        assert [(page, str(exc)) for page, exc in failures] == [
            (page, f"{page[0]}/{page[1]} 2014-05-18: views must be a JSON integer, got {views!r}")
            for page, views in zip(pages, bad)
        ]

    def test_timestamps_that_are_not_ten_ascii_digits_fail_their_page(self):
        bad = ["2014 51800", "\u0662\u0660\u0661\u0664051800", "2014-05-18", "20140518",
               "2014023000"]
        session = FakeSession(
            [FakeResponse(200, {"items": [{"timestamp": stamp, "views": 5}]}) for stamp in bad]
            + [FakeResponse(200, pageview_payload([(date(2014, 5, 18), 7)]))])
        pages = [("aa.wikipedia", f"P{i}") for i in range(len(bad) + 1)]
        results, failures = fetch_many(pages, date(2014, 2, 1), date(2014, 5, 24),
                                       FetchPolicy(max_in_flight=1),
                                       session=session, sleep=no_sleep)
        assert [(s.page_title, s.daily) for s in results] == [("P5", {date(2014, 5, 18): 7})]
        assert [(page, type(exc), str(exc)) for page, exc in failures] == [
            (page, NetworkError, f"{page[0]}/{page[1]}: timestamp must be YYYYMMDDHH in ASCII "
                                 f"digits, got {stamp!r}")
            for page, stamp in zip(pages, bad)
        ]

    def test_max_in_flight_is_capped(self):
        assert FetchPolicy(max_in_flight=MAX_IN_FLIGHT).max_in_flight == MAX_IN_FLIGHT
        for value in (0, MAX_IN_FLIGHT + 1):
            with pytest.raises(ValueError, match=f"from 1 to {MAX_IN_FLIGHT}, got {value}"):
                FetchPolicy(max_in_flight=value)

    def test_retry_limit_is_capped(self):
        assert FetchPolicy(retry_limit=MAX_RETRY_LIMIT).retry_limit == MAX_RETRY_LIMIT
        for value in (-1, MAX_RETRY_LIMIT + 1):
            with pytest.raises(ValueError, match=f"from 0 to {MAX_RETRY_LIMIT}, got {value}"):
                FetchPolicy(retry_limit=value)


class TestPageviewsCsv:
    def test_round_trip(self, tmp_path, demo_series):
        out = tmp_path / "views.csv"
        out.write_text(render_pageviews_csv(demo_series), encoding="utf-8")
        again = load_pageviews_csv(out)
        assert again == demo_series

    def test_out_of_order_rows_are_resorted(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text(
            "wiki_project,page_title,date,views\n"
            "aa.wikipedia,X,2014-05-20,3\n"
            "aa.wikipedia,X,2014-05-18,1\n"
        )
        (series,) = load_pageviews_csv(path)
        assert list(series.daily) == [date(2014, 5, 18), date(2014, 5, 20)]

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ("aa.wikipedia,X,2014-13-40,5", "malformed"),
            ("aa.wikipedia,X,2014-05-18,not_a_number", "malformed"),
            ("aa.wikipedia,X,2014-05-18,-4", "negative"),
            (",X,2014-05-18,5", "empty"),
        ],
    )
    def test_bad_rows_carry_line_numbers(self, tmp_path, row, fragment):
        path = tmp_path / "v.csv"
        path.write_text("wiki_project,page_title,date,views\n" + row + "\n")
        with pytest.raises(RowError) as excinfo:
            load_pageviews_csv(path)
        assert excinfo.value.line == 2
        assert fragment in str(excinfo.value)

    def test_duplicate_day_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text(
            "wiki_project,page_title,date,views\n"
            "aa.wikipedia,X,2014-05-18,1\n"
            "aa.wikipedia,X,2014-05-18,2\n"
        )
        with pytest.raises(RowError, match="duplicate"):
            load_pageviews_csv(path)

    def test_fields_past_the_header_are_ignored(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text(
            "wiki_project,page_title,date,views\n"
            "aa.wikipedia,X,2014-05-18,1,note\n"
            "\n"
            "aa.wikipedia,X,2014-05-19,2\n"
        )
        (series,) = load_pageviews_csv(path)
        assert series.daily == {date(2014, 5, 18): 1, date(2014, 5, 19): 2}

    def test_duplicate_day_in_a_later_run_of_the_page_names_its_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text(
            "wiki_project,page_title,date,views\n"
            "aa.wikipedia,X,2014-05-18,1\n"
            "aa.wikipedia,X,2014-05-19,2\n"
            "aa.wikipedia,Y,2014-05-18,3\n"
            "aa.wikipedia,X,2014-05-20,4\n"
            "aa.wikipedia,X,2014-05-19,5\n"
        )
        with pytest.raises(RowError, match="^line 6: duplicate day 2014-05-19 for aa.wikipedia/X$"):
            load_pageviews_csv(path)

    def test_backwards_page_loads_as_the_sorted_file(self, tmp_path):
        rows = [(title, date(2014, 5, 1) + timedelta(days=i), 1000 + 7 * i + len(title))
                for title in ("X", "Y") for i in range(40)]
        ordered, backwards = tmp_path / "ordered.csv", tmp_path / "backwards.csv"
        for path, page_rows in ((ordered, rows), (backwards, rows[::-1])):
            path.write_text("wiki_project,page_title,date,views\n" + "".join(
                f"aa.wikipedia,{title},{day},{views}\n" for title, day, views in page_rows))
        loaded = load_pageviews_csv(backwards)
        assert loaded == load_pageviews_csv(ordered)
        assert [s.days for s in loaded] == [tuple(sorted(s.days)) for s in loaded]

    def test_csv_error_names_its_line(self, tmp_path):
        # the csv module refuses a field over its limit, 131 072 characters by default
        path = tmp_path / "v.csv"
        path.write_text(
            "wiki_project,page_title,date,views\n"
            "aa.wikipedia,X,2014-05-18,1\n"
            f"aa.wikipedia,{'T' * (csv.field_size_limit() + 1)},2014-05-18,1\n"
        )
        with pytest.raises(RowError, match="^line 3: malformed page-view row: field larger than"):
            load_pageviews_csv(path)

    def test_count_beyond_64_bits_names_its_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text(f"wiki_project,page_title,date,views\naa.wikipedia,X,2014-05-18,{2**63}\n")
        with pytest.raises(RowError, match="^line 2: malformed page-view row: views: .* too large"):
            load_pageviews_csv(path)

    def test_retained_bytes_per_row(self, tmp_path):
        # counts >= 1 000 are not cached small ints: a dict per series kept ~60 B per row
        pages, days = 100, 365
        path = tmp_path / "v.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write("wiki_project,page_title,date,views\n")
            for page in range(pages):
                handle.writelines(
                    f"aa.wikipedia,Page {page:03d},{date(2014, 1, 1) + timedelta(days=i)},"
                    f"{1000 + page * days + i}\n" for i in range(days))
        tracemalloc.start()
        try:
            loaded = load_pageviews_csv(path)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(s.days) for s in loaded) == pages * days
        assert retained / (pages * days) <= 24

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("wiki_project,page_title,views\naa.wikipedia,X,5\n")
        with pytest.raises(SchemaError, match="date"):
            load_pageviews_csv(path)

    @given(st.lists(
        st.tuples(st.sampled_from(PAGES), st.sampled_from(DAYS), st.integers(0, 10**9)),
        unique_by=lambda row: row[:2], max_size=40,
    ))
    @settings(max_examples=80, deadline=None)
    def test_matches_a_dictreader_reference(self, tmp_path_factory, rows):
        # rows come in any order: pages interleave and each date string recurs across pages
        path = tmp_path_factory.mktemp("views") / "v.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["views", "date", "wiki_project", "page_title"])
            writer.writerows([views, day, project, title] for (project, title), day, views in rows)
        expected: dict[tuple[str, str], dict[date, int]] = {}
        with open(path, newline="", encoding="utf-8") as handle:
            for record in csv.DictReader(handle):
                page = (record["wiki_project"], record["page_title"])
                expected.setdefault(page, {})[date.fromisoformat(record["date"])] = int(
                    record["views"]
                )

        loaded = load_pageviews_csv(path)
        assert [(s.wiki_project, s.page_title, list(s.daily.items())) for s in loaded] == [
            (project, title, sorted(daily.items()))
            for (project, title), daily in sorted(expected.items())
        ]
        # each distinct date string becomes one date object, shared by every page
        assert len({id(day) for s in loaded for day in s.daily}) == len(
            {day for _, day, _ in rows}
        )


class TestPartyCsv:
    HEADER = (
        "country,election_date,party_id,name_english,name_local,abbreviation,"
        "is_new,is_incumbent,vote_share,prev_vote_share,news_mentions,"
        "wiki_project,wiki_page_title"
    )

    def test_demo_file_loads(self):
        rows = load_party_csv(DATA_DIR / "demo_parties.csv")
        assert len(rows) == 59
        new_rows = [r for r in rows if r.is_new]
        assert new_rows and all(r.prev_vote_share is None for r in new_rows)

    def test_header_only_gives_empty_list(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(self.HEADER + "\n")
        assert load_party_csv(path) == []

    def test_empty_prev_share_becomes_none(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            self.HEADER + "\n"
            "Arcadia,2014-05-25,n1,New Movement,Movado Nova,N1,1,0,7.5,,120,"
            "aa.wikipedia,New Movement\n"
        )
        (row,) = load_party_csv(path)
        assert row.prev_vote_share is None

    @pytest.mark.parametrize("flag", ["2", "true", "yes", ""])
    def test_flags_are_strict(self, tmp_path, flag):
        path = tmp_path / "p.csv"
        path.write_text(
            self.HEADER + "\n"
            f"Arcadia,2014-05-25,p1,A,A,A,{flag},0,20.0,15.0,120,aa.wikipedia,A\n"
        )
        with pytest.raises(RowError) as excinfo:
            load_party_csv(path)
        assert excinfo.value.line == 2

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(self.HEADER + "\nArcadia,2014-05-25,p1\n")
        with pytest.raises(RowError, match="fewer fields"):
            load_party_csv(path)

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("country,election_date\nArcadia,2014-05-25\n")
        with pytest.raises(SchemaError):
            load_party_csv(path)

    def test_domain_violation_carries_line_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            self.HEADER + "\n"
            "Arcadia,2014-05-25,p1,A,A,A,0,0,20.0,15.0,120,aa.wikipedia,A\n"
            "Arcadia,2014-05-25,p2,B,B,B,0,0,120.0,15.0,120,aa.wikipedia,B\n"
        )
        with pytest.raises(RowError) as excinfo:
            load_party_csv(path)
        assert excinfo.value.line == 3

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            self.HEADER + "\n"
            "Arcadia,2009-06-07,arc_p1,A,A,A,0,0,20.0,15.0,120,aa.wikipedia,A\n"
            "Arcadia,2009-06-07,arc_p2,B,B,B,0,0,30.0,25.0,120,aa.wikipedia,B\n"
            "Arcadia,2009-06-07,arc_p1,A,A,A,0,1,21.0,15.0,130,aa.wikipedia,A\n"
        )
        with pytest.raises(RowError, match=(
            r"^line 4: duplicate party row Arcadia/2009-06-07/arc_p1 \(first on line 2\)$"
        )):
            load_party_csv(path)


class TestReadTable:
    def test_columns_are_read_by_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "outlier,note,turnout_curr,turnout_prev,views_curr,views_prev,language_edition\n"
            "1,ignored,51.0,50.0,120,100,lang01\n"
            "\n"
            "0,,61.0,60.0,90,80,lang02\n"
        )
        assert read_table(path, TURNOUT_SCHEMA, "turnout", tuple) == [
            ("lang01", 100, 120, 50.0, 51.0, True),
            ("lang02", 80, 90, 60.0, 61.0, False),
        ]

    def test_rejected_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "language_edition,views_prev,views_curr,turnout_prev,turnout_curr,outlier\n"
            "lang01,100,120,50.0,51.0,true\n"
        )
        with pytest.raises(RowError, match="line 2: malformed turnout row: outlier: "):
            read_table(path, TURNOUT_SCHEMA, "turnout", tuple)

    def test_csv_error_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "language_edition,views_prev,views_curr,turnout_prev,turnout_curr,outlier\n"
            "lang01,100,120,50.0,51.0,0\n"
            "\n"
            f"{'x' * (csv.field_size_limit() + 1)},100,120,50.0,51.0,0\n"
        )
        with pytest.raises(RowError, match="^line 4: malformed turnout row: field larger than"):
            read_table(path, TURNOUT_SCHEMA, "turnout", tuple)

    def test_undecodable_byte_names_its_line_past_the_first_chunk(self, tmp_path):
        # the reader decodes in chunks of a few KiB; the line must count from the file start
        rows = "".join(f"lang{i:04d},100,120,50.0,51.0,0\n" for i in range(2000))
        path = tmp_path / "t.csv"
        path.write_bytes(
            b"language_edition,views_prev,views_curr,turnout_prev,turnout_curr,outlier\n"
            + rows.encode() + b"Caf\xe9,100,120,50.0,51.0,0\n"
        )
        with pytest.raises(RowError, match=r"^line 2002: turnout file .* is not UTF-8"):
            read_table(path, TURNOUT_SCHEMA, "turnout", tuple)

    def test_integer_cells_padded_past_int_limit_keep_their_values(self, tmp_path):
        # int() alone refuses a text of over 4 300 characters, whatever its value
        zeros = "0" * 5000
        path = tmp_path / "t.csv"
        path.write_text(
            "language_edition,views_prev,views_curr,turnout_prev,turnout_curr,outlier\n"
            f"lang01,{zeros}100,-{zeros}120,50.0,51.0,0\n"
            f"lang02,{zeros},-{zeros},50.0,51.0,0\n"
        )
        assert read_table(path, TURNOUT_SCHEMA, "turnout", tuple) == [
            ("lang01", 100, -120, 50.0, 51.0, False),
            ("lang02", 0, 0, 50.0, 51.0, False),
        ]

    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200)
    def test_decimal_cells_keep_the_values_float_reads(self, x):
        # repr is what the outputs write, one decimal place what the benchmark inputs hold
        for text in (repr(x), f"{x:.1f}", f"{x:.3e}", f"{abs(x):.2f}".lstrip("0")):
            assert ascii_float(text) == float(text)
