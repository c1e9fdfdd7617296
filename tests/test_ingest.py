"""Acquisition paths: REST client against a scripted session, CSV loaders."""

from datetime import date

import pytest
import requests

from conftest import DATA_DIR, FakeResponse, FakeSession, pageview_payload
from wikivote.errors import (
    ComputationError,
    CurationWarning,
    MissingPageError,
    NetworkError,
    RateLimitError,
    RowError,
    SchemaError,
)
from wikivote.ingest import (
    BASE_URL_ENV_VAR,
    TURNOUT_SCHEMA,
    FetchPolicy,
    PageViewSeries,
    fetch_many,
    fetch_pageviews,
    load_pageviews_csv,
    load_party_csv,
    read_table,
    resolve_page_variant,
    save_pageviews_csv,
)

WEEK = [(date(2014, 5, 18 + i), 100 + i) for i in range(7)]


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

    def test_views_between_is_inclusive(self):
        series = PageViewSeries("aa.wikipedia", "X", dict(WEEK))
        assert series.views_between(date(2014, 5, 18), date(2014, 5, 24)) == sum(
            v for _, v in WEEK
        )
        assert series.views_between(date(2014, 5, 19), date(2014, 5, 19)) == 101


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
        assert session.requests[0]["headers"]["User-Agent"]

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
        with pytest.raises(RateLimitError):
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

    def test_client_error_fails_immediately(self):
        session = FakeSession([FakeResponse(400)])
        with pytest.raises(NetworkError):
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

    def test_start_after_end_rejected(self):
        with pytest.raises(ValueError):
            fetch_pageviews(
                "aa.wikipedia", "X", date(2014, 5, 24), date(2014, 5, 18),
                session=FakeSession([]), sleep=no_sleep,
            )

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


class TestPageviewsCsv:
    def test_round_trip(self, tmp_path, demo_series):
        out = tmp_path / "views.csv"
        save_pageviews_csv(demo_series, out)
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

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("wiki_project,page_title,views\naa.wikipedia,X,5\n")
        with pytest.raises(SchemaError, match="date"):
            load_pageviews_csv(path)


class TestResolvePageVariant:
    def series(self, title, views):
        daily = {date(2014, 5, 18 + i): v for i, v in enumerate(views)}
        return PageViewSeries("aa.wikipedia", title, daily)

    def test_picks_highest_window_total(self):
        candidates = [
            self.series("Variant A", [10, 10, 10]),
            self.series("Variant B", [50, 50, 50]),
        ]
        chosen = resolve_page_variant(candidates, date(2014, 5, 18), date(2014, 5, 20))
        assert chosen == "Variant B"

    def test_tie_keeps_first_and_warns(self):
        candidates = [
            self.series("First", [30, 0, 0]),
            self.series("Second", [10, 10, 10]),
        ]
        with pytest.warns(CurationWarning, match="tie"):
            chosen = resolve_page_variant(candidates, date(2014, 5, 18), date(2014, 5, 20))
        assert chosen == "First"

    def test_all_zero_is_no_signal(self):
        with pytest.raises(ComputationError, match="no signal"):
            resolve_page_variant(
                [self.series("A", [0, 0])], date(2014, 5, 18), date(2014, 5, 19)
            )

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            resolve_page_variant([], date(2014, 5, 18), date(2014, 5, 19))


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
        assert list(read_table(path, TURNOUT_SCHEMA, "turnout")) == [
            (2, ["lang01", 100, 120, 50.0, 51.0, True]),
            (4, ["lang02", 80, 90, 60.0, 61.0, False]),
        ]

    def test_rejected_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "language_edition,views_prev,views_curr,turnout_prev,turnout_curr,outlier\n"
            "lang01,100,120,50.0,51.0,true\n"
        )
        with pytest.raises(RowError, match="line 2: malformed turnout row: outlier: "):
            list(read_table(path, TURNOUT_SCHEMA, "turnout"))

    def test_undecodable_byte_names_its_line_past_the_first_chunk(self, tmp_path):
        # the reader decodes in chunks of a few KiB; the line must count from the file start
        rows = "".join(f"lang{i:04d},100,120,50.0,51.0,0\n" for i in range(2000))
        path = tmp_path / "t.csv"
        path.write_bytes(
            b"language_edition,views_prev,views_curr,turnout_prev,turnout_curr,outlier\n"
            + rows.encode() + b"Caf\xe9,100,120,50.0,51.0,0\n"
        )
        with pytest.raises(RowError, match=r"^line 2002: turnout file .* is not UTF-8"):
            list(read_table(path, TURNOUT_SCHEMA, "turnout"))
