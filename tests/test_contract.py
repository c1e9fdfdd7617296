"""The exit-code contract under hostile input cells.

One cell of a demo CSV (parties, page views, turnout records or a scenario;
the header row included) is replaced by a value from a small alphabet of
troublemakers, and one command that reads that file runs in-process through
cli.main. Whatever the cell, the command exits 0, 2 or 3, no exception
escapes, and a failure prints exactly one `wikivote: ` error line besides any
warning lines, or argparse's usage.

`ingest` is held to the same contract under hostile REST answers: each one
fails its page, the command exits 4, and stderr is one `ingest:` line that
names the page once, then the `wikivote: ` line.
"""

import contextlib
import csv
import io

import pytest
import responses
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from wikivote.cli import main

VALUES = ("", "0", "-1", "9" * 25, "nan", "inf", "1e308", "١٠", "x" * 5000)
SCENARIO = ("party_id,news_share,wiki_share,new_party,incumbent\n"
            "x1,20.0,25.0,0,1\nx2,5.5,12.0,1,0\n")


def features_argv(files):
    return ["--dataset", files["parties"], "--pageviews", files["pageviews"]]


# command: (the inputs it reads, its argv given the input paths and an output directory)
COMMANDS = {
    "features": (("parties", "pageviews"), lambda files, out: [
        "features", *features_argv(files), "--out", f"{out}/features.csv"]),
    "fit": (("parties", "pageviews"), lambda files, out: [
        "fit", *features_argv(files), "--format", "csv", "--output-dir", out]),
    "report": (("parties", "pageviews"), lambda files, out: [
        "report", *features_argv(files), "--output-dir", out]),
    "predict": (("parties", "pageviews", "scenario"), lambda files, out: [
        "predict", *features_argv(files), "--model", "2.3",
        "--scenario", files["scenario"], "--out", f"{out}/predict.csv"]),
    "turnout": (("turnout",), lambda files, out: [
        "turnout", "--records", files["turnout"], "--out", f"{out}/turnout.txt"]),
    "attention": (("pageviews",), lambda files, out: [
        "attention", "--pageviews", files["pageviews"], "--election-date", "2014-05-25",
        "--output-dir", out]),
}

TABLES = {
    name: list(csv.reader(io.StringIO(text)))
    for name, text in {
        "parties": (DATA_DIR / "demo_parties.csv").read_text(),
        "pageviews": (DATA_DIR / "demo_pageviews.csv").read_text(),
        "turnout": (DATA_DIR / "demo_turnout.csv").read_text(),
        "scenario": SCENARIO,
    }.items()
}


@st.composite
def mutations(draw):
    """(command, input, line index, column index, new cell value)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    table = draw(st.sampled_from(COMMANDS[command][0]))
    line = draw(st.integers(0, len(TABLES[table]) - 1))
    column = draw(st.integers(0, len(TABLES[table][0]) - 1))
    return command, table, line, column, draw(st.sampled_from(VALUES))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(derandomize=True, deadline=None, max_examples=250,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutation=mutations())
def test_any_cell_exits_by_the_contract(workdir, mutation):
    command, table, line, column, value = mutation
    files = {}
    for name in COMMANDS[command][0]:
        rows = TABLES[name]
        if name == table:
            rows = [list(row) for row in rows]
            rows[line][column] = value
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)
        files[name] = str(workdir / f"{name}.csv")
        (workdir / f"{name}.csv").write_text(text.getvalue(), encoding="utf-8")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(COMMANDS[command][1](files, str(workdir / "out")))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("usage: ")
    elif code == 3:
        errors = [text for text in err.getvalue().splitlines()
                  if not text.startswith("wikivote: warning: ")]
        assert len(errors) == 1 and errors[0].startswith("wikivote: "), errors


# --- ingest: one hostile REST answer per page ------------------------------

BASE_URL = "http://127.0.0.1:9/views"
PAGE_URL = f"{BASE_URL}/aa.wikipedia/all-access/all-agents/X/daily/2014051800/2014052400"


def item(views=5, timestamp="2014051800"):
    return {"items": [{"timestamp": timestamp, "views": views}]}


# (answer as responses' keyword arguments, what the ingest line must say)
REST_ANSWERS = {
    "list": ({"json": [{"timestamp": "2014051800", "views": 5}]}, "not a JSON object"),
    "no-timestamp": ({"json": {"items": [{"views": 5}]}}, "item 0 has no string timestamp"),
    "null-items": ({"json": {"items": None}}, "items is not a JSON list"),
    "string-item": ({"json": {"items": ["2014051800"]}}, "item 0 is not a JSON object"),
    "html": ({"body": "<html><body>Bad Gateway</body></html>"}, "the answer is not JSON"),
    "float-views": ({"json": item(12.9)}, "views must be a JSON integer, got 12.9"),
    "negative-views": ({"json": item(-1)}, "negative view count -1"),
    "string-views": ({"json": item("7")}, "views must be a JSON integer, got '7'"),
    "huge-views": ({"json": item(2**70)},
                   "X 2014-05-18: a view count does not fit in 64 bits"),
    "bad-stamp": ({"json": item(timestamp="2014 51800")}, "got '2014 51800'"),
}


@pytest.mark.parametrize("answer,fault", REST_ANSWERS.values(), ids=REST_ANSWERS)
def test_any_rest_answer_exits_by_the_contract(monkeypatch, answer, fault):
    monkeypatch.setenv("WIKIVOTE_PAGEVIEWS_BASE_URL", BASE_URL)
    out, err = io.StringIO(), io.StringIO()
    with responses.RequestsMock() as mock, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        mock.get(PAGE_URL, **answer)
        code = main(["ingest", "--project", "aa.wikipedia", "--title", "X",
                     "--start", "2014-05-18", "--end", "2014-05-24", "--retry-limit", "0"])
        assert len(mock.calls) == 1
    assert code == 4
    line, last = err.getvalue().splitlines()
    assert line.startswith("ingest: ") and line.count("aa.wikipedia/X") == 1, line
    assert fault in line
    assert last == "wikivote: every page fetch failed"
    assert out.getvalue() == ""
