"""Metamorphic relations at the command level: input changes that must leave every output unmoved.

Most relations rewrite copies of data/'s party and page-view CSVs. features,
fit --format json and report, run in-process on the copies, must then write
the same bytes as on the originals, manifests aside (they name their inputs),
and predict must write the same predictions where only rows outside every
window changed. attention must write the same rates when page-view rows
more than twice --window-days from the election are added or dropped. One
relation reorders data/'s turnout records, which turnout must then report
record by record in the new order. Every float sum is a math.fsum, so these
relations hold to the byte.
"""

import csv
import json
import random
from datetime import date, timedelta

import pytest

from conftest import DATA_DIR
from wikivote.cli import main
from wikivote.features import ATTENTION_WINDOW_DAYS, WINDOW_DAYS


def read_csv(name: str) -> list[list[str]]:
    with open(DATA_DIR / name, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def write_csv(path, table: list[list[str]]) -> str:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(table)
    return str(path)


def outputs(parties, pageviews, out, window_days=WINDOW_DAYS) -> dict[str, bytes]:
    """{file: bytes} of features, fit --format json and report on the two CSV tables."""
    out.mkdir()
    inputs = ["--dataset", write_csv(out / "parties.csv", parties),
              "--pageviews", write_csv(out / "pageviews.csv", pageviews),
              "--window-days", str(window_days)]
    for argv in (["features", *inputs, "--out", str(out / "features" / "features.csv")],
                 ["fit", *inputs, "--format", "json", "--output-dir", str(out / "fit")],
                 ["report", *inputs, "--output-dir", str(out / "report")]):
        assert main(argv) == 0, argv
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.glob("*/*")) if path.name != "manifest.json"}


def shuffle_rows(table, rng):
    rows = table[1:]
    rng.shuffle(rows)
    return [table[0], *rows]


def reorder_columns(table, rng):
    """The columns in a random order, and an extra column the loaders must ignore."""
    order = list(range(len(table[0])))
    rng.shuffle(order)
    return [[row[i] for i in order] + [extra]
            for row, extra in zip(table, ["comment", *map(str, range(len(table) - 1))])]


def party_windows(parties) -> dict[tuple[str, str], set[date]]:
    """Per page, the days of every window a party row reads it over."""
    header, *rows = parties
    project, title, day = (header.index(c) for c in ("wiki_project", "wiki_page_title",
                                                     "election_date"))
    windows: dict[tuple[str, str], set[date]] = {}
    for row in rows:
        election = date.fromisoformat(row[day])
        windows.setdefault((row[project], row[title]), set()).update(
            election - timedelta(days=k) for k in range(1, WINDOW_DAYS + 1))
    return windows


def scale_outside_windows(parties, pageviews):
    """Triple every count outside every window of its page; add a page no party names."""
    windows = party_windows(parties)
    assert list(pageviews[0]) == ["wiki_project", "page_title", "date", "views"]
    scaled = [pageviews[0]]
    for project, title, day, views in pageviews[1:]:
        inside = date.fromisoformat(day) in windows[project, title]
        scaled.append([project, title, day, views if inside else str(3 * int(views))])
    scaled += [["zz.wikipedia", "Named by no party", day, str(1000 + i)]
               for i, day in enumerate(sorted({row[2] for row in pageviews[1:]}))]
    return parties, scaled


def scale_column(table, name: str, c: int):
    """The integer column `name` multiplied by c."""
    i = table[0].index(name)
    return [table[0], *([*row[:i], str(c * int(row[i])), *row[i + 1:]] for row in table[1:])]


RELATIONS = {
    "shuffled-rows": lambda parties, pageviews: (
        shuffle_rows(parties, random.Random(1)), shuffle_rows(pageviews, random.Random(2))),
    "reordered-columns": lambda parties, pageviews: (
        reorder_columns(parties, random.Random(3)), reorder_columns(pageviews, random.Random(4))),
    "scaled-outside-windows": scale_outside_windows,
    # every share is one correctly rounded division of the same rational, as the
    # products and totals stay far below 2**53
    **{f"counts-times-{c}": lambda parties, pageviews, c=c: (
        scale_column(parties, "news_mentions", c), scale_column(pageviews, "views", c))
       for c in (3, 7, 1000)},
}


@pytest.fixture(scope="module")
def inputs():
    return read_csv("demo_parties.csv"), read_csv("demo_pageviews.csv")


@pytest.fixture(scope="module")
def original(inputs, tmp_path_factory):
    return outputs(*inputs, tmp_path_factory.mktemp("metamorphic") / "original")


@pytest.mark.parametrize("relation", RELATIONS.values(), ids=RELATIONS)
def test_outputs_are_byte_identical(inputs, original, relation, tmp_path):
    changed = outputs(*relation(*inputs), tmp_path / "changed")
    assert len(original) == 13
    assert list(changed) == list(original)
    assert [name for name in original if changed[name] != original[name]] == []


def test_a_wider_window_reads_the_scaled_counts(inputs, tmp_path):
    # the scaled-outside-windows relation is not empty: a day-wider window sees its change
    before, after = (
        outputs(*tables, tmp_path / name, window_days=WINDOW_DAYS + 1)["features/features.csv"]
        for name, tables in (("before", inputs), ("after", scale_outside_windows(*inputs))))
    assert before != after


SCENARIO = [["party_id", "news_share", "wiki_share", "new_party", "incumbent"],
            ["x1", "20.0", "25.0", "0", "1"], ["x2", "5.5", "12.0", "1", "0"]]


def predictions(parties, pageviews, out, model) -> bytes:
    out.mkdir()
    argv = ["predict", "--dataset", write_csv(out / "parties.csv", parties),
            "--pageviews", write_csv(out / "pageviews.csv", pageviews),
            "--scenario", write_csv(out / "scenario.csv", SCENARIO), "--model", model,
            "--out", str(out / "predict.csv")]
    assert main(argv) == 0
    return (out / "predict.csv").read_bytes()


@pytest.mark.parametrize("model", ["1.1", "2.3"])
def test_predictions_ignore_rows_outside_every_window(inputs, tmp_path, model):
    original = predictions(*inputs, tmp_path / "original", model)
    assert original.count(b"\n") == 3
    assert predictions(*scale_outside_windows(*inputs), tmp_path / "changed", model) == original


def attention_rates(pageviews, out, window_days) -> bytes:
    argv = ["attention", "--pageviews", write_csv(out.with_suffix(".csv"), pageviews),
            "--election-date", "2014-05-25", "--window-days", str(window_days),
            "--output-dir", str(out)]
    assert main(argv) == 0
    return (out / "attention_dynamics.json").read_bytes()


@pytest.mark.parametrize("window_days", [ATTENTION_WINDOW_DAYS, 10])
def test_attention_rates_ignore_rows_beyond_twice_the_window(tmp_path, capsys, window_days):
    # the fit windows hang off a peak inside the search window, so they end
    # within 2 * window_days of the election
    pageviews = read_csv("demo_general_pages.csv")
    election = date(2014, 5, 25)
    offsets = [(date.fromisoformat(row[2]) - election).days for row in pageviews[1:]]
    near = [pageviews[0], *(row for row, k in zip(pageviews[1:], offsets)
                            if abs(k) <= 2 * window_days)]
    # a view a day on window_days days past both ends of the data and of 2 * window_days
    first = max(2 * window_days, *map(abs, offsets)) + 1
    pages = dict.fromkeys((project, title) for project, title, *_ in pageviews[1:])
    added = [*pageviews, *([project, title, str(election + timedelta(days=sign * k)), "1"]
                           for project, title in pages for sign in (-1, 1)
                           for k in range(first, first + window_days))]
    tables = {"original": pageviews, "dropped": near, "added": added}
    rates = {name: attention_rates(table, tmp_path / name, window_days)
             for name, table in tables.items()}
    capsys.readouterr()
    assert b'"status": "ok"' in rates["original"]
    assert rates["dropped"] == rates["added"] == rates["original"]
    # the relation is not empty: rows were added, and at window_days 10 dropped
    assert len(added) > len(pageviews)
    assert (len(near) < len(pageviews)) == (window_days == 10)


def turnout_json(table, path) -> dict:
    out = path.with_suffix(".json")
    argv = ["turnout", "--records", write_csv(path, table), "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    return json.loads(out.read_text())


def test_shuffled_turnout_records_keep_their_values_in_the_new_order(tmp_path):
    table = read_csv("demo_turnout.csv")
    shuffled = shuffle_rows(table, random.Random(5))
    edition = table[0].index("language_edition")
    order = [row[edition] for row in shuffled[1:]]
    assert order != [row[edition] for row in table[1:]]
    original = turnout_json(table, tmp_path / "original.csv")
    changed = turnout_json(shuffled, tmp_path / "shuffled.csv")
    by_edition = {ratio["language_edition"]: ratio for ratio in original.pop("ratios")}
    assert changed.pop("ratios") == [by_edition[name] for name in order]
    assert changed == original
