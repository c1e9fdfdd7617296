"""Metamorphic relations at the command level: input changes that must leave every output unmoved.

Each relation rewrites copies of data/'s party and page-view CSVs. features,
fit --format json and report, run in-process on the copies, must then write
the same bytes as on the originals, manifests aside (they name their inputs).
Every float sum is a math.fsum, so these relations hold to the byte.
"""

import csv
import random
from datetime import date, timedelta

import pytest

from conftest import DATA_DIR
from wikivote.cli import main
from wikivote.features import WINDOW_DAYS


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


RELATIONS = {
    "shuffled-rows": lambda parties, pageviews: (
        shuffle_rows(parties, random.Random(1)), shuffle_rows(pageviews, random.Random(2))),
    "reordered-columns": lambda parties, pageviews: (
        reorder_columns(parties, random.Random(3)), reorder_columns(pageviews, random.Random(4))),
    "scaled-outside-windows": scale_outside_windows,
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
