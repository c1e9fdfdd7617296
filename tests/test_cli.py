"""Command-line behavior: formats, exit codes, determinism, partial-file rules."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import re
import stat
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import pytest
import requests
import responses
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (DATA_DIR, FakeResponse, FakeSession, assert_residuals_match_oracle,
                      pageview_payload)
from wikivote import stats
from wikivote.cli import _atomic_write, _atomic_write_chunks, _run, main
from wikivote.features import MODEL_IDS
from wikivote.forecast import TurnoutRatio
from wikivote.ingest import (MAX_BACKOFF_BASE, MAX_IN_FLIGHT, MAX_RETRY_LIMIT, FetchPolicy,
                             PageViewSeries, render_pageviews_csv)

PARTIES = str(DATA_DIR / "demo_parties.csv")
PAGEVIEWS = str(DATA_DIR / "demo_pageviews.csv")
GENERAL = str(DATA_DIR / "demo_general_pages.csv")
TURNOUT = str(DATA_DIR / "demo_turnout.csv")

CELL = re.compile(r"^-?\d+\.\d{2}(\*{1,3}|†)? \(\d+\.\d{2}\)$")

PARTY_HEADER = (
    "country,election_date,party_id,name_english,name_local,abbreviation,"
    "is_new,is_incumbent,vote_share,prev_vote_share,news_mentions,"
    "wiki_project,wiki_page_title\n"
)


def fit_args(out_dir, models="1.0,1.1", extra=()):
    return [
        "fit", "--dataset", PARTIES, "--pageviews", PAGEVIEWS,
        "--models", models, "--output-dir", str(out_dir), *extra,
    ]


class TestFit:
    def test_text_table_cells(self, tmp_path, capsys):
        assert main(fit_args(tmp_path / "out")) == 0
        table = (tmp_path / "out" / "fit_table.txt").read_text()
        assert table == capsys.readouterr().out
        lines = table.splitlines()
        assert lines[0].startswith("Term")
        assert "Model 1.0" in lines[0] and "Model 1.1" in lines[0]
        # every populated coefficient cell reads like "0.66*** (0.09)"
        news_line = next(l for l in lines if l.startswith("News "))
        cells = [c.strip() for c in re.split(r"\s{2,}", news_line)[1:] if c.strip()]
        assert len(cells) == 2
        for cell in cells:
            assert CELL.match(cell), cell

    def test_table_cells_agree_with_json(self, tmp_path):
        main(fit_args(tmp_path / "out"))
        doc = json.loads((tmp_path / "out" / "model_1.0.json").read_text())
        news = next(t for t in doc["terms"] if t["name"] == "News")
        expected = f"{news['beta']:.2f}{news['stars']} ({news['se']:.2f})"
        table = (tmp_path / "out" / "fit_table.txt").read_text()
        assert expected in table

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        main(fit_args(tmp_path / "a", models="1.0,2.1"))
        main(fit_args(tmp_path / "b", models="1.0,2.1"))
        for name in ("model_1.0.json", "model_2.1.json", "fit_table.txt", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_json_format_writes_full_precision(self, tmp_path):
        main(fit_args(tmp_path / "out", models="1.1", extra=("--format", "json")))
        doc = json.loads((tmp_path / "out" / "fit_table.json").read_text())
        assert doc[0]["spec"] == "1.1"
        assert isinstance(doc[0]["terms"][1]["beta"], float)

    def test_csv_format_has_one_row_per_model_term_as_in_the_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(fit_args(out, models="1.0,2.3", extra=("--format", "csv"))) == 0
        capsys.readouterr()
        with open(out / "fit_table.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        expected = []
        for model in ("1.0", "2.3"):
            doc = json.loads((out / f"model_{model}.json").read_text())
            expected += [{"model": model, "term": term["name"], "beta": term["beta"],
                          "se": term["se"], "t": term["t"], "p": term["p"],
                          "stars": term["stars"], "r2": doc["r2"], "adj_r2": doc["adj_r2"],
                          "n": doc["n"]} for term in doc["terms"]]
        # every number is written at full precision: it reads back to the JSON's value
        assert [{**row, **{key: float(row[key]) for key in ("beta", "se", "t", "p", "r2",
                                                             "adj_r2")}, "n": int(row["n"])}
                for row in rows] == expected

    def test_all_eight_models_by_default(self, tmp_path, capsys):
        assert main(fit_args(tmp_path / "out", models=",".join(
            ["1.0", "1.1", "1.2", "1.3", "2.0", "2.1", "2.2", "2.3"]
        ))) == 0
        capsys.readouterr()
        names = {p.name for p in (tmp_path / "out").glob("model_*.json")}
        assert len(names) == 8

    @pytest.mark.parametrize("models,factorisations", [
        ("1.0,1.1,1.2,1.3,2.0,2.1,2.2,2.3", 4), ("1.1,2.1", 1), ("1.0,1.1", 2)])
    def test_each_design_is_factored_once(self, tmp_path, capsys, monkeypatch, models,
                                          factorisations):
        # 1.k and 2.k share rows and terms, so they share one design and its QR
        calls = []
        factor = stats.householder_qr
        monkeypatch.setattr(stats, "householder_qr", lambda a: calls.append(a) or factor(a))
        assert main(fit_args(tmp_path / "out", models=models)) == 0
        capsys.readouterr()
        assert len(calls) == factorisations

    def test_one_sided_p_is_half_the_two_sided_and_starred_by_it(self, tmp_path, capsys):
        for sides in ("two", "one"):
            assert main(fit_args(tmp_path / sides, models=",".join(MODEL_IDS),
                                 extra=("--format", "json", "--sides", sides))) == 0
        capsys.readouterr()
        one, two = (json.loads((tmp_path / sides / "fit_table.json").read_text())
                    for sides in ("one", "two"))
        pairs = [(a, b) for x, y in zip(one, two) for a, b in zip(x["terms"], y["terms"])]
        assert len(pairs) == 48
        for a, b in pairs:
            assert a["p"] == b["p"] / 2
            assert a["stars"] == stats.significance_stars(a["p"])
            assert [a[key] for key in ("name", "beta", "se", "t")] == [
                b[key] for key in ("name", "beta", "se", "t")]
        assert sum(a["stars"] != b["stars"] for a, b in pairs) == 10

    def test_rank_deficient_design_fails_naming_the_column(self, tmp_path, capsys):
        # every small party out of government: model 1.2's incumbency columns are all 0
        with open(PARTIES, newline="", encoding="utf-8") as handle:
            table = list(csv.DictReader(handle))
        for row in table:
            if float(row["vote_share"]) < 15.0:
                row["is_incumbent"] = "0"
        dataset = tmp_path / "parties.csv"
        with open(dataset, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(table[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(table)
        out = tmp_path / "out"
        assert main(["fit", "--dataset", str(dataset), "--pageviews", PAGEVIEWS,
                     "--output-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "wikivote: warning: model 1.2: column 'Incumbency' is constant\n"
            "wikivote: warning: model 1.2: column 'News x Incumbency' is constant\n"
            "wikivote: model 1.2: design matrix is rank deficient in column 'Incumbency'\n")
        assert [path.name for path in out.iterdir()] == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["status"] == "error"

    def test_unknown_model_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(fit_args(tmp_path / "out", models="9.9"))
        assert excinfo.value.code == 2
        assert "valid ids" in capsys.readouterr().err

    def test_manifest_has_no_timestamps(self, tmp_path):
        main(fit_args(tmp_path / "out"))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert set(manifest) == {"command", "config", "status", "outputs", "errors"}
        assert manifest["status"] == "ok"
        assert manifest["config"]["window_days"] == 7

    def test_failed_fit_leaves_no_model_files(self, tmp_path, capsys):
        # constant vote change makes the 2.0 response degenerate
        rows = [
            f"Arcadia,2014-05-25,p{i},P{i},P{i},P{i},0,{1 if i == 0 else 0},"
            f"{10.0 + 2 * i:.1f},{8.0 + 2 * i:.1f},{100 + 40 * i},"
            f"aa.wikipedia,Page {i}\n"
            for i in range(6)
        ]
        dataset = tmp_path / "flat.csv"
        dataset.write_text(PARTY_HEADER + "".join(rows))
        views = tmp_path / "views.csv"
        lines = ["wiki_project,page_title,date,views\n"]
        for i in range(6):
            for day in range(18, 25):
                lines.append(f"aa.wikipedia,Page {i},2014-05-{day},{100 + 10 * i}\n")
        views.write_text("".join(lines))

        out = tmp_path / "out"
        code = main([
            "fit", "--dataset", str(dataset), "--pageviews", str(views),
            "--models", "2.0", "--output-dir", str(out),
        ])
        assert code == 3
        assert "zero variance" in capsys.readouterr().err
        assert not list(out.glob("model_*.json"))
        assert not list(out.glob("fit_table.*"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["outputs"] == []

    def test_header_only_party_file_names_the_model(self, tmp_path, capsys):
        parties = tmp_path / "parties.csv"
        parties.write_text(PARTY_HEADER)
        assert main(["fit", "--dataset", str(parties), "--pageviews", PAGEVIEWS,
                     "--output-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "wikivote: model 1.0: need more rows than columns to fit: n=0, columns=5\n")

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        code = main([
            "fit", "--dataset", str(tmp_path / "absent.csv"),
            "--pageviews", PAGEVIEWS, "--output-dir", str(tmp_path / "out"),
        ])
        capsys.readouterr()
        assert code == 3


class TestFeaturesCommand:
    def test_curation_warnings_are_one_line_each(self, tmp_path, capsys):
        # arc_p5 and arc_p7 stand in one election each: a share cut below 5% is their best
        parties = tmp_path / "parties.csv"
        parties.write_text((DATA_DIR / "demo_parties.csv").read_text()
                           .replace(",ARC5,0,0,5.7,", ",ARC5,0,0,4.2,")
                           .replace(",ARC7,1,0,5.7,", ",ARC7,1,0,4.9,"))
        for _ in range(2):  # a second run in the same process warns again
            assert main(["features", "--dataset", str(parties), "--pageviews", PAGEVIEWS,
                         "--out", str(tmp_path / "features.csv")]) == 0
            assert capsys.readouterr().err == "".join(
                f"wikivote: warning: party {party} (Arcadia) never clears 5.0% (best {best}%); "
                "kept, but outside the usual inclusion rule\n"
                for party, best in (("arc_p5", 4.2), ("arc_p7", 4.9)))

    def test_column_order_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["features", "--dataset", PARTIES, "--pageviews", PAGEVIEWS,
                     "--out", str(a)]) == 0
        main(["features", "--dataset", PARTIES, "--pageviews", PAGEVIEWS,
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == ("party_id,country,election_date,wiki_share,news_share,"
                          "new_party,incumbent,vote_share,vote_change")
        assert len(a.read_text().splitlines()) == 60

    @pytest.mark.parametrize("marked", ["dataset", "pageviews"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, marked):
        path = tmp_path / f"{marked}.csv"
        plain_file = {"dataset": PARTIES, "pageviews": PAGEVIEWS}[marked]
        path.write_bytes(b"\xef\xbb\xbf" + Path(plain_file).read_bytes())
        argv = ["features", "--dataset", PARTIES, "--pageviews", PAGEVIEWS]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, f"--{marked}", str(path)]) == 0
        assert capsys.readouterr().out == plain

    def test_shares_of_counts_past_2_to_the_53_are_correctly_rounded(self, tmp_path, capsys):
        # 2**60 + 100 + 100 is 2**60 + 256 rounded once; a left-to-right float sum loses both 100s
        counts = {"a": 2**60, "b": 100, "c": 100}
        parties, views = tmp_path / "parties.csv", tmp_path / "views.csv"
        parties.write_text(PARTY_HEADER + "".join(
            f"Arcadia,2014-05-25,{p},{p},{p},{p},0,0,{share},{share},{count},aa.wikipedia,{p}\n"
            for (p, count), share in zip(counts.items(), (50.0, 30.0, 20.0))))
        views.write_text("wiki_project,page_title,date,views\n" + "".join(
            f"aa.wikipedia,{p},2014-05-24,{count}\n" for p, count in counts.items()))
        assert main(["features", "--dataset", str(parties), "--pageviews", str(views)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        shares = ["99.99999999999997", "8.673617379884034e-15", "8.673617379884034e-15"]
        assert [row["news_share"] for row in rows] == shares
        assert [row["wiki_share"] for row in rows] == shares

    def test_stdout_when_no_out(self, capsys):
        assert main(["features", "--dataset", PARTIES, "--pageviews", PAGEVIEWS]) == 0
        out = capsys.readouterr().out
        assert out.startswith("party_id,")

    def test_missing_page_series_names_the_observation(self, tmp_path, capsys):
        parties = tmp_path / "parties.csv"
        # the first row with this title is Arcadia 2009-06-07 arc_p1, on line 3
        text = (DATA_DIR / "demo_parties.csv").read_text()
        parties.write_text(text.replace(",Progress Party (Arcadia)\n", ",No Such Page\n", 1))
        assert main(["features", "--dataset", str(parties), "--pageviews", PAGEVIEWS]) == 3
        err = capsys.readouterr().err
        assert "ar.wikipedia/No Such Page (observation Arcadia/2009-06-07/arc_p1)" in err
        assert "datetime.date(" not in err

    @pytest.mark.parametrize("name,edit,message", [
        ("demo_pageviews.csv",
         lambda line: re.sub(r"^(ar\.wikipedia,.*,2009-[0-9-]+),[0-9]+$", r"\1,0", line),
         "group Arcadia/2009-06-07: zero total: cannot compute traffic shares"),
        ("demo_pageviews.csv",
         lambda line: "" if re.match(r"ar\.wikipedia,Green Path Party \(Arcadia\),"
                                     r"2009-0[56]-", line) else line,
         "no data in window [2009-05-31, 2009-06-06] for ar.wikipedia/Green Path Party (Arcadia)"),
        ("demo_parties.csv", lambda line: line.replace(",ARC6,1,0,6.2,,", ",ARC6,1,0,6.2,3.0,"),
         "line 12: malformed party row: arc_p6: a new party cannot carry a prior vote share (3.0)"),
    ], ids=["zero-traffic-group", "empty-window", "new-party-with-prior-share"])
    def test_data_fault_is_one_error_line(self, tmp_path, capsys, name, edit, message):
        inputs = {"demo_parties.csv": PARTIES, "demo_pageviews.csv": PAGEVIEWS}
        # an edit returns the line changed, unchanged, or empty to drop it
        text = (DATA_DIR / name).read_text()
        edited = "".join(f"{line}\n" for line in map(edit, text.splitlines()) if line)
        assert edited != text
        inputs[name] = str(tmp_path / name)
        (tmp_path / name).write_text(edited)
        code = main(["features", "--dataset", inputs["demo_parties.csv"],
                     "--pageviews", inputs["demo_pageviews.csv"]])
        assert (code, capsys.readouterr().err) == (3, f"wikivote: {message}\n")


class TestPredictCommand:
    def scenario(self, tmp_path, rows):
        path = tmp_path / "scenario.csv"
        path.write_text(
            "party_id,news_share,wiki_share,new_party,incumbent\n"
            + "".join(rows)
        )
        return str(path)

    def test_predicts_and_flags(self, tmp_path, capsys):
        scenario = self.scenario(tmp_path, [
            "inside,12.0,12.0,0,0\n",
            "way_out,99.0,99.0,0,0\n",
        ])
        assert main(["predict", "--dataset", PARTIES, "--pageviews", PAGEVIEWS,
                     "--model", "1.1", "--scenario", scenario]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "party_id,predicted,flags"
        inside = dict(zip(("id", "value", "flags"), lines[1].split(",")))
        assert inside["flags"] == ""
        way_out = dict(zip(("id", "value", "flags"), lines[2].split(",")))
        assert "extrapolated" in way_out["flags"]

    def predict_rows(self, tmp_path, capsys, model, rows):
        scenario = self.scenario(tmp_path, rows)
        assert main(["predict", "--dataset", PARTIES, "--pageviews", PAGEVIEWS,
                     "--model", model, "--scenario", scenario]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        return {party: (float(value), flags.split(";"))
                for party, value, flags in (line.split(",") for line in lines)}

    def test_share_model_flags_outside_0_100(self, tmp_path, capsys):
        out = self.predict_rows(tmp_path, capsys, "1.1", [
            "high,400.0,400.0,0,0\n", "low,-400.0,-400.0,1,1\n", "inside,12.0,12.0,0,0\n",
        ])
        assert out["high"][0] > 100.0 and "out_of_range" in out["high"][1]
        assert out["low"][0] < 0.0 and "out_of_range" in out["low"][1]
        assert 0.0 <= out["inside"][0] <= 100.0 and out["inside"][1] == [""]

    def test_change_model_flags_outside_minus_100_100(self, tmp_path, capsys):
        out = self.predict_rows(tmp_path, capsys, "2.3", [
            "low,-400.0,-400.0,1,1\n", "falling,400.0,400.0,0,0\n",
        ])
        assert out["low"][0] < -100.0 and "out_of_range" in out["low"][1]
        # negative but above -100: plausible for a change, not for a share
        assert -100.0 <= out["falling"][0] < 0.0
        assert "out_of_range" not in out["falling"][1]

    def test_wiki_share_ignored_without_wikipedia_terms(self, tmp_path, capsys):
        rows = ["viral,12.0,999.0,0,0\n"]
        assert self.predict_rows(tmp_path, capsys, "1.0", rows)["viral"][1] == [""]
        assert "extrapolated" in self.predict_rows(tmp_path, capsys, "1.1", rows)["viral"][1]

    @pytest.mark.parametrize("model", ["1.3", "2.3"])
    def test_ranges_are_those_of_the_fitted_subset(self, tmp_path, capsys, model):
        # x.3 is fitted on the 35 small-party rows, whose largest wiki_share is under 25
        rows = ["x1,20.0,25.0,0,1\n", "x2,5.5,12.0,1,0\n"]
        out = self.predict_rows(tmp_path, capsys, model, rows)
        assert out["x1"][1] == ["extrapolated"]
        assert out["x2"][1] == [""]

    def test_empty_scenario_gives_header_only(self, tmp_path, capsys):
        scenario = self.scenario(tmp_path, [])
        assert main(["predict", "--dataset", PARTIES, "--pageviews", PAGEVIEWS,
                     "--scenario", scenario]) == 0
        assert capsys.readouterr().out == "party_id,predicted,flags\n"

    def test_missing_scenario_column_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "scenario.csv"
        path.write_text("party_id,news_share\nx,5.0\n")
        code = main(["predict", "--dataset", PARTIES, "--pageviews", PAGEVIEWS,
                     "--scenario", str(path)])
        capsys.readouterr()
        assert code == 3


class TestTurnoutCommand:
    def test_text_summary(self, capsys):
        assert main(["turnout", "--records", TURNOUT]) == 0
        out = capsys.readouterr().out
        assert "r = 0.72 over n = 12" in out
        assert "adjusted R^2 = 0.47" in out
        assert "excluded outliers: lang13, lang14" in out

    def test_one_sided_halves_p(self, tmp_path):
        a, b = tmp_path / "two.json", tmp_path / "one.json"
        main(["turnout", "--records", TURNOUT, "--format", "json", "--out", str(a)])
        main(["turnout", "--records", TURNOUT, "--format", "json",
              "--sides", "one", "--out", str(b)])
        two = json.loads(a.read_text())
        one = json.loads(b.read_text())
        assert one["p_value"] == pytest.approx(two["p_value"] / 2.0, rel=1e-12)
        assert two["r"] == pytest.approx(one["r"], abs=0.0)

    def test_json_ratio_table(self, tmp_path):
        out = tmp_path / "t.json"
        main(["turnout", "--records", TURNOUT, "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["n"] == 12
        assert len(doc["ratios"]) == 14
        outliers = [r for r in doc["ratios"] if r["outlier"]]
        assert {r["language_edition"] for r in outliers} == {"lang13", "lang14"}
        assert all(r["studentized_residual"] is None for r in outliers)

    def test_view_change_spanning_twelve_orders_is_not_rank_deficient(self, tmp_path):
        # views changes from -0.9 to ~1e12: a relative rank test on the [1, x]
        # design weighed the intercept against x's scale and called it dependent
        path, out = tmp_path / "records.csv", tmp_path / "t.json"
        path.write_text(INPUT_KINDS["turnout"][0] + "lang01,1,1000000000000,50.0,52.0,0\n"
                        "lang02,10,1,50.0,49.0,0\nlang03,7,8,50.0,51.0,0\nlang04,5,6,50.0,50.5,0\n")
        assert main(["turnout", "--records", str(path), "--format", "json",
                     "--out", str(out)]) == 0
        ratios = [TurnoutRatio(**ratio) for ratio in json.loads(out.read_text())["ratios"]]
        # lang01's leverage rounds to 1, so rounding decides its residual: it is null
        assert assert_residuals_match_oracle(ratios) == 3

    def test_text_columns_widen_to_their_widest_cell(self, tmp_path, capsys):
        # a 12-character edition id and an 18-character view change
        path = tmp_path / "records.csv"
        path.write_text(INPUT_KINDS["turnout"][0] + "zh-classical,1,1000000000000,50.0,52.0,0\n"
                        "lang02,10,1,50.0,49.0,0\nlang03,7,8,50.0,51.0,0\nlang04,5,6,50.0,50.5,1\n")
        assert main(["turnout", "--records", str(path)]) == 0
        header, rule, *rows = capsys.readouterr().out.split("\n\n")[0].splitlines()
        spans = [match.span() for match in re.finditer("-+", rule)]
        assert [end - start for start, end in spans] == [12, 18, 14, 7, 11]
        cells = [[line[start:end] for start, end in spans] for line in (header, *rows)]
        assert [cell.strip() for cell in cells[1]] == [
            "zh-classical", "+999999999999.0000", "+0.0400", "no", ""]
        for line, row in zip((header, *rows), cells):
            assert line == "  ".join(row)  # two spaces between columns, nothing beyond
            assert row[0] == row[0].strip().ljust(12) and row[3] == row[3].strip().ljust(7)
            for right in (row[1], row[2], row[4]):
                assert right == right.strip().rjust(len(right))

    def test_header_only_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(INPUT_KINDS["turnout"][0])
        assert main(["turnout", "--records", str(path)]) == 3
        assert capsys.readouterr().err == (
            "wikivote: need at least 3 non-outlier records, got 0\n")

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, output):
        # spreadsheet "CSV UTF-8" exports start with EF BB BF
        marked = tmp_path / "turnout.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (DATA_DIR / "demo_turnout.csv").read_bytes())
        assert main(["turnout", "--records", TURNOUT, "--format", output]) == 0
        plain = capsys.readouterr().out
        assert main(["turnout", "--records", str(marked), "--format", output]) == 0
        assert capsys.readouterr().out == plain

    def test_malformed_records_are_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "language_edition,views_prev,views_curr,turnout_prev,turnout_curr,outlier\n"
            "lang01,not_a_number,2,50.0,51.0,0\n"
        )
        code = main(["turnout", "--records", str(path)])
        capsys.readouterr()
        assert code == 3


class TestAttentionCommand:
    def test_batch_writes_rates_and_series(self, tmp_path, capsys):
        out = tmp_path / "att"
        assert main(["attention", "--pageviews", GENERAL,
                     "--election-date", "2014-05-25", "--output-dir", str(out)]) == 0
        capsys.readouterr()
        rates = json.loads((out / "attention_dynamics.json").read_text())
        assert len(rates) == 14
        assert all(r["status"] == "ok" for r in rates)
        for r in rates:
            assert r["lambda_down"] > r["lambda_up"] > 0.0
        assert all(re.fullmatch(r"\d{4}-\d{2}-\d{2}", r["peak_date"]) for r in rates)
        series_csv = (out / "attention_series.csv").read_text().splitlines()
        assert series_csv[0] == "series_id,date,views,log_views"
        assert len(series_csv) == 1 + 14 * 71

    def test_quoted_title_rows_match_csv_writer(self, tmp_path, capsys):
        # the series id needs CSV quoting; every other plot cell is plain text
        title = 'Party "Unity", Reformed'
        views = tmp_path / "views.csv"
        with open(views, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["wiki_project", "page_title", "date", "views"])
            # a hump that peaks on 2014-05-16, after a day with no views
            counts = [0, *range(1000, 8500, 500), *range(7600, 1500, -400)]
            writer.writerows(["aa.wikipedia", title, f"2014-05-{day:02d}", count]
                             for day, count in zip(range(1, 32), counts))
        out = tmp_path / "att"
        assert main(["attention", "--pageviews", str(views), "--election-date", "2014-05-16",
                     "--window-days", "15", "--output-dir", str(out)]) == 0
        capsys.readouterr()
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["series_id", "date", "views", "log_views"])
        writer.writerow([f"aa.wikipedia:{title}", "2014-05-01", 0, ""])
        writer.writerow([f"aa.wikipedia:{title}", "2014-05-02", 1000, repr(math.log(1000))])
        text = (out / "attention_series.csv").read_text(encoding="utf-8")
        assert text.startswith(expected.getvalue())
        assert text.count("\n") == 32

    def test_partial_failure_still_succeeds(self, tmp_path, capsys):
        views = tmp_path / "views.csv"
        lines = ["wiki_project,page_title,date,views\n"]
        # a usable hump plus a series with nothing near the election
        for day in range(1, 29):
            lines.append(f"aa.wikipedia,Good,2014-05-{day:02d},{1000 + day * 50}\n")
        for day in range(10, 20):
            lines.append(f"aa.wikipedia,Good,2014-06-{day:02d},{200 - day}\n")
        lines.append("bb.wikipedia,Stale,2013-01-01,500\n")
        views.write_text("".join(lines))
        out = tmp_path / "att"
        code = main(["attention", "--pageviews", str(views),
                     "--election-date", "2014-05-25", "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 0
        assert "1 failed" in err
        rates = json.loads((out / "attention_dynamics.json").read_text())
        by_id = {r["series_id"]: r for r in rates}
        assert by_id["aa.wikipedia:Good"]["status"] == "ok"
        assert by_id["bb.wikipedia:Stale"]["status"] == "error"

    def test_rate_fit_error_names_series_and_side(self, tmp_path, capsys):
        views = tmp_path / "views.csv"
        lines = ["wiki_project,page_title,date,views\n"]
        for day in range(1, 29):
            lines.append(f"aa.wikipedia,Good,2014-05-{day:02d},{1000 + day * 50}\n")
        for day in range(10, 20):
            lines.append(f"aa.wikipedia,Good,2014-06-{day:02d},{200 - day}\n")
        # no views before its peak on the election day
        for day in range(1, 31):
            views_on_day = 0 if day < 25 else 5000 - 100 * day
            lines.append(f"bb.wikipedia,Late,2014-05-{day:02d},{views_on_day}\n")
        views.write_text("".join(lines))
        out = tmp_path / "att"
        assert main(["attention", "--pageviews", str(views), "--election-date", "2014-05-25",
                     "--output-dir", str(out)]) == 0
        capsys.readouterr()
        message = ("bb.wikipedia/Late: build-up: fewer than 5 positive-count days for the "
                   "rate fit")
        by_id = {r["series_id"]: r for r in
                 json.loads((out / "attention_dynamics.json").read_text())}
        assert by_id["bb.wikipedia:Late"] == {
            "series_id": "bb.wikipedia:Late", "status": "error", "error": message}
        assert json.loads((out / "manifest.json").read_text())["errors"] == [message]

    def test_header_only_file_writes_empty_outputs(self, tmp_path, capsys):
        views = tmp_path / "views.csv"
        views.write_text("wiki_project,page_title,date,views\n")
        out = tmp_path / "att"
        assert main(["attention", "--pageviews", str(views), "--election-date", "2014-05-25",
                     "--output-dir", str(out)]) == 0
        assert capsys.readouterr().err == "attention: 0 series analysed, 0 failed\n"
        assert (out / "attention_dynamics.json").read_text() == "[]\n"
        assert (out / "attention_series.csv").read_text() == "series_id,date,views,log_views\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok" and manifest["errors"] == []
        assert manifest["outputs"] == ["attention_dynamics.json", "attention_series.csv"]

    def test_plot_csv_is_not_held_whole(self, tmp_path, capsys):
        # 300 pages of a year each: a hump on the election near a baseline of a few views
        rng = random.Random(1)
        days = [(date(2014, 1, 1) + timedelta(days=i)).isoformat() for i in range(365)]
        lines = ["wiki_project,page_title,date,views\n"]
        for page in range(300):
            peak, up, down = rng.uniform(3e5, 1e6), rng.uniform(0.08, 0.15), rng.uniform(0.15, 0.3)
            for i, day in enumerate(days):
                rate = up if i <= 143 else down
                views = round(2 + peak * math.exp(-rate * abs(i - 143)) * rng.uniform(0.98, 1.02))
                lines.append(f"aa.wikipedia,Party {page},{day},{views}\n")
        views_csv = tmp_path / "views.csv"
        views_csv.write_text("".join(lines))
        del lines
        out = tmp_path / "att"
        tracemalloc.start()
        try:
            code = main(["attention", "--pageviews", str(views_csv),
                         "--election-date", "2014-05-25", "--output-dir", str(out)])
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().err == "attention: 300 series analysed, 0 failed\n"
        size = (out / "attention_series.csv").stat().st_size
        # holding the text whole, as one str and then its UTF-8 bytes, peaks at over 2.5x
        assert peak_bytes < 1.5 * size, (peak_bytes, size)

    def test_all_failures_is_data_error(self, tmp_path, capsys):
        views = tmp_path / "views.csv"
        views.write_text(
            "wiki_project,page_title,date,views\n"
            "aa.wikipedia,Stale,2013-01-01,500\n"
            "bb.wikipedia,Older,2012-01-01,70\n"
        )
        code = main(["attention", "--pageviews", str(views),
                     "--election-date", "2014-05-25",
                     "--output-dir", str(tmp_path / "att")])
        capsys.readouterr()
        assert code == 3
        manifest = json.loads((tmp_path / "att" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["outputs"] == []
        assert manifest["errors"] == [
            "aa.wikipedia/Stale: no data within 30 days of 2014-05-25",
            "bb.wikipedia/Older: no data within 30 days of 2014-05-25",
        ]


class TestReportCommand:
    def test_writes_shares_correlations_scatter(self, tmp_path):
        out = tmp_path / "rep"
        assert main(["report", "--dataset", PARTIES, "--pageviews", PAGEVIEWS,
                     "--output-dir", str(out)]) == 0
        shares = (out / "report_shares.csv").read_text().splitlines()
        assert len(shares) == 60
        correlations = json.loads((out / "report_correlations.json").read_text())
        assert "news_vs_vote_share" in correlations
        assert correlations["news_vs_vote_share"]["n"] == 59
        assert -1.0 <= correlations["news_vs_wiki"]["r"] <= 1.0
        scatter = (out / "report_scatter.csv").read_text().splitlines()
        assert scatter[0].endswith(",cluster")
        clusters = {line.rsplit(",", 1)[1] for line in scatter[1:]}
        assert clusters == {"new", "incumbent", "other"}

    def test_header_only_party_file_is_data_error(self, tmp_path, capsys):
        # too few rows to correlate is a data error, as in turnout, not a usage error
        parties = tmp_path / "parties.csv"
        parties.write_text(PARTY_HEADER)
        assert main(["report", "--dataset", str(parties), "--pageviews", PAGEVIEWS,
                     "--output-dir", str(tmp_path / "rep")]) == 3
        assert capsys.readouterr().err == (
            "wikivote: news_vs_vote_share: need at least 3 observations, got 0\n")

    def test_failed_correlation_is_named(self, tmp_path, capsys):
        # five parties of one election, two of them under 15%: the small-party pair has 2 rows
        parties = tmp_path / "parties.csv"
        with open(PARTIES, encoding="utf-8") as handle:
            parties.write_text("".join(handle.readlines()[:6]))
        out = tmp_path / "rep"
        assert main(["report", "--dataset", str(parties), "--pageviews", PAGEVIEWS,
                     "--output-dir", str(out)]) == 3
        message = "news_vs_vote_share_small: need at least 3 observations, got 2"
        assert capsys.readouterr().err == f"wikivote: {message}\n"
        assert json.loads((out / "manifest.json").read_text())["errors"] == [message]


class TestOptionErrors:
    @pytest.mark.parametrize("argv,message", [
        (fit_args("out", models="9.9"), "wikivote fit: error: argument --models: unknown model "
         "id(s) 9.9; valid ids: 1.0, 1.1, 1.2, 1.3, 2.0, 2.1, 2.2, 2.3\n"),
        # a repeated id would fit the model twice and write two identical table columns
        (fit_args("out", models="1.0,2.1,1.0"), "wikivote fit: error: argument --models: "
         "repeated model id(s) 1.0\n"),
        (fit_args("out", models=","), "argument --models: unknown model id(s) (none given)"),
        # predict uses only the fit's coefficients, so it takes no --sides
        (["predict", "--dataset", PARTIES, "--pageviews", PAGEVIEWS, "--scenario", "s.csv",
          "--sides", "one"], "wikivote: error: unrecognized arguments: --sides one\n"),
        # an unknown model is named before any input is read, here a missing one
        (["predict", "--dataset", "/nonexistent.csv", "--pageviews", PAGEVIEWS,
          "--scenario", "s.csv", "--model", "9.9"],
         "wikivote predict: error: argument --model: invalid choice: '9.9'"),
    ], ids=["fit-unknown-model", "fit-repeated-model", "fit-no-model", "predict-sides",
            "predict-unknown-model"])
    def test_usage_error_names_the_option(self, argv, message):
        code, err = run(argv)
        assert code == 2
        assert message in err


class TestManifest:
    @pytest.mark.parametrize("argv,config", [
        (["fit", "--dataset", PARTIES, "--pageviews", PAGEVIEWS, "--models", "1.0,2.1"],
         {"dataset": PARTIES, "pageviews": PAGEVIEWS, "window_days": 7,
          "models": ["1.0", "2.1"], "format": "text", "sides": "two"}),
        (["attention", "--pageviews", GENERAL, "--election-date", "2014-05-25"],
         {"pageviews": GENERAL, "election_date": "2014-05-25", "window_days": 30}),
        (["report", "--dataset", PARTIES, "--pageviews", PAGEVIEWS, "--window-days", "6"],
         {"dataset": PARTIES, "pageviews": PAGEVIEWS, "window_days": 6}),
    ], ids=["fit", "attention", "report"])
    def test_config_is_every_option_but_the_output_dir(self, tmp_path, capsys, argv, config):
        assert main([*argv, "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        # in parser order, the order the manifest's bytes depend on
        assert list(manifest["config"].items()) == list(config.items())

    def test_chunked_and_str_files_are_written_in_order(self, tmp_path):
        seen_later_file = []

        def chunks():
            yield "h\n"
            yield "1\n"
            seen_later_file.append((tmp_path / "a.json").exists())

        args = argparse.Namespace(command="demo", output_dir=str(tmp_path), window_days=7)
        with _run(args) as (files, _):
            files["b.csv"] = chunks()
            files["a.json"] = "[]\n"
            assert seen_later_file == []  # chunks are taken only when the file is written
        assert seen_later_file == [False]  # in files order, though "b.csv" sorts last
        assert (tmp_path / "b.csv").read_text() == "h\n1\n"
        assert (tmp_path / "a.json").read_text() == "[]\n"
        assert json.loads((tmp_path / "manifest.json").read_text()) == {
            "command": "demo", "config": {"window_days": 7}, "status": "ok",
            "outputs": ["b.csv", "a.json"], "errors": []}


class TestFailedRun:
    """A failed fit, report or attention run replaces the manifest an earlier
    successful run left in its output directory."""

    @pytest.mark.parametrize("command,pageviews,extra", [
        ("fit", PAGEVIEWS, ["--dataset", PARTIES, "--models", "1.0,1.1"]),
        ("report", PAGEVIEWS, ["--dataset", PARTIES]),
        ("attention", GENERAL, ["--election-date", "2014-05-25"]),
    ], ids=["fit", "report", "attention"])
    def test_missing_input_leaves_an_error_manifest(self, tmp_path, capsys, command,
                                                    pageviews, extra):
        out, missing = tmp_path / "out", tmp_path / "absent.csv"
        assert main([command, *extra, "--pageviews", pageviews, "--output-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["status"] == "ok"
        code = main([command, *extra, "--pageviews", str(missing), "--output-dir", str(out)])
        capsys.readouterr()
        assert code == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["config"]["pageviews"] == str(missing)
        assert manifest["status"] == "error"
        assert manifest["outputs"] == []
        assert len(manifest["errors"]) == 1 and str(missing) in manifest["errors"][0]


class TestAtomicWrite:
    def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "report.csv"
        _atomic_write(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            _atomic_write(path, "new \ud800\n")  # a lone surrogate has no UTF-8 form
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_chunks_that_fail_midway_keep_the_old_file_and_leave_no_temp_file(self, tmp_path):
        path = tmp_path / "series.csv"
        _atomic_write(path, "old\n")

        def chunks():
            yield "header\n"
            yield "row\n" * 10_000  # past the text buffer: some bytes reach the temp file
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            _atomic_write_chunks(path, chunks())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["series.csv"]

    def test_new_files_take_the_umask_and_a_replaced_file_keeps_its_mode(self, tmp_path, capsys):
        def modes():
            return {p.name: stat.S_IMODE(p.stat().st_mode) for p in
                    [tmp_path / "features.csv", *sorted((tmp_path / "report").iterdir())]}

        feature_args = ["--dataset", PARTIES, "--pageviews", PAGEVIEWS]
        report = ["report", *feature_args, "--output-dir", str(tmp_path / "report")]
        umask = os.umask(0o022)
        try:
            assert main(["features", *feature_args, "--out", str(tmp_path / "features.csv")]) == 0
            assert main(report) == 0
            written = modes()
            assert written == dict.fromkeys(
                ["features.csv", "manifest.json", "report_correlations.json",
                 "report_scatter.csv", "report_shares.csv"], 0o644)
            (tmp_path / "report" / "report_shares.csv").chmod(0o640)
            assert main(report) == 0
        finally:
            os.umask(umask)
        assert modes() == {**written, "report_shares.csv": 0o640}


EMPTY_PAGE_CELL = "malformed page list row: empty wiki_project or page_title"


class TestIngestCommand:
    def test_unreachable_endpoint_is_network_error(self, monkeypatch, capsys):
        monkeypatch.setenv("WIKIVOTE_PAGEVIEWS_BASE_URL", "http://127.0.0.1:9/views")
        code = main([
            "ingest", "--project", "aa.wikipedia", "--title", "Unity Party",
            "--start", "2014-05-18", "--end", "2014-05-24",
            "--retry-limit", "0", "--backoff-base", "0",
        ])
        err = capsys.readouterr().err
        assert code == 4
        assert "Unity Party" in err

    @pytest.mark.parametrize("base", ["-1", "nan", "inf", "1e9", "1e300"])
    @responses.activate
    def test_bad_backoff_base_is_usage_error_before_any_request(self, base):
        code, err = run([
            "ingest", "--project", "aa.wikipedia", "--title", "Unity Party",
            "--start", "2014-05-18", "--end", "2014-05-24", "--backoff-base", base,
        ])
        assert code == 2
        assert "backoff_base must be a finite number >= 0" in err
        assert len(responses.calls) == 0

    @pytest.mark.parametrize("value", ["0", str(MAX_IN_FLIGHT + 1)])
    @responses.activate
    def test_max_in_flight_out_of_range_is_usage_error_before_any_request(self, value):
        code, err = run([
            "ingest", "--project", "aa.wikipedia", "--title", "Unity Party",
            "--start", "2014-05-18", "--end", "2014-05-24", "--max-in-flight", value,
        ])
        assert code == 2
        assert f"max_in_flight must be from 1 to {MAX_IN_FLIGHT}, got {value}" in err
        assert len(responses.calls) == 0

    @pytest.mark.parametrize("value,message", [
        pytest.param(str(MAX_RETRY_LIMIT + 1),
                     f"retry_limit must be from 0 to {MAX_RETRY_LIMIT}, got {MAX_RETRY_LIMIT + 1}",
                     id=str(MAX_RETRY_LIMIT + 1)),
        # beyond 2**63 - 1, ascii_int rejects it as it rejects such a count cell
        pytest.param("99999999999999999999",
                     "argument --retry-limit: a 20-digit count is too large (at most 2**63 - 1)",
                     id="99999999999999999999"),
    ])
    @responses.activate
    def test_retry_limit_above_the_bound_is_usage_error_before_any_request(self, value, message):
        code, err = run([
            "ingest", "--project", "aa.wikipedia", "--title", "Unity Party",
            "--start", "2014-05-18", "--end", "2014-05-24", "--retry-limit", value,
        ])
        assert code == 2
        assert message in err
        assert len(responses.calls) == 0

    @pytest.mark.parametrize("argv,message", [
        (["--start", "2014-05-18", "--end", "2014-05-24", "--retry-limit", "11"],
         f"wikivote ingest: error: retry_limit must be from 0 to {MAX_RETRY_LIMIT}, got 11\n"),
        (["--start", "2014-05-24", "--end", "2014-05-18"],
         "wikivote ingest: error: --start 2014-05-24 is after --end 2014-05-18\n"),
    ], ids=["retry-limit", "start-after-end"])
    @responses.activate
    def test_usage_error_comes_before_the_page_list_is_read(self, tmp_path, argv, message):
        code, err = run(["ingest", "--pages", str(tmp_path / "absent.csv"), *argv])
        assert code == 2
        assert message in err
        assert len(responses.calls) == 0

    def test_help_states_bounds_and_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest", "--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        policy = FetchPolicy()
        assert f"1 to {MAX_IN_FLIGHT} (default {policy.max_in_flight})" in text
        assert f"0 to {MAX_RETRY_LIMIT} (default {policy.retry_limit})" in text
        assert f"0 to {MAX_BACKOFF_BASE} (default {policy.backoff_base})" in text

    @pytest.mark.parametrize("given", [["--project", "aa.wikipedia"], ["--title", "X"]],
                             ids=["project", "title"])
    @pytest.mark.parametrize("with_pages", [False, True], ids=["alone", "with-pages"])
    @responses.activate
    def test_project_or_title_alone_is_usage_error_before_any_request(self, tmp_path, given,
                                                                       with_pages):
        pages = tmp_path / "pages.csv"
        pages.write_text("wiki_project,page_title\naa.wikipedia,A\n")
        argv = ["ingest", *given, "--start", "2014-05-18", "--end", "2014-05-24"]
        code, err = run([*argv, "--pages", str(pages)] if with_pages else argv)
        assert code == 2
        assert "give --project and --title together" in err
        assert len(responses.calls) == 0

    @responses.activate
    def test_writes_fetched_pages_and_names_the_missing_one(self, tmp_path, capsys, monkeypatch):
        # no injected session: the real requests.Session, answered by responses in-process
        base = "http://127.0.0.1:9/views"
        monkeypatch.setenv("WIKIVOTE_PAGEVIEWS_BASE_URL", base)
        week = {date(2014, 5, 18 + i): 100 + i for i in range(7)}
        path = "all-access/all-agents/{}/daily/2014051800/2014052400"
        responses.get(f"{base}/aa.wikipedia/{path.format('Unity_Party')}",
                      json=pageview_payload(week.items()))
        responses.get(f"{base}/aa.wikipedia/{path.format('Gone')}", status=404)
        pages = tmp_path / "pages.csv"
        pages.write_text("wiki_project,page_title\naa.wikipedia,Unity Party\naa.wikipedia,Gone\n")
        # Unity Party is named by the page list and by --project/--title: fetched once
        code = main(["ingest", "--pages", str(pages), "--project", "aa.wikipedia",
                     "--title", "Unity Party", "--start", "2014-05-18", "--end", "2014-05-24"])
        out, err = capsys.readouterr()
        assert code == 0
        assert out == render_pageviews_csv([PageViewSeries("aa.wikipedia", "Unity Party", week)])
        assert err == "ingest: no page-view record for aa.wikipedia/Gone\n"
        assert len(responses.calls) == 2

    @responses.activate
    def test_page_listed_twice_is_data_error_before_any_request(self, tmp_path, capsys):
        pages = tmp_path / "pages.csv"
        pages.write_text("wiki_project,page_title\naa.wikipedia,A\naa.wikipedia,B\n"
                         "aa.wikipedia,A\n")
        code = main(["ingest", "--pages", str(pages), "--start", "2014-05-18",
                     "--end", "2014-05-24"])
        assert code == 3
        assert capsys.readouterr().err == (
            "wikivote: line 4: duplicate page list row aa.wikipedia/A (first on line 2)\n")
        assert len(responses.calls) == 0

    @pytest.mark.parametrize("rows,message", [
        ("aa.wikipedia,A\n,A\n", f"line 3: {EMPTY_PAGE_CELL}"),
        ("aa.wikipedia,A\naa.wikipedia,\n", f"line 3: {EMPTY_PAGE_CELL}"),
        ("", "page list {} names no page"),
    ], ids=["empty-project", "empty-title", "no-rows"])
    @responses.activate
    def test_page_list_without_a_page_is_data_error_before_any_request(self, tmp_path, rows,
                                                                       message):
        pages = tmp_path / "pages.csv"
        pages.write_text(f"wiki_project,page_title\n{rows}")
        code, err = run(["ingest", "--pages", str(pages), "--start", "2014-05-18",
                         "--end", "2014-05-24"])
        assert (code, err) == (3, f"wikivote: {message.format(pages)}\n")
        assert len(responses.calls) == 0

    @pytest.mark.parametrize("answer,fault", [
        (FakeResponse(200, [{"timestamp": "2014051800", "views": 5}]),
         "the answer is not a JSON object"),
        (FakeResponse(200, {"items": [{"views": 5}]}), "item 0 has no string timestamp"),
        (FakeResponse(200, {"items": None}), "items is not a JSON list"),
        (FakeResponse(200, {"items": ["2014051800"]}), "item 0 is not a JSON object"),
        (FakeResponse(200, text="<html><body>Bad Gateway</body></html>"),
         "the answer is not JSON"),
    ], ids=["list", "no-timestamp", "null-items", "string-item", "html"])
    def test_malformed_answer_names_the_page_and_the_field(self, monkeypatch, capsys, answer,
                                                           fault):
        monkeypatch.setattr(requests, "Session", lambda: FakeSession([answer]))
        code = main(["ingest", "--project", "aa.wikipedia", "--title", "X",
                     "--start", "2014-05-18", "--end", "2014-05-24", "--retry-limit", "0"])
        assert code == 4
        assert capsys.readouterr().err == (f"ingest: aa.wikipedia/X: {fault}\n"
                                           "wikivote: every page fetch failed\n")

    def test_start_after_end_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "ingest", "--project", "aa.wikipedia", "--title", "X",
                "--start", "2014-05-24", "--end", "2014-05-18",
            ])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_page_list_requires_some_source(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest", "--start", "2014-05-18", "--end", "2014-05-24"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_bad_date_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest", "--project", "a", "--title", "b",
                  "--start", "yesterday", "--end", "2014-05-24"])
        assert excinfo.value.code == 2
        capsys.readouterr()


# YYYY-MM-DD in ASCII digits is the only date form; Python 3.11's date.fromisoformat
# also takes the first three
NOT_YYYY_MM_DD = ["20140525", "2014-W21-7", "2014W217", "2014-5-25",
                  "\u0662\u0660\u0661\u0664-05-25"]


class TestStrictDates:
    @pytest.mark.parametrize("text", NOT_YYYY_MM_DD)
    @pytest.mark.parametrize("kind,column", [("parties", "election_date"),
                                             ("pageviews", "date")])
    def test_csv_date_exits_3_naming_line_and_column(self, tmp_path, capsys, kind, column,
                                                    text):
        header, good, argv = INPUT_KINDS[kind]
        path = tmp_path / f"{kind}.csv"
        bad = re.sub(r"\d{4}-\d{2}-\d{2}", lambda _: text, good)
        path.write_text(header + good + bad, encoding="utf-8")
        code = main(argv(str(path)))
        what = "party" if kind == "parties" else "page-view"
        assert code == 3
        assert capsys.readouterr().err == (
            f"wikivote: line 3: malformed {what} row: {column}: "
            f"not a YYYY-MM-DD date: {text!r}\n")

    @pytest.mark.parametrize("text", NOT_YYYY_MM_DD)
    @pytest.mark.parametrize("argv", [
        ["attention", "--pageviews", GENERAL, "--election-date"],
        ["ingest", "--project", "aa.wikipedia", "--title", "X", "--end", "2014-05-24",
         "--start"],
    ], ids=["election-date", "start"])
    def test_date_option_is_usage_error(self, tmp_path, capsys, monkeypatch, argv, text):
        monkeypatch.chdir(tmp_path)  # attention defaults to ./wikivote-out
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, text])
        assert excinfo.value.code == 2
        assert f"not a YYYY-MM-DD date: {text!r}" in capsys.readouterr().err


class TestWindowDays:
    @pytest.mark.parametrize("value", ["0", "-3", "seven"])
    @pytest.mark.parametrize("command", [
        ["features", "--dataset", PARTIES, "--pageviews", PAGEVIEWS],
        ["fit", "--dataset", PARTIES, "--pageviews", PAGEVIEWS],
        ["predict", "--dataset", PARTIES, "--pageviews", PAGEVIEWS, "--scenario", "s.csv"],
        ["report", "--dataset", PARTIES, "--pageviews", PAGEVIEWS],
        ["attention", "--pageviews", GENERAL, "--election-date", "2014-05-25"],
    ], ids=lambda argv: argv[0])
    def test_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch, command, value):
        monkeypatch.chdir(tmp_path)  # fit, report and attention default to ./wikivote-out
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--window-days", value])
        assert excinfo.value.code == 2
        assert "--window-days" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,window", [
        (["features", "--dataset", PARTIES, "--pageviews", PAGEVIEWS, "--window-days", "800000"],
         "ar.wikipedia/Unity Party (Arcadia): window 2009-06-07 -800000 to -1 days"),
        (["attention", "--pageviews", GENERAL, "--election-date", "0001-01-02"],
         "lang01.wikipedia/Parliament election: window 0001-01-02 -30 to +30 days"),
        (["attention", "--pageviews", GENERAL, "--election-date", "2014-05-25",
          "--window-days", "99999999999"],
         "lang01.wikipedia/Parliament election: window 2014-05-25 -99999999999 to +99999999999 "
         "days"),
        (["features", "--dataset", "early.csv", "--pageviews", PAGEVIEWS],
         "ar.wikipedia/Unity Party (Arcadia): window 0001-01-03 -7 to -1 days"),
    ], ids=["features-window-days", "attention-election-date", "attention-window-days",
            "party-election-date"])
    def test_window_leaving_the_calendar_is_data_error(self, tmp_path, monkeypatch, argv, window):
        monkeypatch.chdir(tmp_path)  # attention defaults to ./wikivote-out
        # every 2009-06-07 group moved to the third day of the calendar
        text = (DATA_DIR / "demo_parties.csv").read_text()
        (tmp_path / "early.csv").write_text(text.replace(",2009-06-07,", ",0001-01-03,"))
        code, err = run(argv)
        assert code == 3
        # attention fails each series on its own, then names the first
        if argv[0] == "attention":
            window = f"attention analysis failed for every series; first: {window}"
        assert err == f"wikivote: {window} leaves the calendar\n"


# file kind -> (header, a valid row, argv that reads the file at the given path)
INPUT_KINDS = {
    "parties": (
        PARTY_HEADER,
        "Arcadia,2014-05-25,p1,A,A,A,0,0,20.0,15.0,120,aa.wikipedia,A\n",
        lambda path: ["features", "--dataset", path, "--pageviews", PAGEVIEWS],
    ),
    "pageviews": (
        "wiki_project,page_title,date,views\n",
        "aa.wikipedia,X,2014-05-18,5\n",
        lambda path: ["features", "--dataset", PARTIES, "--pageviews", path],
    ),
    "turnout": (
        "language_edition,views_prev,views_curr,turnout_prev,turnout_curr,outlier\n",
        "lang01,100,120,50.0,51.0,0\n",
        lambda path: ["turnout", "--records", path],
    ),
    "scenario": (
        "party_id,news_share,wiki_share,new_party,incumbent\n",
        "a,10.0,10.0,0,0\n",
        lambda path: ["predict", "--dataset", PARTIES, "--pageviews", PAGEVIEWS,
                      "--scenario", path],
    ),
    "pages": (
        "wiki_project,page_title\n",
        "aa.wikipedia,X\n",
        lambda path: ["ingest", "--pages", path, "--start", "2014-05-18",
                      "--end", "2014-05-24", "--retry-limit", "0"],
    ),
}
# (file kind, defect) -> the column to drop, or the malformed row
INPUT_DEFECTS = {
    ("parties", "missing_column"): "news_mentions",
    ("parties", "short_row"): "Arcadia,2014-05-25,p2\n",
    ("parties", "bad_number"): "Arcadia,2014-05-25,p2,B,B,B,0,0,lots,15.0,120,aa.wikipedia,B\n",
    ("parties", "bad_flag"): "Arcadia,2014-05-25,p2,B,B,B,yes,0,20.0,,120,aa.wikipedia,B\n",
    ("parties", "negative_count"): "Arcadia,2014-05-25,p2,B,B,B,0,0,20.0,15.0,-1,aa.wikipedia,B\n",
    ("parties", "duplicate_key"): "Arcadia,2014-05-25,p1,B,B,B,0,0,20.0,15.0,120,aa.wikipedia,B\n",
    ("parties", "not_utf8"): b"Arcadia,2014-05-25,p2,Caf\xe9,B,B,0,0,20.0,15.0,120,aa.wikipedia,B\n",
    ("parties", "nan"): "Arcadia,2014-05-25,p2,B,B,B,0,0,20.0,nan,120,aa.wikipedia,B\n",
    ("parties", "lax_decimal"): "Arcadia,2014-05-25,p2,B,B,B,0,0, 2_9.0 ,,120,aa.wikipedia,B\n",
    ("parties", "no_prior"): "Arcadia,2014-05-25,p2,B,B,B,0,0,20.0,,120,aa.wikipedia,B\n",
    ("pageviews", "missing_column"): "date",
    ("pageviews", "short_row"): "aa.wikipedia,X\n",
    ("pageviews", "bad_number"): "aa.wikipedia,X,2014-05-19,many\n",
    ("pageviews", "duplicate_day"): "aa.wikipedia,X,2014-05-18,7\n",
    ("pageviews", "negative_count"): "aa.wikipedia,X,2014-05-19,-4\n",
    ("pageviews", "not_utf8"): b"aa.wikipedia,Caf\xe9,2014-05-19,5\n",
    ("turnout", "missing_column"): "outlier",
    ("turnout", "short_row"): "lang02,100\n",
    ("turnout", "bad_number"): "lang02,100,abc,50.0,51.0,0\n",
    ("turnout", "bad_flag"): "lang02,100,120,50.0,51.0,yes\n",
    ("turnout", "negative_count"): "lang02,100,-5,50.0,51.0,0\n",
    ("turnout", "lax_decimal"): "lang02,100,120,\u0665\u0660.0,51.0,0\n",
    ("turnout", "duplicate_key"): "lang01,200,220,40.0,41.0,0\n",
    ("scenario", "missing_column"): "incumbent",
    ("scenario", "short_row"): "b,10.0\n",
    ("scenario", "bad_number"): "b,lots,10.0,0,0\n",
    ("scenario", "bad_flag"): "b,10.0,10.0,yes,0\n",
    ("scenario", "inf"): "b,inf,10.0,0,0\n",
    ("scenario", "nan"): "b,10.0,nan,0,0\n",
    ("scenario", "lax_decimal"): "b,+10.0,10.0,0,0\n",
    ("pages", "missing_column"): "wiki_project",
    ("pages", "short_row"): "bb.wikipedia\n",
}
# defect -> a fragment its message must hold, beyond the line
DEFECT_MESSAGES = {
    "inf": "must be a finite number",
    "nan": "must be a finite number",
    "lax_decimal": "not a decimal of ASCII digits",
    "duplicate_key": "(first on line 2)",
    "no_prior": "p2: missing prior result",
}


class TestMalformedInputs:
    @pytest.mark.parametrize("kind,defect", list(INPUT_DEFECTS),
                             ids=[f"{k}-{d}" for k, d in INPUT_DEFECTS])
    def test_exit_3_names_the_line(self, tmp_path, capsys, monkeypatch, kind, defect):
        # a refused local port: no page fetch can reach a real host
        monkeypatch.setenv("WIKIVOTE_PAGEVIEWS_BASE_URL", "http://127.0.0.1:9/views")
        header, good, argv = INPUT_KINDS[kind]
        bad = INPUT_DEFECTS[kind, defect]
        path = tmp_path / f"{kind}.csv"
        if defect == "missing_column":
            path.write_text(header.replace(bad, bad.upper()) + good)
        elif defect == "not_utf8":
            path.write_bytes((header + good + "\n").encode() + bad)
        else:
            # the blank line is skipped but still counted: the bad row is line 4
            path.write_text(header + good + "\n" + bad)
        code = main(argv(str(path)))
        err = capsys.readouterr().err
        assert code == 3
        if defect == "missing_column":
            assert "line 1" in err and bad in err
        else:
            assert "line 4" in err
        assert DEFECT_MESSAGES.get(defect, "") in err


# rows after a page boundary (A, A, B): the defect sits on line 5, in page B or back in A
PAGEVIEW_ROW_ERRORS = {
    "first_seen_bad_date": ("aa.wikipedia,B,2014-02-30,5",
                            "malformed page-view row: date: day is out of range for month"),
    "bad_views": ("aa.wikipedia,B,2014-05-19,5x",
                  "malformed page-view row: views: not an integer of ASCII digits: '5x'"),
    "negative_count": ("aa.wikipedia,B,2014-05-19,-4", "negative view count -4"),
    "duplicate_day": ("aa.wikipedia,A,2014-05-18,9",
                      "duplicate day 2014-05-18 for aa.wikipedia/A"),
    "empty_title": ("aa.wikipedia,,2014-05-19,5", "empty wiki_project or page_title"),
}


class TestOverlongField:
    """A cell over the csv module's field limit exits 3 naming its line."""

    def long_row(self):
        return f"aa.wikipedia,{'T' * (csv.field_size_limit() + 1)},2014-05-19,5\n"

    def test_page_view_file(self, tmp_path, capsys):
        path = tmp_path / "views.csv"
        path.write_text("wiki_project,page_title,date,views\naa.wikipedia,A,2014-05-18,1\n"
                        + self.long_row())
        code = main(["attention", "--pageviews", str(path), "--election-date", "2014-05-25",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "wikivote: line 3: malformed page-view row: field larger than field limit")

    def test_page_list(self, tmp_path, capsys, monkeypatch):
        # a refused local port: no page fetch can reach a real host
        monkeypatch.setenv("WIKIVOTE_PAGEVIEWS_BASE_URL", "http://127.0.0.1:9/views")
        path = tmp_path / "pages.csv"
        path.write_text("wiki_project,page_title\n" + self.long_row())
        code = main(["ingest", "--pages", str(path), "--start", "2014-05-18",
                     "--end", "2014-05-24"])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "wikivote: line 2: malformed page list row: field larger than field limit")


class TestPageViewRowErrors:
    @pytest.mark.parametrize("defect", list(PAGEVIEW_ROW_ERRORS))
    def test_exit_3_with_line_and_message(self, tmp_path, capsys, defect):
        row, message = PAGEVIEW_ROW_ERRORS[defect]
        path = tmp_path / "views.csv"
        path.write_text(
            "wiki_project,page_title,date,views\n"
            "aa.wikipedia,A,2014-05-18,1\n"
            "aa.wikipedia,A,2014-05-19,2\n"
            "aa.wikipedia,B,2014-05-18,3\n"
            f"{row}\n"
            "aa.wikipedia,B,2014-05-20,4\n"
        )
        code = main(["attention", "--pageviews", str(path), "--election-date", "2014-05-25",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == f"wikivote: line 5: {message}\n"


# the zero of each digit block a lexically invalid number borrows digits from:
# Arabic-Indic, Extended Arabic-Indic, Devanagari and fullwidth; int() and float() take them all
OTHER_ZEROS = ("\u0660", "\u06f0", "\u0966", "\uff10")
# what a decimal may add to an integer's digits: float() takes each of them
DECIMAL_TAILS = (".5", ".", ".25", "e3", "E-2", ".0e+1")


@st.composite
def lax_numbers(draw, tails=("",)):
    """Number text that int() accepts, or float() with decimal tails, but that
    is not ASCII: an underscore between digits, surrounding whitespace, a
    non-ASCII digit or a + sign."""
    digits = str(draw(st.integers(min_value=0, max_value=10**9)))
    tail = draw(st.sampled_from(tails))
    form = draw(st.sampled_from(["underscore", "space", "non_ascii", "plus"]))
    if form == "underscore":
        digits = digits if len(digits) > 1 else digits + "0"
        i = draw(st.integers(min_value=1, max_value=len(digits) - 1))
        return f"{digits[:i]}_{digits[i:]}{tail}"
    if form == "space":
        before, after = draw(st.sampled_from(
            [(" ", ""), ("", " "), (" ", " "), ("\t", ""), ("", "\u00a0")]))
        return f"{before}{digits}{tail}{after}"
    if form == "non_ascii":
        i = draw(st.integers(min_value=0, max_value=len(digits) - 1))
        zero = ord(draw(st.sampled_from(OTHER_ZEROS)))
        return f"{digits[:i]}{chr(zero + int(digits[i]))}{digits[i + 1:]}{tail}"
    return f"+{digits}{tail}"


@st.composite
def lax_dates(draw):
    """Text that names a day but is not YYYY-MM-DD in ASCII digits: the basic or
    week form (date.fromisoformat takes both on Python 3.11), a one-digit month,
    a non-ASCII digit or surrounding whitespace."""
    day = draw(st.dates(min_value=date(1000, 1, 1)))
    iso = day.isoformat()
    form = draw(st.sampled_from(["basic", "week", "short_month", "non_ascii", "space"]))
    if form == "basic":
        return iso.replace("-", "")
    if form == "week":
        year, week, weekday = day.isocalendar()
        return f"{year:04d}-W{week:02d}-{weekday}"
    if form == "short_month":
        return f"{day.year}-{draw(st.integers(min_value=1, max_value=9))}-{day.day:02d}"
    if form == "non_ascii":
        i = draw(st.sampled_from([0, 1, 2, 3, 5, 6, 8, 9]))
        zero = ord(draw(st.sampled_from(OTHER_ZEROS)))
        return f"{iso[:i]}{chr(zero + int(iso[i]))}{iso[i + 1:]}"
    before, after = draw(st.sampled_from([(" ", ""), ("", " "), ("\t", ""), ("", "\u00a0")]))
    return f"{before}{iso}{after}"


@st.composite
def lax_flags(draw):
    """Flag text other than `0` and `1` that a lenient reader might still take:
    a word, another integer, a padded 0 or 1, or a non-ASCII digit 0 or 1."""
    bit = draw(st.sampled_from("01"))
    form = draw(st.sampled_from(["word", "integer", "padded", "non_ascii"]))
    if form == "word":
        return draw(st.sampled_from(["true", "false", "True", "FALSE", "yes", "no", "on"]))
    if form == "integer":
        return str(draw(st.integers(min_value=2, max_value=10**9)
                        | st.integers(min_value=-10**9, max_value=-1)))
    if form == "padded":
        before, after = draw(st.sampled_from(
            [(" ", ""), ("", " "), ("\t", ""), ("", "\u00a0"), ("0", ""), ("+", ""), ("", ".0")]))
        return f"{before}{bit}{after}"
    return chr(ord(draw(st.sampled_from(OTHER_ZEROS))) + int(bit))


def run(argv) -> tuple[int, str]:
    """main's exit code, argparse's included, and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def with_acceptance_forms(test):
    """The test, with the forms the acceptance criteria name and every fixed
    non-YYYY-MM-DD date form (Python 3.11's date.fromisoformat takes the first
    three) as explicit examples."""
    for integer, decimal, day, flag in zip(
            ("1_010", " 7 ", "\u0661\u0660", "+5", "0_0", "\t12"),
            (" 2_9.0 ", "\u0662\u0665.8", "+5", "1_0e-3", "\t.5", "1_0"),
            ("20140525", "2014-W21-7", "2014W217", "2014-5-25",
             "\u0662\u0660\u0661\u0664-05-25", " 2014-05-25"),
            ("true", "2", " 1", "\u0661", "no", "+1")):
        test = example(integer=integer, decimal=decimal, day=day, flag=flag)(test)
    return test


# columns and options by the kind of value they take; the rest of those tested take integers
DECIMALS = {"vote_share", "prev_vote_share", "turnout_prev", "turnout_curr", "news_share",
            "wiki_share", "--backoff-base"}
DATES = {"date", "election_date", "--start", "--end", "--election-date"}
FLAGS = {"is_new", "is_incumbent", "outlier", "new_party", "incumbent"}


def drawn_cell(column, integer, decimal, day, flag) -> tuple[str, str]:
    """The drawn text of the kind column takes, and what its converter says of it."""
    if column in DATES:
        return day, f"not a YYYY-MM-DD date: {day!r}"
    if column in FLAGS:
        return flag, f"must be 0 or 1, got {flag!r}"
    if column in DECIMALS:
        assert float(decimal) >= 0  # float() takes it: only the strict lexer tells it apart
        return decimal, f"not a decimal of ASCII digits: {decimal!r}"
    assert int(integer) >= 0
    return integer, f"not an integer of ASCII digits: {integer!r}"
BIG = 10**400  # 401 digits: no float holds it
HUGE = "9" * 5000
INGEST = ["ingest", "--project", "aa.wikipedia", "--title", "X", "--start", "2014-05-18",
          "--end", "2014-05-24"]


class TestStrictIntegers:
    """Integer, decimal, date and flag cells and options take ASCII digits only (and
    a `-` where a negative value has its own message); int(), float() and, on
    Python 3.11, date.fromisoformat alone take more."""

    @pytest.mark.parametrize("kind,column", [
        ("pageviews", "views"), ("parties", "news_mentions"),
        ("turnout", "views_prev"), ("turnout", "views_curr"),
        ("parties", "vote_share"), ("parties", "prev_vote_share"),
        ("turnout", "turnout_prev"), ("turnout", "turnout_curr"),
        ("scenario", "news_share"), ("scenario", "wiki_share"),
        ("pageviews", "date"), ("parties", "election_date"),
        ("parties", "is_new"), ("parties", "is_incumbent"), ("turnout", "outlier"),
        ("scenario", "new_party"), ("scenario", "incumbent"),
    ])
    @given(integer=lax_numbers(), decimal=lax_numbers(DECIMAL_TAILS), day=lax_dates(),
           flag=lax_flags())
    @with_acceptance_forms
    @settings(max_examples=30, deadline=None)
    def test_csv_cell_exits_3_naming_line_and_column(self, tmp_path_factory, kind, column,
                                                    integer, decimal, day, flag):
        header, good, argv = INPUT_KINDS[kind]
        text, message = drawn_cell(column, integer, decimal, day, flag)
        bad = next(csv.reader([good]))
        bad[next(csv.reader([header])).index(column)] = text
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow(bad)
        path = tmp_path_factory.mktemp(kind) / f"{kind}.csv"
        path.write_text(header + good + buffer.getvalue(), encoding="utf-8")
        what = {"pageviews": "page-view", "parties": "party"}.get(kind, kind)
        assert run(argv(str(path))) == (
            3, f"wikivote: line 3: malformed {what} row: {column}: {message}\n")

    @pytest.mark.parametrize("argv", [
        [*INGEST, "--max-in-flight"],
        [*INGEST, "--retry-limit"],
        ["features", "--dataset", PARTIES, "--pageviews", PAGEVIEWS, "--window-days"],
        [*INGEST, "--backoff-base"],
        [*INGEST, "--start"],
        [*INGEST, "--end"],
        ["attention", "--pageviews", GENERAL, "--election-date"],
    ], ids=["max-in-flight", "retry-limit", "window-days", "backoff-base", "start", "end",
            "election-date"])
    @given(integer=lax_numbers(), decimal=lax_numbers(DECIMAL_TAILS), day=lax_dates(),
           flag=lax_flags())
    @with_acceptance_forms
    @settings(max_examples=30, deadline=None)
    def test_option_is_usage_error(self, argv, integer, decimal, day, flag):
        # an option gets the message its converter gives a CSV cell of the same kind
        text, message = drawn_cell(argv[-1], integer, decimal, day, flag)
        code, err = run([*argv, text])
        assert code == 2
        assert err.endswith(f" error: argument {argv[-1]}: {message}\n")

    @pytest.mark.parametrize("argv", [
        [*INGEST, "--max-in-flight"],
        [*INGEST, "--retry-limit"],
        ["features", "--dataset", PARTIES, "--pageviews", PAGEVIEWS, "--window-days"],
    ], ids=["max-in-flight", "retry-limit", "window-days"])
    @pytest.mark.parametrize("digits", [20, 5000])
    def test_too_large_integer_option_is_short_usage_error(self, argv, digits):
        code, err = run([*argv, "9" * digits])
        assert code == 2
        assert err.endswith(f" error: argument {argv[-1]}: a {digits}-digit count is too large "
                            "(at most 2**63 - 1)\n")
        assert len(err.encode()) < 300

    def test_integer_option_padded_past_int_limit_is_read_as_its_value(self, tmp_path):
        # int() alone refuses a text of over 4 300 characters, whatever its value
        zeros = "0" * 5000
        code, err = run([*INGEST, "--retry-limit", zeros + "11"])
        assert (code, err.splitlines()[-1]) == (
            2, "wikivote ingest: error: retry_limit must be from 0 to 10, got 11")
        feature_args = ["features", "--dataset", PARTIES, "--pageviews", PAGEVIEWS, "--out"]
        assert main([*feature_args, str(tmp_path / "plain.csv"), "--window-days", "7"]) == 0
        assert main([*feature_args, str(tmp_path / "padded.csv"),
                     "--window-days", zeros + "7"]) == 0
        assert (tmp_path / "padded.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_view_count_padded_past_int_limit_is_read_as_its_value(self, tmp_path, capsys):
        lines = Path(GENERAL).read_text().splitlines(keepends=True)
        project, title, day, views = lines[1].rstrip("\n").split(",")
        padded = tmp_path / "views.csv"
        padded.write_text("".join([lines[0], f"{project},{title},{day},{'0' * 5000}{views}\n",
                                   *lines[2:]]))
        for path, out in ((GENERAL, "plain"), (padded, "padded")):
            assert main(["attention", "--pageviews", str(path), "--election-date", "2014-05-25",
                         "--output-dir", str(tmp_path / out)]) == 0
        capsys.readouterr()
        for name in ("attention_dynamics.json", "attention_series.csv"):
            assert (tmp_path / "padded" / name).read_bytes() == (
                tmp_path / "plain" / name).read_bytes()

    @pytest.mark.parametrize("argv,char", [
        ([*INGEST, "--start"], "x"),
        ([*INGEST, "--retry-limit"], "x"),
        ([*INGEST, "--backoff-base"], "x"),
        (["features", "--dataset", PARTIES, "--pageviews", PAGEVIEWS, "--window-days"], "x"),
        # an integer, but not a positive one
        (["features", "--dataset", PARTIES, "--pageviews", PAGEVIEWS, "--window-days"], "0"),
    ], ids=["start", "retry-limit", "backoff-base", "window-days", "window-days-zero"])
    def test_rejected_long_option_is_not_echoed_whole(self, argv, char):
        code, err = run([*argv, char * 5000])
        assert code == 2
        assert err.endswith(f" {char * 40!r}... (5000 characters)\n")
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("kind,column,char,message", [
        ("pageviews", "date", "x", "not a YYYY-MM-DD date:"),
        ("pageviews", "views", "x", "not an integer of ASCII digits:"),
        ("parties", "vote_share", "x", "not a decimal of ASCII digits:"),
        ("parties", "is_new", "x", "must be 0 or 1, got"),
        ("turnout", "turnout_curr", "9", "must be a finite number, got"),  # float() gives inf
    ], ids=["date", "views", "vote_share", "is_new", "turnout_curr"])
    def test_rejected_long_cell_is_not_echoed_whole(self, tmp_path, kind, column, char, message):
        text = char * 5000
        header, good, argv = INPUT_KINDS[kind]
        bad = next(csv.reader([good]))
        bad[next(csv.reader([header])).index(column)] = text
        path = tmp_path / f"{kind}.csv"
        path.write_text(header + good + ",".join(bad) + "\n")
        what = {"pageviews": "page-view", "parties": "party"}.get(kind, kind)
        assert run(argv(str(path))) == (
            3, f"wikivote: line 3: malformed {what} row: {column}: {message} "
               f"{text[:40]!r}... (5000 characters)\n")

    @pytest.mark.parametrize("kind,row,fragment", [
        ("pageviews", "aa.wikipedia,X,2014-05-19,-4\n", "negative view count -4"),
        ("parties", "Arcadia,2014-05-25,p2,B,B,B,0,0,20.0,15.0,-1,aa.wikipedia,B\n",
         "p2: negative news_mentions"),
        ("turnout", "lang02,-100,120,50.0,51.0,0\n", "views_prev must be positive"),
        ("turnout", "lang02,100,-5,50.0,51.0,0\n", "views_curr must be non-negative"),
        # a count beyond 2**63 - 1 is named by its column, as a malformed cell is
        pytest.param("parties",
                     f"Arcadia,2014-05-25,p2,B,B,B,0,0,20.0,15.0,{BIG},aa.wikipedia,B\n",
                     "malformed party row: news_mentions: a 401-digit count is too large "
                     "(at most 2**63 - 1)\n",
                     id="news_mentions-too-large"),
        pytest.param("turnout", f"lang02,{BIG},120,50.0,51.0,0\n",
                     "malformed turnout row: views_prev: a 401-digit count is too large "
                     "(at most 2**63 - 1)\n",
                     id="views_prev-too-large"),
        pytest.param("turnout", f"lang02,100,{BIG},50.0,51.0,0\n",
                     "malformed turnout row: views_curr: a 401-digit count is too large "
                     "(at most 2**63 - 1)\n",
                     id="views_curr-too-large"),
        # past 4 300 digits int() refuses the text with a message of its own
        pytest.param("pageviews", f"aa.wikipedia,X,2014-05-19,{HUGE}\n",
                     "malformed page-view row: views: a 5000-digit count is too large "
                     "(at most 2**63 - 1)\n", id="views-5000-digits"),
        pytest.param("pageviews", f"aa.wikipedia,X,2014-05-19,-{BIG}\n",
                     "malformed page-view row: views: a 401-digit count is too large "
                     "(at most 2**63 - 1)\n", id="views-minus-401-digits"),
        pytest.param("parties",
                     f"Arcadia,2014-05-25,p2,B,B,B,0,0,20.0,15.0,-{HUGE},aa.wikipedia,B\n",
                     "malformed party row: news_mentions: a 5000-digit count is too large "
                     "(at most 2**63 - 1)\n", id="news_mentions-minus-5000-digits"),
        pytest.param("turnout", f"lang02,100,{HUGE},50.0,51.0,0\n",
                     "malformed turnout row: views_curr: a 5000-digit count is too large "
                     "(at most 2**63 - 1)\n", id="views_curr-5000-digits"),
    ])
    def test_negative_cell_keeps_its_own_message(self, tmp_path, kind, row, fragment):
        header, good, argv = INPUT_KINDS[kind]
        path = tmp_path / f"{kind}.csv"
        path.write_text(header + good + row)
        code, err = run(argv(str(path)))
        assert code == 3
        assert err.startswith("wikivote: line 3: ") and fragment in err
