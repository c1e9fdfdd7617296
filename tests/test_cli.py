"""Command-line behavior: formats, exit codes, determinism, partial-file rules."""

import json
import re

import pytest

from conftest import DATA_DIR
from wikivote.cli import main

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

    def test_all_eight_models_by_default(self, tmp_path, capsys):
        assert main(fit_args(tmp_path / "out", models=",".join(
            ["1.0", "1.1", "1.2", "1.3", "2.0", "2.1", "2.2", "2.3"]
        ))) == 0
        capsys.readouterr()
        names = {p.name for p in (tmp_path / "out").glob("model_*.json")}
        assert len(names) == 8

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

    @pytest.mark.filterwarnings("ignore::UserWarning")
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

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        code = main([
            "fit", "--dataset", str(tmp_path / "absent.csv"),
            "--pageviews", PAGEVIEWS, "--output-dir", str(tmp_path / "out"),
        ])
        capsys.readouterr()
        assert code == 3


class TestFeaturesCommand:
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

    def test_stdout_when_no_out(self, capsys):
        assert main(["features", "--dataset", PARTIES, "--pageviews", PAGEVIEWS]) == 0
        out = capsys.readouterr().out
        assert out.startswith("party_id,")


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
        series_csv = (out / "attention_series.csv").read_text().splitlines()
        assert series_csv[0] == "series_id,date,views,log_views"
        assert len(series_csv) == 1 + 14 * 71

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

    def test_all_failures_is_data_error(self, tmp_path, capsys):
        views = tmp_path / "views.csv"
        views.write_text(
            "wiki_project,page_title,date,views\n"
            "aa.wikipedia,Stale,2013-01-01,500\n"
        )
        code = main(["attention", "--pageviews", str(views),
                     "--election-date", "2014-05-25",
                     "--output-dir", str(tmp_path / "att")])
        capsys.readouterr()
        assert code == 3


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
    ("scenario", "missing_column"): "incumbent",
    ("scenario", "short_row"): "b,10.0\n",
    ("scenario", "bad_number"): "b,lots,10.0,0,0\n",
    ("scenario", "bad_flag"): "b,10.0,10.0,yes,0\n",
    ("pages", "missing_column"): "wiki_project",
    ("pages", "short_row"): "bb.wikipedia\n",
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
