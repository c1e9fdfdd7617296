"""Command-line front end.

Subcommands: ingest, features, fit, predict, turnout, attention, report.
Exit codes: 0 success, 2 usage, 3 data problem, 4 network problem.

Data files are written atomically (temp + rename) and contain no timestamps,
so identical inputs and config produce byte-identical outputs; run metadata
lives in a separate manifest.json next to the reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import asdict
from datetime import date
from pathlib import Path

from . import features as feats
from . import forecast, ingest, stats
from .errors import DataError, NetworkError
from .model import validate_dataset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NETWORK = 4


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(output_dir: Path, command: str, config: dict, *, status: str,
                    outputs: list[str], errors: list[str]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "status": status,
        "outputs": outputs,
        "errors": errors,
    }
    _atomic_write(output_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(Path(out), text)
    else:
        sys.stdout.write(text)


def _load_features(args) -> list[feats.FeatureRow]:
    rows = ingest.load_party_csv(args.dataset)
    dataset = validate_dataset(rows)
    series = ingest.load_pageviews_csv(args.pageviews)
    sums = feats.window_sums_from_series(dataset, series, args.window_days)
    return feats.build_feature_rows(dataset, sums)


def _parse_models(text: str, parser: argparse.ArgumentParser) -> list[str]:
    ids = [part.strip() for part in text.split(",") if part.strip()]
    bad = [m for m in ids if m not in forecast.MODEL_IDS]
    if bad or not ids:
        parser.error(
            f"unknown model id(s) {', '.join(bad) or '(none given)'}; "
            f"valid ids: {', '.join(forecast.MODEL_IDS)}"
        )
    return ids


def _fmt(value: float, places: int = 2) -> str:
    return f"{value:.{places}f}"


def _beta_cell(term: stats.TermEstimate) -> str:
    return f"{_fmt(term.beta)}{term.stars} ({_fmt(term.se)})"


def _render_text_table(reports: list[forecast.ModelReport]) -> str:
    all_terms = list(forecast.BASE_TERMS + forecast.WIKI_TERMS)
    header = ["Term"] + [f"Model {r.spec.id}" for r in reports]
    body: list[list[str]] = []
    for name in all_terms:
        row = [name]
        for report in reports:
            try:
                row.append(_beta_cell(report.fit.term(name)))
            except KeyError:
                row.append("")
        body.append(row)
    body.append(["R^2"] + [_fmt(r.fit.r2) for r in reports])
    body.append(["Adjusted R^2"] + [_fmt(r.fit.adj_r2) for r in reports])
    body.append(["N"] + [str(r.fit.n) for r in reports])

    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = []
    for row in [header] + body:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if row is header:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def _render_csv_table(reports: list[forecast.ModelReport]) -> str:
    return ingest.render_csv(
        ["model", "term", "beta", "se", "t", "p", "stars", "r2", "adj_r2", "n"],
        ([report.spec.id, term.name, repr(term.beta), repr(term.se),
          repr(term.t_stat), repr(term.p_value), term.stars,
          repr(report.fit.r2), repr(report.fit.adj_r2), report.fit.n]
         for report in reports for term in report.fit.terms),
    )


def cmd_ingest(args, parser) -> int:
    pages: list[tuple[str, str]] = []
    if args.pages:
        table = ingest.read_table(args.pages, ingest.PAGES_SCHEMA, "page list")
        pages = [(project, title) for _, (project, title) in table]
    if args.project and args.title:
        pages.append((args.project, args.title))
    if not pages:
        parser.error("give --project/--title or a --pages file")
    if args.start > args.end:
        parser.error(f"--start {args.start} is after --end {args.end}")

    policy = ingest.FetchPolicy(
        max_in_flight=args.max_in_flight,
        retry_limit=args.retry_limit,
        backoff_base=args.backoff_base,
    )
    series, failures = ingest.fetch_many(pages, args.start, args.end, policy)
    for (project, title), exc in failures:
        print(f"ingest: {project}/{title}: {exc}", file=sys.stderr)
    if not series:
        raise NetworkError("every page fetch failed")

    _emit(ingest.render_pageviews_csv(series), args.out)
    return EXIT_OK


def cmd_features(args, parser) -> int:
    rows = _load_features(args)
    text = ingest.render_csv(feats.FEATURE_COLUMNS, (
        [row.party_id, row.country, row.election_date.isoformat(),
         repr(row.wiki_share), repr(row.news_share), row.new_party,
         row.incumbent, repr(row.vote_share), repr(row.vote_change)]
        for row in rows
    ))
    _emit(text, args.out)
    return EXIT_OK


def cmd_fit(args, parser) -> int:
    model_ids = _parse_models(args.models, parser)
    output_dir = Path(args.output_dir)
    config = {
        "models": model_ids,
        "dataset": str(args.dataset),
        "pageviews": str(args.pageviews),
        "format": args.format,
        "sides": args.sides,
        "window_days": args.window_days,
    }
    try:
        rows = _load_features(args)
        reports = [
            forecast.fit_model(rows, forecast.ModelSpec.from_id(mid), sides=args.sides)
            for mid in model_ids
        ]
    except Exception as exc:
        _write_manifest(output_dir, "fit", config, status="error",
                        outputs=[], errors=[str(exc)])
        raise

    outputs = []
    for report in reports:
        name = f"model_{report.spec.id}.json"
        _atomic_write(output_dir / name, json.dumps(report.to_json_dict(), indent=2) + "\n")
        outputs.append(name)
    if args.format == "text":
        table, table_name = _render_text_table(reports), "fit_table.txt"
    elif args.format == "csv":
        table, table_name = _render_csv_table(reports), "fit_table.csv"
    else:
        table = json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
        table_name = "fit_table.json"
    _atomic_write(output_dir / table_name, table)
    outputs.append(table_name)
    _write_manifest(output_dir, "fit", config, status="ok", outputs=outputs, errors=[])
    if args.format == "text":
        sys.stdout.write(table)
    return EXIT_OK


def cmd_predict(args, parser) -> int:
    training = _load_features(args)
    spec = forecast.ModelSpec.from_id(args.model)
    report = forecast.fit_model(training, spec, sides=args.sides)
    scenario = ingest.load_scenario_csv(args.scenario)

    training_range = {
        c: (min(getattr(r, c) for r in training), max(getattr(r, c) for r in training))
        for c in spec.covariates
    }
    low, high = spec.outcome_range

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        values = forecast.predict(report, scenario)

    out_rows = []
    for row, value in zip(scenario, values):
        flags = []
        if not low <= value <= high:
            flags.append("out_of_range")
        for c in spec.covariates:
            lo, hi = training_range[c]
            if not lo <= getattr(row, c) <= hi:
                flags.append("extrapolated")
                break
        out_rows.append([row.party_id, repr(value), ";".join(flags)])
    _emit(ingest.render_csv(["party_id", "predicted", "flags"], out_rows), args.out)
    return EXIT_OK


def cmd_turnout(args, parser) -> int:
    records = ingest.load_turnout_csv(args.records)
    result = forecast.turnout_analysis(records, sides=args.sides)
    corr = result.correlation

    if args.format == "json":
        doc = {
            **asdict(corr),
            "sides": args.sides,
            "ratios": [asdict(ratio) for ratio in result.ratios],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return EXIT_OK

    lines = [
        "edition      views_change  turnout_change  outlier  studentized",
        "-----------  ------------  --------------  -------  -----------",
    ]
    for ratio in result.ratios:
        resid = "" if ratio.studentized_residual is None else f"{ratio.studentized_residual:+.2f}"
        lines.append(
            f"{ratio.language_edition:<11}  {ratio.views_change:>+12.4f}  "
            f"{ratio.turnout_change:>+14.4f}  {'yes' if ratio.outlier else 'no':<7}  {resid:>11}"
        )
    excluded = [r.language_edition for r in result.excluded]
    lines.append("")
    lines.append(
        f"r = {corr.r:.2f} over n = {corr.n} "
        f"(adjusted R^2 = {corr.adj_r2:.2f}, p = {corr.p_value:.4g}, {args.sides}-sided)"
    )
    lines.append(f"excluded outliers: {', '.join(excluded) if excluded else 'none'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_attention(args, parser) -> int:
    series_list = ingest.load_pageviews_csv(args.pageviews)
    output_dir = Path(args.output_dir)
    config = {
        "pageviews": str(args.pageviews),
        "election_date": args.election_date.isoformat(),
        "window_days": args.window_days,
    }

    dynamics: list[dict] = []
    succeeded = 0
    for series in series_list:
        series_id = f"{series.wiki_project}:{series.page_title}"
        try:
            dyn = forecast.attention_dynamics(series, args.election_date, args.window_days)
            dynamics.append({
                "series_id": series_id,
                "status": "ok",
                **asdict(dyn),
                "peak_date": dyn.peak_date.isoformat(),
            })
            succeeded += 1
        except DataError as exc:
            dynamics.append({"series_id": series_id, "status": "error", "error": str(exc)})
    if not succeeded:
        _write_manifest(output_dir, "attention", config, status="error",
                        outputs=[], errors=[d.get("error", "") for d in dynamics])
        raise DataError("attention analysis failed for every series")

    def plot_rows():
        for series in series_list:
            series_id = f"{series.wiki_project}:{series.page_title}"
            for day, views in series.daily.items():
                log_views = repr(math.log(views)) if views > 0 else ""
                yield series_id, day.isoformat(), views, log_views

    _atomic_write(output_dir / "attention_dynamics.json", json.dumps(dynamics, indent=2) + "\n")
    _atomic_write(output_dir / "attention_series.csv", ingest.render_csv(
        ["series_id", "date", "views", "log_views"], plot_rows()))
    _write_manifest(
        output_dir, "attention", config, status="ok",
        outputs=["attention_dynamics.json", "attention_series.csv"],
        errors=[d["error"] for d in dynamics if d["status"] == "error"],
    )
    failed = len(series_list) - succeeded
    print(f"attention: {succeeded} series analysed, {failed} failed", file=sys.stderr)
    return EXIT_OK


def cmd_report(args, parser) -> int:
    rows = _load_features(args)
    output_dir = Path(args.output_dir)
    config = {
        "dataset": str(args.dataset),
        "pageviews": str(args.pageviews),
        "window_days": args.window_days,
    }

    shares = ingest.render_csv(
        ["country", "election_date", "party_id", "wiki_share", "news_share", "vote_share"],
        ([row.country, row.election_date.isoformat(), row.party_id,
          repr(row.wiki_share), repr(row.news_share), repr(row.vote_share)]
         for row in rows),
    )

    small = feats.subset_small(rows)
    pairs = {
        "news_vs_vote_share": ([r.news_share for r in rows], [r.vote_share for r in rows]),
        "news_vs_vote_share_small": (
            [r.news_share for r in small], [r.vote_share for r in small]),
        "wiki_vs_vote_share": ([r.wiki_share for r in rows], [r.vote_share for r in rows]),
        "news_vs_wiki": ([r.news_share for r in rows], [r.wiki_share for r in rows]),
    }
    correlations = {name: asdict(stats.pearson(x, y)) for name, (x, y) in pairs.items()}

    scatter = ingest.render_csv(
        ["party_id", "country", "election_date", "news_share", "wiki_share", "cluster"],
        ([row.party_id, row.country, row.election_date.isoformat(),
          repr(row.news_share), repr(row.wiki_share),
          "new" if row.new_party else ("incumbent" if row.incumbent else "other")]
         for row in rows),
    )

    _atomic_write(output_dir / "report_shares.csv", shares)
    _atomic_write(output_dir / "report_correlations.json",
                  json.dumps(correlations, indent=2) + "\n")
    _atomic_write(output_dir / "report_scatter.csv", scatter)
    _write_manifest(
        output_dir, "report", config, status="ok",
        outputs=["report_shares.csv", "report_correlations.json", "report_scatter.csv"],
        errors=[],
    )
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _date_arg(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an ISO date: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wikivote",
        description="Election forecasting from Wikipedia page-view and news shares",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="fetch daily page views into a CSV")
    p_ingest.add_argument("--project", help="language-edition id, e.g. en.wikipedia")
    p_ingest.add_argument("--title", help="article title")
    p_ingest.add_argument("--pages", help="CSV of wiki_project,page_title pairs")
    p_ingest.add_argument("--start", type=_date_arg, required=True)
    p_ingest.add_argument("--end", type=_date_arg, required=True)
    p_ingest.add_argument("--max-in-flight", type=int, default=4)
    p_ingest.add_argument("--retry-limit", type=int, default=3)
    p_ingest.add_argument("--backoff-base", type=float, default=0.5)
    p_ingest.add_argument("--out", help="output CSV path (default stdout)")
    p_ingest.set_defaults(func=cmd_ingest)

    def add_feature_inputs(p):
        p.add_argument("--dataset", required=True, help="party dataset CSV")
        p.add_argument("--pageviews", required=True, help="page-view CSV")
        p.add_argument("--window-days", type=_positive_int, default=feats.WINDOW_DAYS,
                       help="attention window length ending the day before the election")

    p_features = sub.add_parser("features", help="emit the regression covariate table")
    add_feature_inputs(p_features)
    p_features.add_argument("--out", help="output CSV path (default stdout)")
    p_features.set_defaults(func=cmd_features)

    p_fit = sub.add_parser("fit", help="fit model specifications and write reports")
    add_feature_inputs(p_fit)
    p_fit.add_argument("--models", default=",".join(forecast.MODEL_IDS),
                       help="comma-separated model ids")
    p_fit.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_fit.add_argument("--sides", choices=["two", "one"], default="two")
    p_fit.add_argument("--output-dir", default="wikivote-out")
    p_fit.set_defaults(func=cmd_fit)

    p_predict = sub.add_parser("predict", help="predict outcomes for scenario rows")
    add_feature_inputs(p_predict)
    p_predict.add_argument("--model", default="1.1", help="model id to fit and apply")
    p_predict.add_argument("--scenario", required=True, help="scenario CSV")
    p_predict.add_argument("--sides", choices=["two", "one"], default="two")
    p_predict.add_argument("--out", help="output CSV path (default stdout)")
    p_predict.set_defaults(func=cmd_predict)

    p_turnout = sub.add_parser("turnout", help="relative view change vs turnout change")
    p_turnout.add_argument("--records", required=True, help="turnout records CSV")
    p_turnout.add_argument("--sides", choices=["two", "one"], default="two")
    p_turnout.add_argument("--format", choices=["text", "json"], default="text")
    p_turnout.add_argument("--out", help="output path (default stdout)")
    p_turnout.set_defaults(func=cmd_turnout)

    p_attention = sub.add_parser("attention", help="build-up/decay rates per series")
    p_attention.add_argument("--pageviews", required=True, help="page-view CSV")
    p_attention.add_argument("--election-date", type=_date_arg, required=True)
    p_attention.add_argument("--window-days", type=_positive_int,
                             default=forecast.ATTENTION_WINDOW_DAYS)
    p_attention.add_argument("--output-dir", default="wikivote-out")
    p_attention.set_defaults(func=cmd_attention)

    p_report = sub.add_parser("report", help="share tables and attention correlations")
    add_feature_inputs(p_report)
    p_report.add_argument("--output-dir", default="wikivote-out")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (DataError, OSError) as exc:
        print(f"wikivote: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NetworkError as exc:
        print(f"wikivote: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except ValueError as exc:
        print(f"wikivote: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
