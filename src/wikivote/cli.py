"""Command-line front end.

Subcommands: ingest, features, fit, predict, turnout, attention, report.
Exit codes, all picked by main: 0 success, 2 usage (from argparse alone, and
before any input file is read), 3 data problem, 4 network problem. main
prints each warning raised, a curation notice, as one `wikivote: warning:`
line on stderr.

Only fit, predict, turnout, attention and report compute: they import
forecast and stats when they run, so the parser, --help, usage errors,
features and ingest start without compiling and loading them (an eighth of a
start with no bytecode cache, on a 2-vCPU VM).

Data files are written atomically (temp + rename) and contain no timestamps,
so identical inputs and config produce byte-identical outputs; run metadata
lives in a separate manifest next to the reports (see _run). A file may be
given as str chunks, written one at a time: attention's plot CSV, the largest
output, is never held whole.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import os
import sys
import tempfile
import warnings
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import fields
from datetime import date
from pathlib import Path

from . import features as feats
from . import ingest
from .errors import ComputationError, CurationWarning, DataError, NetworkError
from .model import validate_dataset

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NETWORK = 4


def _atomic_write_chunks(path: Path, chunks: Iterable[str]) -> None:
    """Write the text chunks to path, one at a time, through a temp file and a rename.

    The file keeps the permission bits of the file it replaces, or else gets
    open()'s 0o666 less the umask, not mkstemp's 0o600. If making or writing
    a chunk raises, path keeps its old content and the temp file is removed.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        try:
            mode = os.stat(path).st_mode & 0o777
        except FileNotFoundError:
            umask = os.umask(0)  # read the umask: set it, then put it back
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, text: str) -> None:
    _atomic_write_chunks(path, (text,))


@contextmanager
def _run(args):
    """Yield (files, errors) to the command of args, which writes into args.output_dir.

    The block fills files with {name: text} and adds to errors each failure it
    got past; a text is a str, or an iterable of str chunks that is written
    one chunk at a time, so a large file is never held whole. When the block
    ends, the files are written in order, then the manifest.
    If the block or a write raises, only the manifest is written: status
    "error", no outputs, and the errors collected or else the exception's
    message. So a failed run never leaves an earlier run's manifest behind.
    The manifest's config is every option but --output-dir.
    """
    config = {key: value for key, value in vars(args).items()
              if key not in ("command", "func", "output_dir")}
    files: dict[str, str | Iterable[str]] = {}
    errors: list[str] = []
    status = "error"
    try:
        yield files, errors
        for name, text in files.items():
            # a str goes through _atomic_write, the one write bench/tracer.py counts
            write = _atomic_write if isinstance(text, str) else _atomic_write_chunks
            write(Path(args.output_dir, name), text)
        status = "ok"
    except Exception as exc:
        errors = errors or [str(exc)]
        raise
    finally:
        manifest = {"command": args.command, "config": config, "status": status,
                    "outputs": list(files) if status == "ok" else [], "errors": errors}
        _atomic_write(Path(args.output_dir, "manifest.json"), _json(manifest))


def _json(doc) -> str:
    """doc as JSON text indented by 2, ending in a newline; a date is written as YYYY-MM-DD."""
    return json.dumps(doc, indent=2, default=date.isoformat) + "\n"


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


def _model_ids(text: str) -> list[str]:
    ids = [part.strip() for part in text.split(",") if part.strip()]
    bad = [m for m in ids if m not in feats.MODEL_IDS]
    if bad or not ids:
        raise argparse.ArgumentTypeError(
            f"unknown model id(s) {', '.join(bad) or '(none given)'}; "
            f"valid ids: {', '.join(feats.MODEL_IDS)}"
        )
    repeated = sorted({m for m in ids if ids.count(m) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"repeated model id(s) {', '.join(repeated)}")
    return ids


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _render_text_table(reports: list[forecast.ModelReport]) -> str:
    header = ["Term"] + [f"Model {r.spec.id}" for r in reports]
    cells = [{t.name: f"{_fmt(t.beta)}{t.stars} ({_fmt(t.se)})" for t in r.fit.terms}
             for r in reports]
    body = [[name, *(model.get(name, "") for model in cells)]
            for name in feats.BASE_TERMS + feats.WIKI_TERMS]
    body.append(["R^2"] + [_fmt(r.fit.r2) for r in reports])
    body.append(["Adjusted R^2"] + [_fmt(r.fit.adj_r2) for r in reports])
    body.append(["N"] + [str(r.fit.n) for r in reports])

    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    rows = [header, ["-" * width for width in widths], *body]  # the rule is a row too
    return "".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
                   + "\n" for row in rows)


def _render_csv_table(reports: list[forecast.ModelReport]) -> str:
    from .stats import TermEstimate

    return ingest.render_csv(  # a term's fields, its name under "term"
        ["model", "term", *[f.name for f in fields(TermEstimate)][1:], "r2", "adj_r2", "n"],
        ([report.spec.id, *vars(term).values(), report.fit.r2, report.fit.adj_r2, report.fit.n]
         for report in reports for term in report.fit.terms),
    )


def cmd_ingest(args, parser) -> None:
    if bool(args.project) != bool(args.title):
        parser.error("give --project and --title together")
    if not (args.project or args.pages):
        parser.error("give --project/--title or a --pages file")
    if args.start > args.end:
        parser.error(f"--start {args.start} is after --end {args.end}")
    try:
        policy = ingest.FetchPolicy(args.max_in_flight, args.retry_limit, args.backoff_base)
    except ValueError as exc:
        parser.error(str(exc))
    pages = (ingest.read_table(args.pages, ingest.PAGES_SCHEMA, "page list", ingest.page_key,
                               key=2) if args.pages else [])
    if args.project and (args.project, args.title) not in pages:
        pages.append((args.project, args.title))
    if not pages:
        raise DataError(f"page list {args.pages} names no page")

    series, failures = ingest.fetch_many(pages, args.start, args.end, policy)
    for _, exc in failures:  # each message names its page
        print(f"ingest: {exc}", file=sys.stderr)
    if not series:
        raise NetworkError("every page fetch failed")

    _emit(ingest.render_pageviews_csv(series), args.out)


def _feature_csv(rows: list[feats.FeatureRow], columns: list[str], **computed) -> str:
    """CSV of the named FeatureRow columns, one line per row, then a column
    for each keyword: its name and its function's value of the row."""
    named = operator.attrgetter(*columns)
    return ingest.render_csv([*columns, *computed], (
        [*named(row), *(value(row) for value in computed.values())] for row in rows))


def cmd_features(args) -> None:
    _emit(_feature_csv(_load_features(args), feats.FEATURE_COLUMNS), args.out)


def cmd_fit(args) -> None:
    from . import forecast

    with _run(args) as (files, _):
        rows = _load_features(args)
        designs: dict = {}  # models 1.k and 2.k share a design, so it is factored once
        reports = [forecast.fit_model(rows, feats.ModelSpec.from_id(mid), sides=args.sides,
                                      designs=designs) for mid in args.models]
        docs = [report.to_json_dict() for report in reports]
        for report, doc in zip(reports, docs):
            files[f"model_{report.spec.id}.json"] = _json(doc)
        if args.format == "text":
            files["fit_table.txt"] = _render_text_table(reports)
        elif args.format == "csv":
            files["fit_table.csv"] = _render_csv_table(reports)
        else:
            files["fit_table.json"] = _json(docs)
    if args.format == "text":
        sys.stdout.write(files["fit_table.txt"])


def cmd_predict(args) -> None:
    from . import forecast

    training = _load_features(args)
    spec = feats.ModelSpec.from_id(args.model)
    report = forecast.fit_model(training, spec)
    scenario = ingest.load_scenario_csv(args.scenario)

    fitted = forecast.fitted_rows(training, spec)
    training_range = {
        c: (min(getattr(r, c) for r in fitted), max(getattr(r, c) for r in fitted))
        for c in spec.covariates
    }
    low, high = spec.outcome_range

    out_rows = []
    for row, value in zip(scenario, forecast.predict(report, scenario)):
        flags = [] if low <= value <= high else ["out_of_range"]
        if any(not lo <= getattr(row, c) <= hi for c, (lo, hi) in training_range.items()):
            flags.append("extrapolated")
        out_rows.append([row.party_id, value, ";".join(flags)])
    _emit(ingest.render_csv(["party_id", "predicted", "flags"], out_rows), args.out)


def cmd_turnout(args) -> None:
    from . import forecast

    records = ingest.load_turnout_csv(args.records)
    result = forecast.turnout_analysis(records, sides=args.sides)
    corr = result.correlation

    if args.format == "json":
        doc = {**vars(corr), "sides": args.sides, "ratios": list(map(vars, result.ratios))}
        _emit(_json(doc), args.out)
        return

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


def _render_attention_series(series_list: list[ingest.PageViewSeries],
                             series_ids: list[str]) -> Iterator[str]:
    """The `series_id,date,views,log_views` plot CSV, the text render_csv would
    give, as the header chunk and then one chunk per series, each joined only
    when it is taken. series_ids holds the id of each series, in order.

    Only the series id can need CSV quoting, so render_csv encodes it once per
    series; the `date,` text of each distinct day and the `views,log_views`
    line end of each distinct count are formatted once, here, and looked up.
    """
    day_cells = {day: f"{day}," for day in set().union(*(series.days for series in series_list))}
    # the distinct counts as keys, then their cells as values: no set of them beside the dict
    count_cells = dict.fromkeys(itertools.chain.from_iterable(
        series.counts for series in series_list))
    for views in count_cells:
        count_cells[views] = f"{views},{math.log(views) if views > 0 else ''}\n"

    def rows(series: ingest.PageViewSeries, series_id: str) -> str:
        prefix = ingest.render_csv([series_id], [])[:-1] + ","
        # each row is three parts: the quoted id and comma, `date,` and `views,log_views\n`
        parts = [prefix] * (3 * len(series.days))
        parts[1::3] = map(day_cells.__getitem__, series.days)
        parts[2::3] = map(count_cells.__getitem__, series.counts)
        return "".join(parts)

    return itertools.chain([ingest.render_csv(["series_id", "date", "views", "log_views"], [])],
                           map(rows, series_list, series_ids))


def cmd_attention(args) -> None:
    from . import forecast

    with _run(args) as (files, errors):
        series_list = ingest.load_pageviews_csv(args.pageviews)
        series_ids = [f"{series.wiki_project}:{series.page_title}" for series in series_list]
        dynamics: list[dict] = []
        for series, series_id in zip(series_list, series_ids):
            try:
                dyn = forecast.attention_dynamics(series, args.election_date, args.window_days)
                dynamics.append({"series_id": series_id, "status": "ok", **vars(dyn)})
            except DataError as exc:
                dynamics.append({"series_id": series_id, "status": "error", "error": str(exc)})
                errors.append(str(exc))
        if series_list and len(errors) == len(series_list):
            raise DataError(f"attention analysis failed for every series; first: {errors[0]}")
        files["attention_dynamics.json"] = _json(dynamics)
        files["attention_series.csv"] = _render_attention_series(series_list, series_ids)
    print(f"attention: {len(series_list) - len(errors)} series analysed, {len(errors)} failed",
          file=sys.stderr)


def cmd_report(args) -> None:
    """The share tables and four correlations, all or nothing, as fit is.

    Every correlation comes from one dataset, so one that fails fails the run
    (exit 3, only an error manifest); attention, whose series are independent,
    records each failed series and writes the rest.
    """
    from . import stats

    with _run(args) as (files, _):
        rows = _load_features(args)
        files["report_shares.csv"] = _feature_csv(
            rows, ["country", "election_date", "party_id", "wiki_share", "news_share",
                   "vote_share"])

        small = feats.subset_small(rows)
        pairs = {
            "news_vs_vote_share": ([r.news_share for r in rows], [r.vote_share for r in rows]),
            "news_vs_vote_share_small": (
                [r.news_share for r in small], [r.vote_share for r in small]),
            "wiki_vs_vote_share": ([r.wiki_share for r in rows], [r.vote_share for r in rows]),
            "news_vs_wiki": ([r.news_share for r in rows], [r.wiki_share for r in rows]),
        }
        correlations = {}
        for name, (x, y) in pairs.items():
            try:
                correlations[name] = vars(stats.pearson(x, y))
            except ComputationError as exc:
                raise ComputationError(f"{name}: {exc}") from exc
        files["report_correlations.json"] = _json(correlations)

        files["report_scatter.csv"] = _feature_csv(
            rows, ["party_id", "country", "election_date", "news_share", "wiki_share"],
            cluster=lambda row: (
                "new" if row.new_party else ("incumbent" if row.incumbent else "other")))


def _option(convert):
    """convert as an argparse type: a rejected value gets convert's own message."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _positive_int(text: str) -> int:
    value = ingest.ascii_int(text)
    if value < 1:
        raise ValueError(f"not a positive integer: {ingest.shown(text)}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wikivote",
        description="Election forecasting from Wikipedia page-view and news shares",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # option values are read by the converters of CSV cells of the same kind
    date_type, int_type, float_type, positive_type = map(
        _option, (ingest.iso_date, ingest.ascii_int, ingest.ascii_float, _positive_int))

    # one usage line: argparse's own lists all nine options on five lines above every error
    p_ingest = sub.add_parser("ingest", help="fetch daily page views into a CSV", usage=(
        "%(prog)s [--project PROJECT --title TITLE] [--pages PAGES] --start START --end END "
        "[options]"))
    p_ingest.add_argument("--project", help="language-edition id, e.g. en.wikipedia")
    p_ingest.add_argument("--title", help="article title")
    p_ingest.add_argument("--pages", help="CSV of wiki_project,page_title pairs")
    p_ingest.add_argument("--start", type=date_type, required=True)
    p_ingest.add_argument("--end", type=date_type, required=True)
    fetch = ingest.FetchPolicy()
    p_ingest.add_argument("--max-in-flight", type=int_type, default=fetch.max_in_flight,
                          help=f"pages fetched at once, 1 to {ingest.MAX_IN_FLIGHT} "
                               "(default %(default)s)")
    p_ingest.add_argument("--retry-limit", type=int_type, default=fetch.retry_limit,
                          help=f"retries per page, 0 to {ingest.MAX_RETRY_LIMIT} "
                               "(default %(default)s)")
    p_ingest.add_argument("--backoff-base", type=float_type, default=fetch.backoff_base,
                          help=f"seconds, 0 to {ingest.MAX_BACKOFF_BASE} (default %(default)s)")
    p_ingest.add_argument("--out", help="output CSV path (default stdout)")
    # cmd_ingest reports the option rules argparse cannot express through ingest's own parser
    p_ingest.set_defaults(func=lambda args: cmd_ingest(args, p_ingest))

    def add_feature_inputs(p):
        p.add_argument("--dataset", required=True, help="party dataset CSV")
        p.add_argument("--pageviews", required=True, help="page-view CSV")
        p.add_argument("--window-days", type=positive_type, default=feats.WINDOW_DAYS,
                       help="attention window length ending the day before the election")

    p_features = sub.add_parser("features", help="emit the regression covariate table")
    add_feature_inputs(p_features)
    p_features.add_argument("--out", help="output CSV path (default stdout)")
    p_features.set_defaults(func=cmd_features)

    p_fit = sub.add_parser("fit", help="fit model specifications and write reports")
    add_feature_inputs(p_fit)
    p_fit.add_argument("--models", type=_model_ids, default=",".join(feats.MODEL_IDS),
                       help="comma-separated model ids")
    p_fit.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_fit.add_argument("--sides", choices=["two", "one"], default="two")
    p_fit.add_argument("--output-dir", default="wikivote-out")
    p_fit.set_defaults(func=cmd_fit)

    p_predict = sub.add_parser("predict", help="predict outcomes for scenario rows")
    add_feature_inputs(p_predict)
    p_predict.add_argument("--model", choices=feats.MODEL_IDS, default="1.1",
                           help="model id to fit and apply")
    p_predict.add_argument("--scenario", required=True, help="scenario CSV")
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
    p_attention.add_argument("--election-date", type=date_type, required=True)
    p_attention.add_argument("--window-days", type=positive_type,
                             default=feats.ATTENTION_WINDOW_DAYS)
    p_attention.add_argument("--output-dir", default="wikivote-out")
    p_attention.set_defaults(func=cmd_attention)

    p_report = sub.add_parser("report", help="share tables and attention correlations")
    add_feature_inputs(p_report)
    p_report.add_argument("--output-dir", default="wikivote-out")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # every notice of this run, though an earlier run in the process raised it too
        warnings.simplefilter("always", CurationWarning)
        warnings.showwarning = lambda message, *_: print(f"wikivote: warning: {message}",
                                                         file=sys.stderr)
        try:
            args.func(args)
        except (DataError, OSError, NetworkError) as exc:
            print(f"wikivote: {exc}", file=sys.stderr)
            return EXIT_NETWORK if isinstance(exc, NetworkError) else EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
