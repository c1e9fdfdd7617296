"""Seeded inputs and op sequences for the benchmark workloads.

Every input a workload needs is written here, before timing starts, from a
seed given on the command line. The program under test only ever sees the
files; what the generator planted (coefficients, build-up/decay rates) stays
with the benchmark for its oracles.

Uses the standard library and numpy only; scipy is confined to oracle.py.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

PARTY_COLUMNS = [
    "country", "election_date", "party_id", "name_english", "name_local",
    "abbreviation", "is_new", "is_incumbent", "vote_share", "prev_vote_share",
    "news_mentions", "wiki_project", "wiki_page_title",
]
PAGEVIEWS_COLUMNS = ["wiki_project", "page_title", "date", "views"]

WINDOW_DAYS = 7
ATTENTION_WINDOW_DAYS = 30
EP_ELECTION = date(2014, 5, 25)

# Planted coefficients, in the program's term order: Intercept, News, New Party,
# Incumbency, News x Incumbency, Wikipedia, New Party x Wikipedia.
PLANTED_VOTE_SHARE = (2.0, 0.55, 1.5, 3.0, 0.1, 0.25, 0.12)
PLANTED_VOTE_CHANGE = (1.0, -0.08, 0.0, -2.0, 0.05, 0.15, 0.0)
PLANTED_NOISE_SD = 1.5

PANEL_ELECTIONS, PANEL_PARTIES = 400, 6
PANEL_DAYS_BEFORE, PANEL_DAYS_AFTER = 14, 3
LONG_ELECTIONS, LONG_PARTIES = 200, 5
LONG_START, LONG_DAYS = date(2014, 1, 1), 365


@dataclass
class Op:
    """One cli.main call: its argv, the input rows it handles and the files it writes."""

    command: str
    argv: list[str]
    rows: int
    outputs: list[str]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: dict[str, Path]
    planted: dict = field(default_factory=dict)

    def sizes(self) -> dict:
        """Rows (excluding the header) and bytes of every input file."""
        out = {}
        for label, path in self.inputs.items():
            with open(path, "rb") as handle:
                data = handle.read()
            out[label] = {"rows": max(data.count(b"\n") - 1, 0), "bytes": len(data)}
        return out


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _shares(counts: list[float]) -> list[float]:
    # same arithmetic as the program, so the planted model sees identical covariates
    total = float(sum(counts))
    return [100.0 * c / total for c in counts]


def _design_row(news: float, wiki: float, new: int, inc: int) -> list[float]:
    return [1.0, news, float(new), float(inc), news * inc, wiki, new * wiki]


def _party_row(country, day, pid, new, inc, vote, prev, news, project, title) -> list:
    return [
        country, day.isoformat(), pid, f"Party {pid}", f"Partio {pid}", pid.upper(),
        new, inc, f"{vote:.1f}", "" if prev is None else f"{prev:.1f}", news,
        project, title,
    ]


def _planted_group(rng, window_sums, news_mentions, new, inc):
    """Vote shares and previous shares from the planted coefficients."""
    wiki = _shares([float(w) for w in window_sums])
    news = _shares([float(n) for n in news_mentions])
    votes, prevs = [], []
    for j in range(len(news)):
        x = np.array(_design_row(news[j], wiki[j], new[j], inc[j]))
        vote = float(np.clip(x @ PLANTED_VOTE_SHARE + rng.normal(0.0, PLANTED_NOISE_SD), 0.5, 95.0))
        vote = round(vote, 1)
        if new[j]:
            prev = None
        else:
            change = float(x @ PLANTED_VOTE_CHANGE + rng.normal(0.0, PLANTED_NOISE_SD))
            prev = round(float(np.clip(vote - change, 0.0, 100.0)), 1)
        votes.append(vote)
        prevs.append(prev)
    return votes, prevs


def _election_flags(rng, parties: int) -> tuple[list[int], list[int]]:
    new = [int(v) for v in rng.random(parties) < 0.2]
    inc = [int(v) for v in rng.random(parties) < 0.3]
    new[0], inc[0] = 0, 1  # every election has an incumbent that is not new
    new[-1] = 1            # and at least one new party
    return new, inc


def gen_panel(rng: np.random.Generator, out: Path) -> dict:
    """400 elections x 6 parties, one short page-view block per party page."""
    party_rows, view_rows = [], []
    for e in range(PANEL_ELECTIONS):
        country = f"Country{e // 5:03d}"
        election = date(1990 + 4 * (e % 5), 1 + e % 12, 1 + e % 28)
        project = f"c{e // 5:03d}.wikipedia"
        new, inc = _election_flags(rng, PANEL_PARTIES)
        news_mentions = [int(v) for v in rng.integers(20, 3000, size=PANEL_PARTIES)]
        sums = []
        for j in range(PANEL_PARTIES):
            title = f"Party {j} ({country} {election.year})"
            level = float(rng.uniform(50.0, 5000.0))
            total = 0
            for offset in range(-PANEL_DAYS_BEFORE, PANEL_DAYS_AFTER + 1):
                day = election + timedelta(days=offset)
                views = int(level * rng.uniform(0.5, 1.5)) + 1
                if -WINDOW_DAYS <= offset <= -1:
                    total += views
                view_rows.append((project, title, day.isoformat(), views))
            sums.append(total)
        votes, prevs = _planted_group(rng, sums, news_mentions, new, inc)
        for j in range(PANEL_PARTIES):
            title = f"Party {j} ({country} {election.year})"
            party_rows.append(_party_row(country, election, f"e{e:03d}p{j}", new[j], inc[j],
                                         votes[j], prevs[j], news_mentions[j], project, title))
    _write_csv(out / "parties.csv", PARTY_COLUMNS, party_rows)
    _write_csv(out / "pageviews.csv", PAGEVIEWS_COLUMNS, view_rows)
    return {"vote_share": PLANTED_VOTE_SHARE}


def _hump(rng, peak: float, lam_up: float, lam_down: float, peak_index: int) -> np.ndarray:
    """Daily views: baseline plus an asymmetric exponential hump, +-2% multiplicative noise.

    The noise and the steepness floor keep the peak day the series maximum, so
    the fitted windows hang off the planted peak.
    """
    baseline = float(rng.uniform(1.0, 3.0))
    offset = np.arange(LONG_DAYS) - peak_index
    lam = np.where(offset <= 0, lam_up, lam_down)
    noise = rng.uniform(-0.02, 0.02, size=LONG_DAYS)
    return np.rint(baseline + peak * np.exp(-lam * np.abs(offset)) * (1.0 + noise)).astype(np.int64)


def gen_long_history(rng: np.random.Generator, out: Path) -> dict:
    """200 EP-style elections x 5 parties on 2014-05-25, 365 days per party page."""
    party_rows, view_rows, rates = [], [], {}
    days = [(LONG_START + timedelta(days=i)).isoformat() for i in range(LONG_DAYS)]
    election = (EP_ELECTION - LONG_START).days
    for e in range(LONG_ELECTIONS):
        country = f"Member{e:03d}"
        project = f"m{e:03d}.wikipedia"
        new, inc = _election_flags(rng, LONG_PARTIES)
        news_mentions = [int(v) for v in rng.integers(20, 3000, size=LONG_PARTIES)]
        sums = []
        for j in range(LONG_PARTIES):
            title = f"Party {j} ({country})"
            lam_up = float(rng.uniform(0.08, 0.15))
            lam_down = float(rng.uniform(0.15, 0.3))
            views = _hump(rng, float(rng.uniform(3e5, 1e6)), lam_up, lam_down, election - 1)
            rates[f"{project}:{title}"] = (lam_up, lam_down)
            sums.append(int(views[election - WINDOW_DAYS:election].sum()))
            view_rows.extend(zip([project] * LONG_DAYS, [title] * LONG_DAYS, days, views.tolist()))
        votes, prevs = _planted_group(rng, sums, news_mentions, new, inc)
        for j in range(LONG_PARTIES):
            party_rows.append(_party_row(country, EP_ELECTION, f"m{e:03d}p{j}", new[j], inc[j],
                                         votes[j], prevs[j], news_mentions[j], project,
                                         f"Party {j} ({country})"))
    _write_csv(out / "parties.csv", PARTY_COLUMNS, party_rows)
    _write_csv(out / "pageviews.csv", PAGEVIEWS_COLUMNS, view_rows)
    return {"rates": rates}


def _feature_ops(commands: list[str], parties: Path, views: Path, out: Path,
                 rows: int) -> list[Op]:
    feature_args = ["--dataset", str(parties), "--pageviews", str(views)]
    ops = []
    for command in commands:
        target = out / command
        if command == "features":
            argv = ["features", *feature_args, "--out", str(target / "features.csv")]
            outputs = [target / "features.csv"]
        elif command == "fit":
            argv = ["fit", *feature_args, "--output-dir", str(target)]
            outputs = [target / f"model_{m}.json" for m in
                       ("1.0", "1.1", "1.2", "1.3", "2.0", "2.1", "2.2", "2.3")]
            outputs += [target / "fit_table.txt", target / "manifest.json"]
        elif command == "report":
            argv = ["report", *feature_args, "--output-dir", str(target)]
            outputs = [target / n for n in ("report_shares.csv", "report_correlations.json",
                                            "report_scatter.csv", "manifest.json")]
        else:
            raise ValueError(command)
        ops.append(Op(command, argv, rows, [str(p) for p in outputs]))
    return ops


def _attention_op(views: Path, out: Path, rows: int) -> Op:
    target = out / "attention"
    return Op("attention",
              ["attention", "--pageviews", str(views), "--election-date", EP_ELECTION.isoformat(),
               "--output-dir", str(target)],
              rows,
              [str(target / n) for n in ("attention_dynamics.json", "attention_series.csv",
                                         "manifest.json")])


def build(name: str, seed: int, root: Path) -> Workload:
    """Write workload `name`'s inputs under root/inputs and return its op cycle."""
    rng = np.random.default_rng([seed, *name.encode()])
    inputs_dir, out = root / "inputs", root / "out"
    inputs_dir.mkdir(parents=True, exist_ok=True)

    if name in ("panel_fit", "long_history"):
        gen = gen_panel if name == "panel_fit" else gen_long_history
        planted = gen(rng, inputs_dir)
        parties, views = inputs_dir / "parties.csv", inputs_dir / "pageviews.csv"
        w = Workload(name, [], {"parties": parties, "pageviews": views}, planted)
        sizes = w.sizes()
        feature_rows = sizes["parties"]["rows"] + sizes["pageviews"]["rows"]
        if name == "panel_fit":
            w.ops = _feature_ops(["fit"], parties, views, out, feature_rows)
        else:
            w.ops = _feature_ops(["features", "report"], parties, views, out, feature_rows)
            w.ops.append(_attention_op(views, out, sizes["pageviews"]["rows"]))
        return w

    raise ValueError(f"unknown workload {name!r}")
