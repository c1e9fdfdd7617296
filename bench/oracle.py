"""Correctness oracles, one per command, computed independently of the program.

Features are recomputed from the input CSVs with the csv module; fits are
checked against numpy.linalg.lstsq and (X'X)^-1; p-values against scipy's
Student t. scipy is imported here only, in the benchmark's parent process,
never in the process that runs the program.

check(workload) returns {command: [failure, ...]}; an empty list means every
output of that command passed.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from datetime import date, timedelta
from pathlib import Path

import numpy as np
from scipy import stats as sps

from workloads import ATTENTION_WINDOW_DAYS, EP_ELECTION, WINDOW_DAYS, Workload

BETA_RTOL = 1e-8
P_ATOL = 1e-9
RATE_RTOL = 0.10
PLANTED_SE = 6.0
SMALL_PARTY = 15.0

# id -> (dependent, include_wikipedia, small-party subset), the paper's grid
MODELS = {
    "1.0": ("vote_share", False, False), "1.1": ("vote_share", True, False),
    "1.2": ("vote_share", False, True), "1.3": ("vote_share", True, True),
    "2.0": ("vote_change", False, False), "2.1": ("vote_change", True, False),
    "2.2": ("vote_change", False, True), "2.3": ("vote_change", True, True),
}


def _rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _series(path) -> dict[tuple[str, str], dict[date, int]]:
    out: dict[tuple[str, str], dict[date, int]] = defaultdict(dict)
    for row in _rows(path):
        out[(row["wiki_project"], row["page_title"])][date.fromisoformat(row["date"])] = int(row["views"])
    return out


def reference_features(parties: Path, series: dict) -> dict[tuple, dict]:
    """Shares, indicators and outcomes per (party_id, country, election_date)."""
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for row in _rows(parties):
        groups[(row["country"], row["election_date"])].append(row)
    out = {}
    for (country, day_text), members in groups.items():
        day = date.fromisoformat(day_text)
        start, end = day - timedelta(days=WINDOW_DAYS), day - timedelta(days=1)
        window = [float(sum(v for d, v in series[(m["wiki_project"], m["wiki_page_title"])].items()
                            if start <= d <= end)) for m in members]
        news = [float(m["news_mentions"]) for m in members]
        wiki_total, news_total = float(sum(window)), float(sum(news))
        for m, w, n in zip(members, window, news):
            vote = float(m["vote_share"])
            prev = m["prev_vote_share"]
            out[(m["party_id"], country, day_text)] = {
                "wiki_share": 100.0 * w / wiki_total,
                "news_share": 100.0 * n / news_total,
                "new_party": int(m["is_new"]),
                "incumbent": int(m["is_incumbent"]),
                "vote_share": vote,
                "vote_change": vote - float(prev) if prev != "" else vote,
            }
    return out


def _design(feats: list[dict], wiki: bool) -> np.ndarray:
    cols = [[1.0, f["news_share"], f["new_party"], f["incumbent"],
             f["news_share"] * f["incumbent"]] + ([f["wiki_share"], f["new_party"] * f["wiki_share"]]
                                                  if wiki else []) for f in feats]
    return np.array(cols, dtype=float)


def reference_fit(features: dict, model_id: str) -> dict:
    dependent, wiki, small = MODELS[model_id]
    used = [f for f in features.values() if not small or f["vote_share"] < SMALL_PARTY]
    x = _design(used, wiki)
    y = np.array([f[dependent] for f in used])
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    n, k = x.shape
    sigma2 = float(resid @ resid) / (n - k)
    se = np.sqrt(sigma2 * np.diag(np.linalg.inv(x.T @ x)))
    return {"beta": beta, "se": se, "n": n, "df": n - k}


def _close(got, want, rtol: float) -> bool:
    """Elementwise relative match; entries near zero get an absolute floor of
    1e-4 * rtol * the vector's largest magnitude."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    floor = 1e-4 * rtol * float(np.abs(want).max(initial=0.0))
    return bool(np.all(np.abs(got - want) <= rtol * np.abs(want) + floor))


def check_fit(out: Path, features: dict, planted: dict) -> list[str]:
    errors = []
    for model_id in MODELS:
        doc = json.loads((out / f"model_{model_id}.json").read_text())
        ref = reference_fit(features, model_id)
        beta = [t["beta"] for t in doc["terms"]]
        se = [t["se"] for t in doc["terms"]]
        if doc["n"] != ref["n"]:
            errors.append(f"model {model_id}: n {doc['n']} != {ref['n']}")
            continue
        if not _close(beta, ref["beta"], BETA_RTOL):
            errors.append(f"model {model_id}: betas differ from lstsq beyond {BETA_RTOL:g}")
        if not _close(se, ref["se"], BETA_RTOL):
            errors.append(f"model {model_id}: SEs differ from (X'X)^-1 beyond {BETA_RTOL:g}")
        for t in doc["terms"]:
            want = 2.0 * float(sps.t.sf(abs(t["t"]), ref["df"]))
            if not abs(t["p"] - want) <= P_ATOL:
                errors.append(f"model {model_id} {t['name']}: p {t['p']!r} vs scipy {want!r}")
        if model_id == "1.1":
            dev = np.abs(np.array(beta) - np.array(planted["vote_share"])) / np.array(se)
            if dev.max() > PLANTED_SE:
                errors.append(f"model 1.1: planted coefficients missed by {dev.max():.1f} SE")
    return errors


def _shares_sum_to_100(rows: list[dict]) -> list[str]:
    totals: dict[tuple, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for r in rows:
        key = (r["country"], r["election_date"])
        totals[key][0] += float(r["wiki_share"])
        totals[key][1] += float(r["news_share"])
    return [f"group {k}: shares sum to {w!r} / {n!r}" for k, (w, n) in totals.items()
            if abs(w - 100.0) > 1e-9 or abs(n - 100.0) > 1e-9]


def check_features(path: Path, features: dict) -> list[str]:
    rows = _rows(path)
    errors = _shares_sum_to_100(rows)
    if len(rows) != len(features):
        return errors + [f"{len(rows)} feature rows, expected {len(features)}"]
    for r in rows:
        want = features.get((r["party_id"], r["country"], r["election_date"]))
        if want is None:
            errors.append(f"unexpected feature row {r['party_id']}")
            continue
        got = [float(r[c]) for c in ("wiki_share", "news_share", "vote_share", "vote_change")]
        ref = [want[c] for c in ("wiki_share", "news_share", "vote_share", "vote_change")]
        if not _close(got, ref, 1e-12) or (int(r["new_party"]), int(r["incumbent"])) != (
                want["new_party"], want["incumbent"]):
            errors.append(f"feature row {r['party_id']} {r['country']} differs from reference")
    return errors[:20]


def check_report(out: Path, features: dict) -> list[str]:
    errors = _shares_sum_to_100(_rows(out / "report_shares.csv"))
    feats = list(features.values())
    small = [f for f in feats if f["vote_share"] < SMALL_PARTY]
    pairs = {
        "news_vs_vote_share": (feats, "news_share", "vote_share"),
        "news_vs_vote_share_small": (small, "news_share", "vote_share"),
        "wiki_vs_vote_share": (feats, "wiki_share", "vote_share"),
        "news_vs_wiki": (feats, "news_share", "wiki_share"),
    }
    got = json.loads((out / "report_correlations.json").read_text())
    for name, (rows, a, b) in pairs.items():
        res = sps.pearsonr([f[a] for f in rows], [f[b] for f in rows])
        if not (abs(got[name]["r"] - res.statistic) <= 1e-9 and
                abs(got[name]["p_value"] - res.pvalue) <= P_ATOL and got[name]["n"] == len(rows)):
            errors.append(f"{name}: r/p {got[name]['r']!r}/{got[name]['p_value']!r} vs "
                          f"scipy {res.statistic!r}/{res.pvalue!r}")
    return errors


def _log_slope(points: list[tuple[date, int]], origin: date) -> float:
    t = np.array([(d - origin).days for d, v in points if v > 0], dtype=float)
    v = np.log([float(v) for _, v in points if v > 0])
    return float(np.polyfit(t, v, 1)[0])


def reference_rates(views: dict[date, int]) -> tuple[date, float, float]:
    w = timedelta(days=ATTENTION_WINDOW_DAYS)
    window = [(d, v) for d, v in views.items() if EP_ELECTION - w <= d <= EP_ELECTION + w]
    peak = max(window, key=lambda item: (item[1], -item[0].toordinal()))[0]
    up = sorted((d, v) for d, v in views.items() if peak - w <= d < peak)
    down = sorted((d, v) for d, v in views.items() if peak < d <= peak + w)
    return peak, _log_slope(up, peak), -_log_slope(down, peak)


def check_attention(out: Path, series: dict, rows: int, planted: dict) -> list[str]:
    docs = json.loads((out / "attention_dynamics.json").read_text())
    errors = []
    if len(docs) != len(series):
        errors.append(f"{len(docs)} attention results for {len(series)} series")
    for doc in docs:
        project, title = doc["series_id"].split(":", 1)
        peak, up, down = reference_rates(series[(project, title)])
        if doc["status"] != "ok" or doc["peak_date"] != peak.isoformat() or not _close(
                [doc["lambda_up"], doc["lambda_down"]], [up, down], 1e-9):
            errors.append(f"{doc['series_id']}: {doc.get('lambda_up')}/{doc.get('lambda_down')} "
                          f"vs reference {up!r}/{down!r}")
        elif not _close([doc["lambda_up"], doc["lambda_down"]],
                        planted["rates"][doc["series_id"]], RATE_RTOL):
            errors.append(f"{doc['series_id']}: rates {doc['lambda_up']:.4f}/"
                          f"{doc['lambda_down']:.4f} miss planted {planted['rates'][doc['series_id']]}")
    with open(out / "attention_series.csv", "rb") as handle:
        written = sum(1 for _ in handle) - 1
    if written != rows:
        errors.append(f"attention_series.csv has {written} rows for {rows} read")
    return errors[:20]


def check(w: Workload) -> dict[str, list[str]]:
    out = Path(w.ops[0].outputs[0]).parent.parent
    errors: dict[str, list[str]] = {}
    series = _series(w.inputs["pageviews"])
    features = reference_features(w.inputs["parties"], series)
    for op in w.ops:
        c = op.command
        try:
            if c == "features":
                errors[c] = check_features(out / c / "features.csv", features)
            elif c == "fit":
                errors[c] = check_fit(out / c, features, w.planted)
            elif c == "attention":
                errors[c] = check_attention(out / c, series, op.rows, w.planted)
            elif c == "report":
                errors[c] = check_report(out / c, features)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            errors[c] = [f"output unreadable: {type(exc).__name__}: {exc}"]
    return errors
