"""Shared fixtures: the committed demo dataset, a canned HTTP session and a
high-precision oracle for turnout's studentized residuals."""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import pytest

from wikivote import features, ingest
from wikivote.model import validate_dataset

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


class FakeResponse:
    def __init__(self, status_code: int, payload=None, *, text: str | None = None):
        self.status_code = status_code
        self._payload = payload if payload is not None else {}
        self.text = text

    def json(self):
        # a body given as text is parsed, and so can fail as requests' json() fails
        return self._payload if self.text is None else json.loads(self.text)


class FakeSession:
    """Scripted HTTP session: pops one canned response per request."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests: list[dict] = []

    def get(self, url, headers=None, timeout=None):
        self.requests.append({"url": url, "headers": headers, "timeout": timeout})
        if not self.responses:
            raise AssertionError("FakeSession ran out of scripted responses")
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def pageview_payload(days_views):
    """REST-style payload from (date, views) pairs."""
    return {
        "items": [
            {"timestamp": day.strftime("%Y%m%d") + "00", "views": views}
            for day, views in days_views
        ]
    }


def studentized_oracle(x, y) -> list:
    """The internally studentized residuals of the line fit y ~ x on these
    floats, at 80 significant digits: an mpf each, or None where its scale
    s2 * (1 - h) is not positive."""
    with mpmath.workdps(80):
        n = len(x)
        x, y = [mpmath.mpf(v) for v in x], [mpmath.mpf(v) for v in y]
        mean_x, mean_y = mpmath.fsum(x) / n, mpmath.fsum(y) / n
        dx, dy = [v - mean_x for v in x], [v - mean_y for v in y]
        sxx = mpmath.fsum(u * u for u in dx)
        slope = mpmath.fsum(u * v for u, v in zip(dx, dy)) / sxx
        resid = [v - slope * u for u, v in zip(dx, dy)]
        s2 = mpmath.fsum(e * e for e in resid) / (n - 2)
        scales = [s2 * (1 - mpmath.mpf(1) / n - u * u / sxx) for u in dx]
        return [e / mpmath.sqrt(scale) if scale > 0 else None for e, scale in zip(resid, scales)]


def assert_residuals_match_oracle(ratios) -> int:
    """Every studentized residual of the included ratios matches the oracle to
    1e-9 relative or is None; returns how many are not None."""
    included = [r for r in ratios if not r.outlier]
    oracle = studentized_oracle([r.views_change for r in included],
                                [r.turnout_change for r in included])
    for ratio, expected in zip(included, oracle):
        if ratio.studentized_residual is not None:
            assert expected is not None, ratio
            assert ratio.studentized_residual == pytest.approx(float(expected), rel=1e-9), ratio
    return sum(r.studentized_residual is not None for r in included)


@pytest.fixture(scope="session")
def demo_dataset():
    rows = ingest.load_party_csv(DATA_DIR / "demo_parties.csv")
    return validate_dataset(rows)


@pytest.fixture(scope="session")
def demo_series():
    return ingest.load_pageviews_csv(DATA_DIR / "demo_pageviews.csv")


@pytest.fixture(scope="session")
def demo_features(demo_dataset, demo_series):
    sums = features.window_sums_from_series(demo_dataset, demo_series)
    return features.build_feature_rows(demo_dataset, sums)
