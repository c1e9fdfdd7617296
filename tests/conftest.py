"""Shared fixtures: the committed demo dataset and a canned HTTP session."""

from __future__ import annotations

import json
from pathlib import Path

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
