"""Window sums, share normalization and subsetting."""

from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikivote.errors import ComputationError
from wikivote.features import (
    FeatureRow,
    WindowViews,
    build_feature_rows,
    subset_small,
    window_sums_from_series,
    window_views,
)
from wikivote.ingest import PageViewSeries
from wikivote.model import validate_dataset

from test_model import obs

ELECTION = date(2014, 5, 25)


def series_for(daily, title="X", project="aa.wikipedia"):
    return PageViewSeries(project, title, daily)


class TestWindowViews:
    def test_full_week_before_election(self):
        daily = {ELECTION - timedelta(days=i): 100 for i in range(1, 8)}
        daily[ELECTION] = 9999  # election day itself must not count
        daily[ELECTION - timedelta(days=8)] = 9999  # nor the day before the window
        result = window_views(series_for(daily), ELECTION)
        assert result == WindowViews(total=700, days_covered=7, window_days=7)

    def test_partial_coverage_reported_not_imputed(self):
        daily = {ELECTION - timedelta(days=i): 100 for i in (1, 3, 5, 6, 7)}
        result = window_views(series_for(daily), ELECTION)
        assert result == WindowViews(total=500, days_covered=5, window_days=7)

    def test_empty_window_is_an_error(self):
        daily = {ELECTION + timedelta(days=2): 100}
        with pytest.raises(ComputationError, match="no data in window"):
            window_views(series_for(daily), ELECTION)

    def test_window_length_is_configurable(self):
        daily = {ELECTION - timedelta(days=i): 10 for i in range(1, 31)}
        result = window_views(series_for(daily), ELECTION, window_days=14)
        assert result == WindowViews(total=140, days_covered=14, window_days=14)


class TestShares:
    def dataset(self, mentions=(600, 300, 100)):
        rows = [
            obs("p1", share=40.0, mentions=mentions[0]),
            obs("p2", share=30.0, mentions=mentions[1]),
            obs("p3", share=10.0, mentions=mentions[2]),
        ]
        return validate_dataset(rows)

    def traffic_shares(self, views):
        """wiki_share by party from build_feature_rows, given plain-number window sums."""
        dataset = self.dataset()
        sums = {o.key: views[o.party_id] for o in dataset.observations if o.party_id in views}
        return {row.party_id: row.wiki_share for row in build_feature_rows(dataset, sums)}

    def news_shares(self, mentions):
        """news_share by party from build_feature_rows, given each party's news mentions."""
        dataset = self.dataset(mentions)
        sums = {o.key: 100.0 for o in dataset.observations}
        return {row.party_id: row.news_share for row in build_feature_rows(dataset, sums)}

    def test_traffic_shares_normalize_to_100(self):
        shares = self.traffic_shares({"p1": 500.0, "p2": 250.0, "p3": 250.0})
        assert shares == {"p1": 50.0, "p2": 25.0, "p3": 25.0}
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)

    def test_news_shares_normalize_to_100(self):
        shares = self.news_shares((600, 300, 100))
        assert shares["p1"] == pytest.approx(60.0)
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)

    def test_missing_party_is_named(self):
        with pytest.raises(ComputationError, match="Arcadia/2014-05-25/p3"):
            self.traffic_shares({"p1": 500.0, "p2": 250.0})

    def test_zero_total_is_an_error(self):
        with pytest.raises(ComputationError, match="^group Arcadia/2014-05-25: zero total"):
            self.traffic_shares({"p1": 0.0, "p2": 0.0, "p3": 0.0})
        with pytest.raises(ComputationError,
                           match="^group Arcadia/2014-05-25: zero total: cannot compute news"):
            self.news_shares((0, 0, 0))

    @given(
        counts=st.lists(st.floats(min_value=0.5, max_value=1e7), min_size=3, max_size=3),
        scale=st.floats(min_value=1e-3, max_value=1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_shares_are_scale_invariant(self, counts, scale):
        base = self.traffic_shares(dict(zip(("p1", "p2", "p3"), counts)))
        scaled = self.traffic_shares({k: v * scale for k, v in zip(("p1", "p2", "p3"), counts)})
        for party in base:
            assert scaled[party] == pytest.approx(base[party], rel=1e-12)
        assert sum(base.values()) == pytest.approx(100.0, abs=1e-9)


class TestBuildFeatureRows:
    def test_demo_dataset_produces_59_rows(self, demo_features):
        assert len(demo_features) == 59

    def test_group_shares_sum_to_100(self, demo_features):
        by_group = {}
        for row in demo_features:
            by_group.setdefault((row.country, row.election_date), []).append(row)
        assert len(by_group) == 10
        for rows in by_group.values():
            assert sum(r.wiki_share for r in rows) == pytest.approx(100.0, abs=1e-9)
            assert sum(r.news_share for r in rows) == pytest.approx(100.0, abs=1e-9)

    def test_new_party_change_equals_share(self, demo_features):
        new_rows = [r for r in demo_features if r.new_party == 1]
        assert new_rows
        for row in new_rows:
            assert row.vote_change == pytest.approx(row.vote_share)

    def test_missing_window_sum_is_an_error(self, demo_dataset, demo_series):
        sums = window_sums_from_series(demo_dataset, demo_series)
        victim = demo_dataset.observations[0].key
        del sums[victim]
        with pytest.raises(ComputationError, match="missing window sum"):
            build_feature_rows(demo_dataset, sums)

    def test_plain_floats_work_as_window_sums(self, demo_dataset):
        sums = {o.key: 100.0 for o in demo_dataset.observations}
        rows = build_feature_rows(demo_dataset, sums)
        group_sizes = {len(g.observations) for g in demo_dataset.groups}
        assert {round(r.wiki_share, 6) for r in rows} == {
            round(100.0 / size, 6) for size in group_sizes
        }

    def test_missing_series_is_named(self, demo_dataset, demo_series):
        trimmed = demo_series[:-1]
        dropped = demo_series[-1]
        with pytest.raises(ComputationError, match=dropped.page_title.split()[0]):
            window_sums_from_series(demo_dataset, trimmed)


class TestSubsetSmall:
    def row(self, share):
        return FeatureRow(
            party_id=f"p{share}", country="Arcadia", election_date=ELECTION,
            wiki_share=10.0, news_share=10.0, new_party=0, incumbent=0,
            vote_share=share, vote_change=0.0,
        )

    def test_boundary_is_strict(self):
        rows = [self.row(14.999), self.row(15.0), self.row(15.001), self.row(5.0)]
        kept = subset_small(rows)
        assert [r.vote_share for r in kept] == [14.999, 5.0]

    def test_custom_threshold(self):
        rows = [self.row(4.0), self.row(8.0)]
        assert [r.vote_share for r in subset_small(rows, threshold=5.0)] == [4.0]

    def test_partition_with_complement(self, demo_features):
        small = subset_small(demo_features)
        assert len(small) == 35
        assert len([r for r in demo_features if r.vote_share >= 15.0]) == 24


class TestFeatureRow:
    def test_indicator_domain(self):
        with pytest.raises(ValueError):
            FeatureRow(
                party_id="p", country="A", election_date=ELECTION,
                wiki_share=10.0, news_share=10.0, new_party=2, incumbent=0,
                vote_share=10.0, vote_change=0.0,
            )
