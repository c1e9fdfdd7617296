"""Dataset validation rules: grouping, duplicates, the 5% notice, vote change."""

import warnings
from datetime import date

import pytest

from wikivote.errors import CurationWarning, ValidationError
from wikivote.model import PartyObservation, validate_dataset, vote_change


def obs(party_id="p1", country="Arcadia", when=date(2014, 5, 25), share=20.0,
        prev=15.0, new=False, incumbent=False, mentions=100):
    return PartyObservation(
        country=country,
        election_date=when,
        party_id=party_id,
        name_english=f"{party_id} Party",
        name_local=f"Partio {party_id}",
        abbreviation=party_id.upper(),
        is_new=new,
        is_incumbent=incumbent,
        vote_share=share,
        prev_vote_share=prev,
        news_mentions=mentions,
        wiki_project="aa.wikipedia",
        wiki_page_title=f"{party_id} Party",
    )


class TestPartyObservation:
    def test_share_range_enforced(self):
        with pytest.raises(ValidationError):
            obs(share=101.0)
        with pytest.raises(ValidationError):
            obs(share=-0.1)
        with pytest.raises(ValidationError):
            obs(prev=120.0)

    def test_new_party_cannot_carry_prior_share(self):
        with pytest.raises(ValidationError):
            obs(new=True, prev=8.0)
        # None and an explicit zero are both acceptable for a debut
        obs(new=True, prev=None)
        obs(new=True, prev=0.0)

    def test_negative_mentions_rejected(self):
        with pytest.raises(ValidationError):
            obs(mentions=-1)

    def test_key(self):
        assert obs().key == ("Arcadia", date(2014, 5, 25), "p1")


class TestValidateDataset:
    def two_party_rows(self):
        return [obs("p1", share=40.0), obs("p2", share=30.0)]

    def test_duplicate_key_rejected(self):
        rows = [obs("p1"), obs("p1")]
        with pytest.raises(ValidationError, match="duplicate"):
            validate_dataset(rows)

    def test_duplicate_key_is_named_as_a_path(self):
        with pytest.raises(ValidationError, match="key Arcadia/2014-05-25/p1$"):
            validate_dataset([obs("p1"), obs("p2"), obs("p1")])

    def test_single_party_group_rejected(self):
        with pytest.raises(ValidationError, match="at least 2"):
            validate_dataset([obs("p1")])

    def test_groups_sorted_and_members_sorted(self):
        rows = [
            obs("z9", country="Borduria", share=30.0),
            obs("a1", country="Borduria", share=40.0),
            obs("p1", country="Arcadia", share=25.0),
            obs("p2", country="Arcadia", share=20.0),
            obs("p1", country="Arcadia", when=date(2009, 6, 7), share=22.0),
            obs("p2", country="Arcadia", when=date(2009, 6, 7), share=18.0),
        ]
        ds = validate_dataset(rows)
        assert [(g.country, g.election_date) for g in ds.groups] == [
            ("Arcadia", date(2009, 6, 7)),
            ("Arcadia", date(2014, 5, 25)),
            ("Borduria", date(2014, 5, 25)),
        ]
        assert [o.party_id for o in ds.groups[2].observations] == ["a1", "z9"]
        assert len(ds) == 6

    def test_validation_is_idempotent(self):
        rows = self.two_party_rows()
        once = validate_dataset(rows)
        twice = validate_dataset(list(once.observations))
        assert once == twice

    def test_observations_partition_into_groups(self):
        rows = self.two_party_rows() + [
            obs("q1", country="Borduria", share=20.0),
            obs("q2", country="Borduria", share=10.0),
        ]
        ds = validate_dataset(rows)
        assert sorted(o.key for o in ds.observations) == sorted(o.key for o in rows)

    def test_low_share_party_warns_but_stays(self):
        rows = self.two_party_rows() + [obs("tiny", share=1.2, prev=0.8)]
        with pytest.warns(CurationWarning, match="tiny"):
            ds = validate_dataset(rows)
        assert len(ds) == 3

    def test_breakout_party_never_warns(self):
        # below the threshold in the earlier election, above it later:
        # the best appearance decides, so no notice is expected
        rows = [
            obs("big", when=date(2009, 6, 7), share=40.0),
            obs("riser", when=date(2009, 6, 7), share=2.1, prev=None, new=True),
            obs("big", share=35.0),
            obs("riser", share=27.5, prev=2.1),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", CurationWarning)
            validate_dataset(rows)

    def test_exactly_five_percent_default_comparator(self):
        rows = self.two_party_rows() + [obs("edge", share=5.0, prev=3.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", CurationWarning)
            validate_dataset(rows)


class TestVoteChange:
    def test_established_party_differences(self):
        assert vote_change(obs(share=26.6, prev=8.0)) == pytest.approx(18.6)
        assert vote_change(obs(share=10.0, prev=14.5)) == pytest.approx(-4.5)

    def test_new_party_baselined_at_zero(self):
        assert vote_change(obs(share=7.3, prev=None, new=True)) == pytest.approx(7.3)
        assert vote_change(obs(share=7.3, prev=0.0, new=True)) == pytest.approx(7.3)

    def test_missing_prior_for_established_party(self):
        with pytest.raises(ValidationError, match="missing prior"):
            vote_change(obs(prev=None))
