"""Party/election and turnout data model and dataset-construction rules.

One PartyObservation is one party in one election. Observations are grouped
by (country, election_date) because every share normalization happens inside
such a group. The 5% inclusion rule is a curation notice, not a filter: the
validator warns about parties that never clear the threshold but keeps them.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from datetime import date

from .errors import CurationWarning, ValidationError

INCLUSION_THRESHOLD = 5.0


class Checked:
    """Base of a named tuple whose __new__ checks its values: this _make, and so
    _replace, builds through __new__, where a named tuple's own goes past it."""

    __slots__ = ()

    @classmethod
    def _make(cls, values):
        return cls(*values)


class PartyObservation(Checked, namedtuple("PartyObservation", (
        "country election_date party_id name_english name_local abbreviation is_new "
        "is_incumbent vote_share prev_vote_share news_mentions wiki_project wiki_page_title"))):
    """One party's result and attention record in one election; prev_vote_share
    is None for a new party."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.vote_share <= 100.0:
            raise ValidationError(
                f"{self.party_id}: vote_share {self.vote_share} outside [0, 100]"
            )
        if self.prev_vote_share is not None and not 0.0 <= self.prev_vote_share <= 100.0:
            raise ValidationError(
                f"{self.party_id}: prev_vote_share {self.prev_vote_share} outside [0, 100]"
            )
        if self.is_new and self.prev_vote_share not in (None, 0.0):
            raise ValidationError(
                f"{self.party_id}: a new party cannot carry a prior vote share "
                f"({self.prev_vote_share})"
            )
        if not self.is_new and self.prev_vote_share is None:
            raise ValidationError(f"{self.party_id}: missing prior result for an established party")
        if self.news_mentions < 0:
            raise ValidationError(f"{self.party_id}: negative news_mentions")
        return self

    @property
    def key(self) -> tuple[str, date, str]:
        return (self.country, self.election_date, self.party_id)

    @property
    def label(self) -> str:
        """The key as country/election_date/party_id, for messages."""
        return f"{self.country}/{self.election_date}/{self.party_id}"


class ElectionGroup(Checked, namedtuple("ElectionGroup", "country election_date observations")):
    """All parties competing in the same country on the same date."""

    __slots__ = ()

    def __new__(cls, country, election_date, observations):
        self = super().__new__(cls, country, election_date, tuple(observations))
        if len(self.observations) < 2:
            raise ValidationError(
                f"group {self.country}/{self.election_date}: needs at least 2 parties, "
                f"got {len(self.observations)} (share normalization undefined)"
            )
        for obs in self.observations:
            if obs.country != self.country or obs.election_date != self.election_date:
                raise ValidationError(
                    f"observation {obs.party_id} does not belong to group "
                    f"{self.country}/{self.election_date}"
                )
        return self


class Dataset:
    """The election groups of a dataset; its len() is the number of observations."""

    __slots__ = ("groups",)

    def __init__(self, groups):
        self.groups = tuple(groups)

    def __eq__(self, other):
        return self.groups == other.groups if isinstance(other, Dataset) else NotImplemented

    @property
    def observations(self) -> tuple[PartyObservation, ...]:
        return tuple(obs for g in self.groups for obs in g.observations)

    def __len__(self) -> int:
        return sum(len(g.observations) for g in self.groups)


class TurnoutRecord(Checked, namedtuple("TurnoutRecord", (
        "language_edition views_prev views_curr turnout_prev turnout_curr outlier"),
        defaults=(False,))):
    """Aggregate attention and turnout for one language edition, two elections."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.views_prev <= 0:
            raise ValidationError(f"{self.language_edition}: views_prev must be positive")
        if self.views_curr < 0:
            raise ValidationError(f"{self.language_edition}: views_curr must be non-negative")
        for label, value in (("turnout_prev", self.turnout_prev), ("turnout_curr", self.turnout_curr)):
            if not 0.0 < value <= 100.0:
                raise ValidationError(f"{self.language_edition}: {label} {value} outside (0, 100]")
        return self


def validate_dataset(raw_rows) -> Dataset:
    """Group rows into elections and enforce the dataset invariants.

    Rejects duplicate (country, election_date, party_id) keys and groups with
    fewer than two parties. Parties whose best vote share across all their
    appearances never reaches the inclusion threshold draw a CurationWarning
    but stay in the dataset; exactly 5.0 counts as reaching it.
    """
    rows = list(raw_rows)
    seen: set[tuple[str, date, str]] = set()
    for obs in rows:
        if obs.key in seen:
            raise ValidationError(f"duplicate observation key {obs.label}")
        seen.add(obs.key)

    best_share: dict[tuple[str, str], float] = {}
    for obs in rows:
        party = (obs.country, obs.party_id)
        best_share[party] = max(best_share.get(party, 0.0), obs.vote_share)
    for (country, party_id), best in sorted(best_share.items()):
        if best < INCLUSION_THRESHOLD:
            warnings.warn(
                f"party {party_id} ({country}) never clears {INCLUSION_THRESHOLD}% "
                f"(best {best}%); kept, but outside the usual inclusion rule",
                CurationWarning,
                stacklevel=2,
            )

    by_group: dict[tuple[str, date], list[PartyObservation]] = {}
    for obs in rows:
        by_group.setdefault((obs.country, obs.election_date), []).append(obs)

    groups = tuple(
        ElectionGroup(
            country=country,
            election_date=election_date,
            observations=tuple(sorted(members, key=lambda o: o.party_id)),
        )
        for (country, election_date), members in sorted(by_group.items())
    )
    return Dataset(groups=groups)
