"""Party/election and turnout data model and dataset-construction rules.

One PartyObservation is one party in one election. Observations are grouped
by (country, election_date) because every share normalization happens inside
such a group. The 5% inclusion rule is a curation notice, not a filter: the
validator warns about parties that never clear the threshold but keeps them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from datetime import date

from .errors import CurationWarning, ValidationError

INCLUSION_THRESHOLD = 5.0


@dataclass(frozen=True)
class PartyObservation:
    """One party's result and attention record in one election."""

    country: str
    election_date: date
    party_id: str
    name_english: str
    name_local: str
    abbreviation: str
    is_new: bool
    is_incumbent: bool
    vote_share: float
    prev_vote_share: float | None
    news_mentions: int
    wiki_project: str
    wiki_page_title: str

    def __post_init__(self):
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
        if self.news_mentions < 0:
            raise ValidationError(f"{self.party_id}: negative news_mentions")

    @property
    def key(self) -> tuple[str, date, str]:
        return (self.country, self.election_date, self.party_id)

    @property
    def label(self) -> str:
        """The key as country/election_date/party_id, for messages."""
        return f"{self.country}/{self.election_date}/{self.party_id}"


@dataclass(frozen=True)
class ElectionGroup:
    """All parties competing in the same country on the same date."""

    country: str
    election_date: date
    observations: tuple[PartyObservation, ...]

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
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


@dataclass(frozen=True)
class Dataset:
    groups: tuple[ElectionGroup, ...]

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))

    @property
    def observations(self) -> tuple[PartyObservation, ...]:
        return tuple(obs for g in self.groups for obs in g.observations)

    def __len__(self) -> int:
        return sum(len(g.observations) for g in self.groups)


@dataclass(frozen=True)
class TurnoutRecord:
    """Aggregate attention and turnout for one language edition, two elections."""

    language_edition: str
    views_prev: int
    views_curr: int
    turnout_prev: float
    turnout_curr: float
    outlier: bool = False

    def __post_init__(self):
        if self.views_prev <= 0:
            raise ValueError(f"{self.language_edition}: views_prev must be positive")
        if self.views_curr < 0:
            raise ValueError(f"{self.language_edition}: views_curr must be non-negative")
        for label, value in (("turnout_prev", self.turnout_prev), ("turnout_curr", self.turnout_curr)):
            if not 0.0 < value <= 100.0:
                raise ValueError(f"{self.language_edition}: {label} {value} outside (0, 100]")


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


def vote_change(obs: PartyObservation) -> float:
    """Vote share minus the previous result; new parties are baselined at 0."""
    if obs.prev_vote_share is None:
        if not obs.is_new:
            raise ValidationError(f"{obs.party_id}: missing prior result")
        return obs.vote_share
    return obs.vote_share - obs.prev_vote_share
