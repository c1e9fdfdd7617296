"""The model grid and the analysis constants.

Model ids follow a fixed grid: the 1.x family predicts absolute vote share,
the 2.x family predicts vote change; x.0/x.1 fit all parties without/with the
page-view terms, x.2/x.3 repeat that on the small-party subset.

The command line builds its parser from this module alone, so that commands
which fit nothing (features, ingest, --help, usage errors) never load
forecast and stats.
"""

from __future__ import annotations

from dataclasses import dataclass

BASE_TERMS = ("Intercept", "News", "New Party", "Incumbency", "News x Incumbency")
WIKI_TERMS = ("Wikipedia", "New Party x Wikipedia")

ATTENTION_WINDOW_DAYS = 30
MIN_FIT_DAYS = 5


@dataclass(frozen=True)
class ModelSpec:
    id: str
    dependent: str
    include_wikipedia: bool
    subset: str

    @classmethod
    def from_id(cls, model_id: str) -> "ModelSpec":
        if model_id not in MODEL_GRID:
            raise ValueError(
                f"unknown model id {model_id!r}; valid ids: {', '.join(MODEL_IDS)}"
            )
        return MODEL_GRID[model_id]

    @property
    def term_names(self) -> tuple[str, ...]:
        return BASE_TERMS + WIKI_TERMS if self.include_wikipedia else BASE_TERMS

    @property
    def covariates(self) -> tuple[str, ...]:
        """The row fields the design is built from."""
        base = ("news_share", "new_party", "incumbent")
        return base + ("wiki_share",) if self.include_wikipedia else base

    @property
    def outcome_range(self) -> tuple[float, float]:
        """Plausible outcomes: [0, 100] for vote share, [-100, 100] for vote change."""
        return (0.0, 100.0) if self.dependent == "vote_share" else (-100.0, 100.0)


MODEL_GRID = {
    spec.id: spec
    for spec in (
        ModelSpec("1.0", "vote_share", False, "all"),
        ModelSpec("1.1", "vote_share", True, "all"),
        ModelSpec("1.2", "vote_share", False, "small_parties"),
        ModelSpec("1.3", "vote_share", True, "small_parties"),
        ModelSpec("2.0", "vote_change", False, "all"),
        ModelSpec("2.1", "vote_change", True, "all"),
        ModelSpec("2.2", "vote_change", False, "small_parties"),
        ModelSpec("2.3", "vote_change", True, "small_parties"),
    )
}
MODEL_IDS = tuple(MODEL_GRID)
