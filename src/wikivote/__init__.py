"""Election forecasting from Wikipedia page-view and news-mention shares."""

__version__ = "0.1.0"
