"""Track news-story URIs across search result pages and measure churn.

What commands and library callers use is importable from the package root,
but a name's module loads only when the name is first used (PEP 562), so a
command that never fits or parses loads neither the fitter nor the scanner.
The error classes load the same way: ``import serpchurn`` loads only this
module. Names only tests use, such as the oracle's, stay in their modules.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each public name.
_HOMES = {
    "CollectionManifest": "model",
    "CollectionStore": "store",
    "ChurnReport": "metrics",
    "FetchPlan": "serp_io",
    "FixtureNotFound": "errors",
    "InsufficientDataError": "errors",
    "RateLimited": "errors",
    "RefindabilityModel": "fitting",
    "ReportCell": "metrics",
    "SerpChurnError": "errors",
    "SerpParseError": "errors",
    "SerpResult": "model",
    "SerpSnapshot": "model",
    "StoreMismatchError": "errors",
    "StoreMissingError": "errors",
    "StoryTimeline": "model",
    "SynthParams": "synth",
    "TransitionEstimate": "metrics",
    "TransportError": "errors",
    "UnderdeterminedFitError": "errors",
    "UndefinedRateError": "errors",
    "UriParseError": "errors",
    "ValidationError": "errors",
    "Vertical": "model",
    "build_snapshot": "serp_io",
    "canonicalize": "model",
    "compute_rates": "metrics",
    "compute_refind": "metrics",
    "compute_report": "metrics",
    "dedup_snapshot": "model",
    "eval_model": "fitting",
    "fit_exponential": "fitting",
    "generate": "synth",
    "new_story_rate": "metrics",
    "open_store": "store",
    "overlap": "metrics",
    "parse_serp_html": "serp_io",
    "recall": "metrics",
    "refind_points": "fitting",
    "replacement_rate": "metrics",
    "report_to_csv": "metrics",
    "transition_matrix": "metrics",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    """Import a public name's module on first use and keep the name here."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
