"""Experiment harness: the paper's evaluation, reproducible end to end.

Each ``run_fig*`` function in :mod:`repro.experiments.figures` regenerates
the data behind one of the paper's evaluation figures and returns it as
plain dictionaries/arrays; :mod:`repro.experiments.resilience` sweeps the
headline scenario across fault intensities.  :mod:`repro.experiments.ledger`
runs all of them at the paper's shape, keeps every number
``EXPERIMENTS.md`` quotes in the committed ``science_ledger.json`` with a
tolerance band, and regenerates the document's tables from it
(``python -m repro ledger check|update``).

The package namespace re-exports only modules that do not import the
sweep orchestrator: :mod:`repro.orchestrator.executor` imports
:mod:`repro.experiments.runner`, so re-exporting a sweep runner here
would close an import cycle.
"""

from repro.experiments.metrics import (
    ErrorSummary,
    cdf_points,
    summarize_errors,
)
from repro.experiments.presets import (
    fig4_config,
    fig6_config,
    fig7_config,
    fig9_config,
    fig10_config,
    headline_config,
)
from repro.experiments.runner import run_scenario

__all__ = [
    "ErrorSummary",
    "summarize_errors",
    "cdf_points",
    "headline_config",
    "fig4_config",
    "fig6_config",
    "fig7_config",
    "fig9_config",
    "fig10_config",
    "run_scenario",
]
