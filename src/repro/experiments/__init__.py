"""Experiment harness: the paper's evaluation, reproducible end to end.

Each ``run_fig*`` function in :mod:`repro.experiments.figures` regenerates
the data behind one of the paper's evaluation figures and returns it as
plain dictionaries/arrays; :mod:`repro.experiments.resilience` sweeps the
headline scenario across fault intensities.  :mod:`repro.experiments.ledger`
runs all of them at the paper's shape, keeps every number
``EXPERIMENTS.md`` quotes in the committed ``science_ledger.json`` with a
tolerance band, and regenerates the document's tables from it
(``python -m repro ledger check|update``).
"""
