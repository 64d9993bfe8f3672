"""Statistical analysis across repeated runs.

The paper evaluates single simulation runs (standard for its venue and
era).  This package adds the modern hygiene on top: run a scenario across
several master seeds, aggregate the metrics, and attach confidence
intervals, so claims like "CoCoA beats RF-only" can be checked for seed
sensitivity rather than asserted from one sample path.
"""
