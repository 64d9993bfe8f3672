"""The repository benchmark (see run.py)."""
