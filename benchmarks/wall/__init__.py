"""Wall-clock benchmark of the reproduction (see README.md and run.py)."""
