"""Closed-loop benchmark of the ta2n pipeline; run it with ``python3 bench/run.py``."""
