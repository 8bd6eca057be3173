"""Benchmark of the simulated Broadcast CONGEST round; see ``run.py``."""
