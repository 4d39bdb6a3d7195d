"""Benchmark for the xham solvers; run it with `python3 xbench/run.py`."""
