"""Benchmark harness for promptmt; see run.py."""
