"""Benchmark of knotqc; see README.md in this directory."""
