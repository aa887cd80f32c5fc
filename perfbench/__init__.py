"""Benchmark of agglolab: three workloads, end-to-end and per-layer metrics.

See README.md in this directory for the workloads, the metrics and how to
run it.
"""
