"""Benchmark harness: workloads (``workloads``), index factories and the
operational sweeps (``harness``), plain-text tables (``report``)."""
