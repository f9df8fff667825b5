"""Benchmark for galloc: seeded workloads run through the CLI in-process."""
