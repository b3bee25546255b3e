"""Benchmark of airylab: seeded workloads, oracles, a traced per-layer run."""
