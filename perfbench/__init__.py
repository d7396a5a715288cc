"""Benchmark for the pushfold CLI: workloads, output checks and tracing."""
