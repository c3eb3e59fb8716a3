"""Harness of the facelab benchmark; benchmarks/run.py is its entry point."""
