"""The repo benchmark: seven workloads, end-to-end and per-layer numbers.

See ``README.md`` in this directory; ``python3 benchmarks/perf/run.py``
(or ``PYTHONPATH=src python -m benchmarks.perf``) is the one command.
"""
