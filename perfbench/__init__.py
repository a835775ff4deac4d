"""The repository's benchmark: ``python3 perfbench/run.py --workload <name>``.

See ``perfbench/run.py`` for usage and ``perfbench/catalog.py`` for the
workloads and metric names.
"""
