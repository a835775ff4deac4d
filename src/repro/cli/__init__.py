"""``repro.cli`` — command-line interface to the QuadraLib reproduction.

The CLI is a shell over :mod:`repro.experiment`: a single declarative JSON
spec drives build → fit → evaluate → profile → ppml, and the component
registries are browsable by name::

    python -m repro run spec.json --out results.json   # execute a spec
    python -m repro run smoke                          # bundled preset
    python -m repro list models                        # registry listings
    python -m repro list neurons
    python -m repro list datasets
    python -m repro profile smoke --per-layer          # params / MACs / memory
    python -m repro neurons                            # Table-1 view
    python -m repro train --resume ckpts/latest.npz    # finish an interrupted run

``infer``, ``secure-infer``, ``serve``, ``plan`` and ``profile`` take the same
``SPEC`` argument as ``run``.  Every subcommand prints fixed-width tables (the
same renderer the benchmark harness uses) and exits with status 0 on success.
"""

from .main import build_parser, main

__all__ = ["main", "build_parser"]
