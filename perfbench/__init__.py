"""perfbench: end-to-end and per-layer benchmark of this repository.

Two workloads drive the threaded loader (``repro.core``, the system), three
drive the discrete-event simulator (``repro.sim``, the instrument).  The
metric names, units, directions and regression bounds are fixed in
``BENCHMARK.json`` at the repository root; ``perfbench/README.md`` is the
glossary.  Nothing under ``src/`` knows this package exists: every number is
taken from outside, through the public API listed in the README.
"""
