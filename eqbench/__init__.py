"""A steady end-to-end and per-layer benchmark for the equivalence engine.

Run one workload from the repository root::

    python3 eqbench/run.py --workload serve-warm --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  ``BENCHMARK.json`` at the repository root lists the workloads,
the metrics and their bounds.

The benchmark drives the program only through its public entry points
(``repro.Session``, the ``repro serve`` daemon and its wire protocol) and only
with texts generated from the seed; every answer is checked against the
frozen reference chase outside the timed phase.
"""
