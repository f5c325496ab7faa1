"""repro — a full reproduction of VELTAIR (ASPLOS 2022).

High-performance multi-tenant deep-learning serving on a many-core CPU
via adaptive compilation (single-pass multi-version, paper Alg. 1) and
adaptive scheduling (dynamic threshold layer blocks, Alg. 2/3), rebuilt
on an analytic platform simulator.  See README.md for the system map
and the figure-by-figure reproduction record.

This package imports nothing, so every ``import repro.<module>`` loads
only what that module needs: ``python -m repro.checks`` runs on the
standard library alone.  Each public name has one import path, its
defining module (``from repro.serving.server import ServingStack``).
"""

__version__ = "1.0.0"
