"""Finite representations of the flexible red/blue relation-algebra family.

Exact boolean-cube constructions, randomized split search, edge-coloring
verification, and SAT-based lower-bound certification for the algebras
with one flexible red color and n blues.
"""

__version__ = "0.1.0"
