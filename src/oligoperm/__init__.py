"""Exact workbench for measures and invariant-matrix calculus over
oligomorphic permutation groups.

Layers, bottom up: exact coefficient fields (coeff), combinatorial backends
for three groups (gset), measures and their axioms (measure), invariant
Schwartz-function matrix calculus (linmat), the tensor category of free
permutation objects (permcat), the Frobenius and equivalence-idempotent
structure (frob), concrete-model oracles (oracle), and a CLI (cli).

Records are named tuples; objects with state or construction logic are plain
classes.
"""

from .coeff import RATIONAL, Field, Scalar, parse_scalar, ratfunc_field
from .gset import LINE, SYM, FiniteBackend, GMap, GObject, preset_backend
from .measure import (
    Measure,
    MeasureFamily,
    check_measure_axioms,
    classify_measure,
    solve_measures,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "FiniteBackend",
    "GMap",
    "GObject",
    "LINE",
    "Measure",
    "MeasureFamily",
    "RATIONAL",
    "SYM",
    "Scalar",
    "check_measure_axioms",
    "classify_measure",
    "parse_scalar",
    "preset_backend",
    "ratfunc_field",
    "solve_measures",
]
