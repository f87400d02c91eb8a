"""Combinatorial backends: atoms, equivariant maps, products, fiber products."""

from .base import (
    Atom,
    AtomMap,
    Backend,
    GMap,
    GObject,
    LinearRelation,
    ProductOrbit,
    atom_gmap,
)
from .finite import FiniteBackend, parse_cycles, preset_backend
from .line import LineBackend
from .symmetric import SymBackend

SYM = SymBackend()
LINE = LineBackend()

__all__ = [
    "Atom",
    "AtomMap",
    "Backend",
    "FiniteBackend",
    "GMap",
    "GObject",
    "LINE",
    "LinearRelation",
    "ProductOrbit",
    "SYM",
    "SymBackend",
    "LineBackend",
    "atom_gmap",
    "parse_cycles",
    "preset_backend",
]
