"""Shared check-report structures.

Checkers return lists of CheckResult; a result is PASS or FAIL, and failures
carry a witness dictionary whose values are plain strings (canonical labels
and rendered scalars) so a failure is reproducible from the report alone.

A check over many instances reports through ``verdict``: it collects one
entry per failing instance, in the order it visits them, each naming its
instance (atoms by ``render()``, atom maps by their ``data``).  Its witness
is the first failing instance with, under a ``failing-<what>`` key, how
many instances failed.

A check that compares two sides reports through ``equality``, and a check
over many instances adds ``difference`` of the two sides to its failure
entry.  Matrices, invariant functions and literal matrices (``{(row,
column): value}``) keep no zero entry, so two sides, scalars too, are equal
exactly when ``==`` holds.  When they are not, the witness is the first
key, in sorted order, at which the two differ: ``target``, ``source`` and
``orbit`` (positions and orbit label) for a matrix, ``position`` and
``atom`` for a function, ``row`` and ``column`` for a literal matrix and
nothing for a scalar, with both values rendered under ``lhs`` and ``rhs``
(a missing entry renders as ``0``).  Sides of different shapes give
``lhs-shape`` and ``rhs-shape`` instead, each object rendered by its
``render()`` (a ``linmat.RowProduct`` by its factors).
"""

from __future__ import annotations

from typing import NamedTuple


class CheckResult(NamedTuple):
    """One check's verdict.  A result without a witness shares one empty
    dict as its default: no code mutates a witness once its result is
    built."""

    name: str
    passed: bool
    witness: dict = {}
    note: str = ""

    @property
    def status(self):
        return "PASS" if self.passed else "FAIL"

    def to_dict(self):
        out = {"check": self.name, "status": self.status}
        if self.note:
            out["note"] = self.note
        if self.witness:
            out["witness"] = self.witness
        return out


def verdict(name, failures, counted, note=""):
    """A check that passes when failures is empty; otherwise its witness is
    the first failure with the number of failures under
    ``failing-<counted>``."""
    witness = {}
    if failures:
        witness = dict(failures[0])
        witness[f"failing-{counted}"] = str(len(failures))
    return CheckResult(name, not failures, witness, note=note)


def _parts(side):
    """One side of a comparison: its shape (the objects it lives on), its
    entries and the witness keys that name an entry."""
    if isinstance(side, dict):  # a literal matrix
        return (), side, lambda key: {"row": str(key[0]), "column": str(key[1])}
    if hasattr(side, "entries"):  # an InvariantMatrix
        return (side.source, side.target), side.entries, lambda key: {
            "target": str(key[0]), "source": str(key[1]), "orbit": key[2]}
    if hasattr(side, "coeffs"):  # a SchwartzFn
        return (side.carrier,), side.coeffs, lambda pos: {
            "position": str(pos), "atom": side.carrier.atoms[pos].render()}
    return (), {(): side}, lambda key: {}  # a scalar


def difference(lhs, rhs):
    """{} when lhs == rhs; otherwise the first differing entry with both
    sides rendered, or both shapes when they differ."""
    if lhs == rhs:
        return {}
    (shape, left, name), (rshape, right, _) = _parts(lhs), _parts(rhs)
    if shape != rshape:
        return {f"{side}-shape": " -> ".join(o.render() for o in objects)
                for side, objects in (("lhs", shape), ("rhs", rshape))}
    key = min(k for k in left.keys() | right.keys()
              if left.get(k) != right.get(k))
    witness = name(key)
    for side, entries in (("lhs", left), ("rhs", right)):
        witness[side] = entries[key].render() if key in entries else "0"
    return witness


def equality(name, lhs, rhs):
    """A check that passes when lhs == rhs; otherwise its witness is
    ``difference(lhs, rhs)``."""
    witness = difference(lhs, rhs)
    return CheckResult(name, not witness, witness)


class Report(NamedTuple):
    title: str
    results: list

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.passed]

    def result(self, name):
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)
