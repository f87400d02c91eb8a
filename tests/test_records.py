"""Semantics of the records that reports rely on.

Every record is a named tuple.  ``Field``, ``Scalar``, ``Atom``, ``AtomMap``
and ``ProductOrbit`` key caches and sets in every layer, so their
immutability, hash and order decide set, dict and sort orders, and through
them the bytes of every report.  The other records are immutable and keep
the hash and ``repr`` format of a dataclass.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

import oligoperm
from oligoperm.coeff import RATIONAL, Field, Scalar, ratfunc_field
from oligoperm.frob import build_frobenius
from oligoperm.gset import LineBackend, SymBackend, preset_backend
from oligoperm.gset.base import Atom, AtomMap, ProductOrbit
from oligoperm.linmat import tensor_space
from oligoperm.measure import solve_measures
from oligoperm.report import CheckResult, Report

QT = ratfunc_field("t")


def samples():
    sym = SymBackend()
    a, b = sym.atom_of_arity(2), sym.atom_of_arity(1)
    f = sym.hom_atoms(a, b)[1]
    return {
        "Field": QT,
        "Scalar": Scalar.variable(QT) / 2,
        "Atom": a,
        "AtomMap": f,
        "ProductOrbit": sym.product_decompose(a, b)[1],
    }


@pytest.mark.parametrize("name", ["Field", "Scalar", "Atom", "AtomMap",
                                  "ProductOrbit"])
def test_records_are_immutable_and_hash_as_field_tuples(name):
    x = samples()[name]
    assert type(x).__name__ == name
    for attr in type(x)._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, attr, None)
    # a frozen dataclass hashes as its field tuple: set and dict orders, and
    # so the reports, depend on this
    assert hash(x) == hash(tuple(x))
    assert hash(x) == hash(tuple(getattr(x, attr) for attr in type(x)._fields))


@pytest.mark.parametrize("make, bound", [
    (lambda: preset_backend("S4"), 24),
    (SymBackend, 4),
    (LineBackend, 4),
], ids=["S4", "sym", "line"])
def test_atoms_sort_by_field_tuple(make, bound):
    atoms = make().atoms_up_to(bound)
    shuffled = list(atoms)
    random.Random(0).shuffle(shuffled)
    expected = sorted(atoms, key=lambda a: (a.backend_id, a.degree, a.label))
    assert sorted(shuffled) == expected


@pytest.mark.parametrize("field", [RATIONAL, QT, ratfunc_field("t", 7)],
                         ids=["Q", "Q(t)", "F7(t)"])
def test_scalar_arithmetic_with_ints_stays_scalar(field):
    s = Scalar.from_int(field, 5) if field is RATIONAL else Scalar.variable(field)
    cases = {
        "3 * s": (3 * s, s + s + s),
        "s * 3": (s * 3, s + s + s),
        "s + 1": (s + 1, s + Scalar.from_int(field, 1)),
        "1 + s": (1 + s, s + Scalar.from_int(field, 1)),
        "1 - s": (1 - s, Scalar.from_int(field, 1) - s),
        "s - 1": (s - 1, s + Scalar.from_int(field, -1)),
        "s / 2": (s / 2, s * Scalar.from_int(field, 2).inv()),
        "2 / s": (2 / s, Scalar.from_int(field, 2) * s.inv()),
    }
    for text, (value, expected) in cases.items():
        assert type(value) is Scalar, text
        assert value == expected, text
    with pytest.raises(TypeError):
        s + (1,)


def test_field_defaults():
    assert Field("rational") == RATIONAL
    assert (RATIONAL.kind, RATIONAL.char, RATIONAL.var) == ("rational", 0, "")
    assert Field._field_defaults == {"char": 0, "var": ""}
    assert repr(RATIONAL) == "Field(kind='rational', char=0, var='')"


def test_record_reprs_keep_the_dataclass_format():
    a = Atom("sym", 1, "inj[1]")
    unit = Atom("sym", 0, "inj[0]")
    f = AtomMap(a, unit, ())
    assert repr(f) == ("AtomMap(source=Atom(backend_id='sym', degree=1, "
                       "label='inj[1]'), target=Atom(backend_id='sym', "
                       "degree=0, label='inj[0]'), data=())")
    assert repr(ProductOrbit("[]", a, f, f)).startswith(
        "ProductOrbit(label='[]', atom=Atom(")


def more_samples():
    sym = SymBackend()
    x = sym.object_of([sym.atom_of_arity(1)])
    family = solve_measures(sym, 2)
    result = CheckResult("product[inj[1]*inj[1]]", False,
                         {"lhs": "t^2", "rhs": "t^2 + 1"}, note="n")
    return {
        "LinearRelation": sym.fiber_decompositions(2)[0],
        "GObject": sym.object_of([sym.atom_of_arity(2), sym.atom_of_arity(1)]),
        "GMap": sym.collapse_gmap(x),
        "PSPosition": tensor_space(sym, [x, x]).positions[1],
        "ProductSpace": tensor_space(sym, [x]),
        "FrobeniusStructure": build_frobenius(sym, x, family.field),
        "Measure": family.generic(),
        "MeasureFamily": family,
        "CheckResult": result,
        "Report": Report("measure axioms", [result]),
    }


HASHABLE = {"LinearRelation", "GObject", "GMap", "PSPosition"}


@pytest.mark.parametrize("name", sorted(more_samples()))
def test_records_keep_immutability_hash_and_repr(name):
    x = more_samples()[name]
    assert type(x).__name__ == name
    fields = type(x)._fields
    for attr in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, attr, None)
    # the repr format of a dataclass
    assert repr(x) == f"{name}(" + ", ".join(
        f"{attr}={getattr(x, attr)!r}" for attr in fields) + ")"
    if name in HASHABLE:
        assert hash(x) == hash(tuple(getattr(x, attr) for attr in fields))
    else:
        with pytest.raises(TypeError):
            hash(x)


def test_check_result_defaults():
    assert CheckResult._field_defaults == {"witness": {}, "note": ""}
    result = CheckResult("normalization", True)
    assert (result.witness, result.note) == ({}, "")
    assert result.to_dict() == {"check": "normalization", "status": "PASS"}


def test_cli_import_loads_no_dataclasses():
    """A CLI process imports neither ``dataclasses`` nor the ``inspect``
    machinery that module loads."""
    src = str(Path(oligoperm.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import oligoperm.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
