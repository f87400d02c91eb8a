"""Expression grammar for atoms, objects and maps."""

import pytest

from oligoperm.gset import LINE, SYM, preset_backend
from oligoperm.gset.grammar import parse_atom, parse_atom_map, parse_object


@pytest.fixture()
def backends():
    return {"sym": SYM, "line": LINE, "finite": preset_backend("S3")}


def test_parse_atoms(backends):
    _, atom = parse_atom(backends, "sym:inj[2]")
    assert atom.degree == 2
    _, atom = parse_atom(backends, "line:inc[3]")
    assert atom.degree == 3
    _, atom = parse_atom(backends, "finite:orbit#2")
    assert atom.label == "orbit#2"


def test_parse_object_sum(backends):
    backend, obj = parse_object(backends, "sym:inj[1] + sym:inj[2]")
    assert backend is SYM
    assert [a.degree for a in obj.atoms] == [1, 2]


def test_parse_empty_object(backends):
    _, obj = parse_object(backends, "line:0")
    assert obj.atoms == ()


@pytest.mark.parametrize("text", ["sym:inj[1] + line:0", "line:0 + sym:inj[1]",
                                  "sym:0 + line:0"])
def test_parse_object_refuses_an_empty_summand_of_another_backend(backends,
                                                                  text):
    with pytest.raises(ValueError, match="mixed backends"):
        parse_object(backends, text)


def test_parse_selection_map(backends):
    backend, m = parse_atom_map(backends, "sym:inj[2] -> sym:inj[1] : [2]")
    assert m.data == (2,)


def test_parse_drop_map(backends):
    backend, m = parse_atom_map(backends, "line:inc[3] -> line:inc[2] : drop{2}")
    assert m.data == (1, 3)


def test_parse_rejects_non_equivariant(backends):
    with pytest.raises(ValueError):
        parse_atom_map(backends, "line:inc[2] -> line:inc[1] : [3]")
    with pytest.raises(ValueError):
        parse_atom_map(backends, "sym:inj[1] -> sym:inj[1] : [2]")


def test_parse_finite_point_map(backends):
    s3 = backends["finite"]
    atoms = s3.atoms_up_to(6)
    a, b = atoms[3], atoms[1]
    m = s3.hom_atoms(a, b)[0]
    text = (f"finite:{a.label} -> finite:{b.label} : "
            "pt[" + ",".join(str(i) for i in m.data) + "]")
    _, parsed = parse_atom_map(backends, text)
    assert parsed == m
