"""Category layer: hom spaces, tensor, duality, dimensions, linearization."""

import itertools
from fractions import Fraction

import pytest

from oligoperm import permcat
from oligoperm.coeff import RATIONAL, Scalar, one
from oligoperm.gset import LINE, SYM, preset_backend
from oligoperm.linmat import (
    InvariantMatrix,
    SchwartzFn,
    column_matrix,
    identity_matrix,
    matmul,
    tensor_space,
)
from oligoperm.measure import solve_measures
from oligoperm.permcat import (
    categorical_dim,
    check_linearization,
    check_snake_identities,
    duality_data,
    hom_basis,
    hom_dimension,
    symmetry,
    tensor,
    triangle_identities,
)


@pytest.fixture(scope="module")
def mu_t():
    return solve_measures(SYM, 4).generic()


@pytest.fixture(scope="module")
def mu_line():
    return solve_measures(LINE, 4).generic()


def sym_obj(n):
    return SYM.object_of([SYM.atom_of_arity(n)])


def line_obj(n):
    return LINE.object_of([LINE.atom_of_arity(n)])


def delannoy(m, n):
    table = {}
    for i in range(m + 1):
        for j in range(n + 1):
            table[i, j] = 1 if i == 0 or j == 0 else (
                table[i - 1, j] + table[i, j - 1] + table[i - 1, j - 1])
    return table[m, n]


def test_hom_dimensions(mu_t):
    assert hom_dimension(SYM, sym_obj(1), sym_obj(1)) == 2
    assert hom_dimension(SYM, sym_obj(2), sym_obj(2)) == 7
    assert len(hom_basis(SYM, sym_obj(2), sym_obj(2), mu_t.field)) == 7


def test_line_hom_dimensions_are_delannoy():
    for n in range(4):
        for m in range(4):
            assert hom_dimension(LINE, line_obj(n), line_obj(m)) == delannoy(n, m)
    assert hom_dimension(LINE, line_obj(2), line_obj(2)) == 13
    assert hom_dimension(LINE, line_obj(3), line_obj(3)) == 63


def test_hom_dimension_symmetric(mu_t):
    for x, y in itertools.product([sym_obj(0), sym_obj(1), sym_obj(2)], repeat=2):
        assert hom_dimension(SYM, x, y) == hom_dimension(SYM, y, x)


def test_compose_unit_law(mu_t):
    x = sym_obj(2)
    ident = identity_matrix(SYM, x, mu_t.field)
    for f in hom_basis(SYM, x, x, mu_t.field):
        assert matmul(mu_t, f, ident) == f
        assert matmul(mu_t, ident, f) == f


def test_tensor_of_identities_is_identity(mu_t):
    x, y = sym_obj(1), sym_obj(2)
    idx = identity_matrix(SYM, x, mu_t.field)
    idy = identity_matrix(SYM, y, mu_t.field)
    prod = tensor_space(SYM, [x, y]).object
    assert tensor(SYM, idx, idy) == identity_matrix(SYM, prod, mu_t.field)


def test_tensor_space_decomposition(mu_t):
    prod = tensor_space(SYM, [sym_obj(1), sym_obj(1)]).object
    assert sorted(a.degree for a in prod.atoms) == [1, 2]


def test_interchange_law(mu_t):
    x = sym_obj(1)
    basis = hom_basis(SYM, x, x, mu_t.field)
    for f1, f2, g1, g2 in itertools.product(basis, repeat=4):
        lhs = matmul(mu_t, tensor(SYM, f1, g1), tensor(SYM, f2, g2))
        rhs = tensor(SYM, matmul(mu_t, f1, f2), matmul(mu_t, g1, g2))
        assert lhs == rhs


def test_symmetry_squares_to_identity(mu_t):
    x, y = sym_obj(1), sym_obj(2)
    s1 = symmetry(SYM, x, y, mu_t.field)
    s2 = symmetry(SYM, y, x, mu_t.field)
    prod = tensor_space(SYM, [x, y]).object
    assert matmul(mu_t, s2, s1) == identity_matrix(SYM, prod, mu_t.field)


def test_snake_identities(mu_t, mu_line):
    assert check_snake_identities(SYM, sym_obj(1), mu_t).passed
    assert check_snake_identities(SYM, sym_obj(2), mu_t).passed
    assert check_snake_identities(LINE, line_obj(2), mu_line).passed


def test_snake_identities_finite():
    backend = preset_backend("S3")
    measure = solve_measures(backend, 6).generic()
    for atom in backend.atoms_up_to(3):
        assert check_snake_identities(backend, backend.object_of([atom]),
                                      measure).passed


def test_triangle_identities_are_not_vacuous(mu_t, monkeypatch):
    x = sym_obj(1)
    coev, ev = duality_data(SYM, x, mu_t.field)
    doubled = coev.scale(Scalar.from_int(mu_t.field, 2))
    halved = ev.scale(Scalar.from_fraction(mu_t.field, Fraction(1, 2)))
    # both composites are twice the identity: the diagonal entry reads 2
    entry = {"target": "0", "source": "0", "orbit": "[1>1]",
             "lhs": "2", "rhs": "1"}
    assert triangle_identities(mu_t, x, doubled, ev) == (entry, entry)
    assert triangle_identities(mu_t, x, doubled, halved) == ({}, {})

    monkeypatch.setattr(permcat, "duality_data",
                        lambda backend, x, field: (doubled, ev))
    report = check_snake_identities(SYM, x, mu_t)
    assert [r.name for r in report.failures()] == ["snake-right", "snake-left"]
    for r in report.failures():
        assert r.witness == {"object": "Vec[sym:inj[1]]", **entry}


def test_unit_pushforward_names_the_wrong_coefficient(mu_t, monkeypatch):
    """Every pushforward of the constant function with its coefficient
    doubled: the FAIL names the first map, the coefficient's position and
    atom, and both values."""
    real = permcat.pushforward_fn

    def doubled(measure, gmap, fn):
        out = real(measure, gmap, fn)
        return SchwartzFn(out.carrier,
                          {p: v * 2 for p, v in out.coeffs.items()})

    monkeypatch.setattr(permcat, "pushforward_fn", doubled)
    report = check_linearization(mu_t, 2)
    assert [r.name for r in report.failures()] == ["unit-pushforward"]
    atoms = SYM.atoms_up_to(2)
    maps = sum(len(SYM.hom_atoms(a, b)) for a in atoms for b in atoms)
    # the first map is the identity of the unit atom, of measure 1
    assert report.result("unit-pushforward").witness == {
        "map": "sym:inj[0] -> sym:inj[0] ()", "position": "0",
        "atom": "sym:inj[0]", "lhs": "2", "rhs": "1",
        "failing-maps": str(maps)}


def diagonal_labels(backend, x):
    """Per atom position of x, the label of its diagonal orbit in x x x."""
    labels = []
    for a in x.atoms:
        ident = backend.identity_map(a)
        labels.append(backend.product_factor(ident, ident)[0])
    return labels


@pytest.mark.parametrize("backend", [SYM, LINE, preset_backend("S3")],
                         ids=["sym", "line", "S3"])
def test_diagonal_structure_maps_match_hand_built(backend):
    field = RATIONAL
    unit = backend.unit_object()
    a1, a2 = backend.atoms_up_to(3)[1:3]
    for x in (backend.object_of([a2]), backend.object_of([a1, a2]),
              backend.object_of([a1, a1])):
        labels = diagonal_labels(backend, x)
        ident = InvariantMatrix(backend, x, x, {
            (i, i, label): one(field) for i, label in enumerate(labels)})
        assert identity_matrix(backend, x, field) == ident

        ps2 = tensor_space(backend, [x, x])
        coev_entries, ev_entries = {}, {}
        for i, label in enumerate(labels):
            pos = ps2.index[(i, i, label)]
            atom = ps2.object.atoms[pos]
            to_unit = backend.product_decompose(atom, backend.unit_atom())
            from_unit = backend.product_decompose(backend.unit_atom(), atom)
            coev_entries[(pos, 0, to_unit[0].label)] = one(field)
            ev_entries[(0, pos, from_unit[0].label)] = one(field)
        coev, ev = duality_data(backend, x, field)
        assert coev == InvariantMatrix(backend, unit, ps2.object, coev_entries)
        assert ev == InvariantMatrix(backend, ps2.object, unit, ev_entries)


def test_categorical_dims(mu_t, mu_line):
    t = Scalar.variable(mu_t.field)
    assert categorical_dim(SYM, sym_obj(1), mu_t) == t
    assert categorical_dim(SYM, SYM.unit_object(), mu_t) == one(mu_t.field)
    assert categorical_dim(LINE, line_obj(1), mu_line) == \
        Scalar.from_int(mu_line.field, -1)


def test_dim_multiplicative_additive(mu_t):
    x, y = sym_obj(1), sym_obj(2)
    prod = tensor_space(SYM, [x, y]).object
    assert categorical_dim(SYM, prod, mu_t) == \
        categorical_dim(SYM, x, mu_t) * categorical_dim(SYM, y, mu_t)
    both = x + y
    assert categorical_dim(SYM, both, mu_t) == \
        categorical_dim(SYM, x, mu_t) + categorical_dim(SYM, y, mu_t)


def indicator_fn(x, pos, field):
    """The indicator of one atom position of x."""
    return SchwartzFn(x, {pos: one(field)})


def test_gamma_invariant_basis():
    """Hom(1, X) has the columns of X's orbit indicators as its basis, in
    atom order, on a multi-atom object and on a product space."""
    field = RATIONAL
    for backend in (SYM, LINE, preset_backend("S3")):
        unit = backend.unit_object()
        a1, a2 = backend.atoms_up_to(3)[1:3]
        prod = tensor_space(backend, [backend.object_of([a1]),
                                      backend.object_of([a2])]).object
        assert len(prod.atoms) == len(backend.product_decompose(a1, a2))
        for x in (backend.object_of([a1, a2]), prod):
            columns = [column_matrix(backend, indicator_fn(x, pos, field))
                       for pos in range(len(x.atoms))]
            assert hom_basis(backend, unit, x, field) == columns


def test_linearization_passes(mu_t, mu_line):
    report = check_linearization(mu_t, 3)
    assert report.passed, [r.name for r in report.failures()]
    report = check_linearization(mu_line, 3)
    assert report.passed, [r.name for r in report.failures()]


def test_linearization_extracts_stored_measure(mu_t):
    report = check_linearization(mu_t, 3)
    assert report.result("measure-extraction").passed
    assert report.result("unit-pushforward").passed


def test_linearization_fails_for_mutant(mu_t):
    mutant = mu_t.with_perturbed_atom(SYM.atom_of_arity(2), one(mu_t.field))
    report = check_linearization(mutant, 3)
    assert not report.passed
    assert not report.result("measure-extraction").passed
    # the maps that break the chain mu(a) = mu(f) mu(b), in check order
    atoms = SYM.atoms_up_to(3)
    broken = [(a, b, f) for a in atoms for b in atoms
              for f in SYM.hom_atoms(a, b)
              if mutant.mu_atom(a) != mutant.mu_map(f) * mutant.mu_atom(b)]
    assert len(broken) > 1
    a, b, f = broken[0]
    witness = report.result("measure-extraction").witness
    assert witness["map"] == f"{a.render()} -> {b.render()} {f.data}"
    assert witness["chain"] == "violated"
    assert witness["failing-maps"] == str(len(broken))
