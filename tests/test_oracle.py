"""The concrete-model oracles against plain reference implementations.

The references here are the direct definitions: a union-find over tuple
points with a callable action, the group acting on cosets as frozensets, a
literal matrix filled one entry at a time, and a dense triple-loop matrix
product.  The oracles encode points as integers, tabulate actions and keep
literal matrices sparse; these tests pin them to the definitions, and the
probes at the end check that a wrong answer makes the oracle FAIL.
"""

import itertools
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from oligoperm import frob, oracle, permcat, suite
from oligoperm.coeff import RATIONAL, Scalar, one, ratfunc_field, zero
from oligoperm.gset import SYM, SymBackend
from oligoperm.gset.finite import _pcompose, preset_backend
from oligoperm.linmat import InvariantMatrix, matmul
from oligoperm.measure import solve_measures
from oligoperm.oracle import (
    expand_finite_matrix,
    expand_sym_matrix,
    finite_category_oracle,
    finite_orbit_count_on_pairs,
    finite_points,
    literal_product,
    sym_model_points,
    sym_orbit_count_model,
)
from oligoperm.permcat import hom_basis, tensor
from oligoperm.suite import run_suite

GROUPS = ("S3", "C2x4", "S4")


@pytest.fixture(scope="module", params=GROUPS)
def group(request):
    return preset_backend(request.param)


def reference_count_orbits(points, generators, act):
    """Orbits of a finite action on hashable points, by union-find over the
    generators' moves; ``act(g, p)`` is the image of p under g."""
    index = {p: i for i, p in enumerate(points)}
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p, i in index.items():
        for g in generators:
            ri, rq = find(i), find(index[act(g, p)])
            if ri != rq:
                parent[ri] = rq
    return len({find(i) for i in range(len(points))})


def reference_sym_orbit_count(n_points, n, m):
    transposition = list(range(n_points))
    transposition[0], transposition[1] = 1, 0
    gens = [tuple(transposition),
            tuple((i + 1) % n_points for i in range(n_points))]
    pairs = [(u, x)
             for u in itertools.permutations(range(n_points), n)
             for x in itertools.permutations(range(n_points), m)]
    return reference_count_orbits(
        pairs, gens,
        lambda g, p: (tuple(g[a] for a in p[0]), tuple(g[a] for a in p[1])))


@pytest.mark.parametrize("n, m", [(n, m) for n in range(4) for m in range(4)])
def test_sym_orbit_count_matches_reference(n, m):
    assert sym_orbit_count_model(8, n, m) == reference_sym_orbit_count(8, n, m)


def test_sym_orbit_counts_are_the_known_sequence():
    counts = [sym_orbit_count_model(8, n, m) for n in range(4) for m in range(4)]
    assert counts == [1, 1, 1, 1, 1, 2, 3, 4, 1, 3, 7, 13, 1, 4, 13, 34]


def partial_matchings(n, m):
    """Orbits of pairs of injective n- and m-tuples on infinitely many
    points: one per partial injective matching of their coordinates."""
    return sum(comb(n, k) * comb(m, k) * factorial(k)
               for k in range(min(n, m) + 1))


@pytest.mark.parametrize("n, m", [(n, m) for n in range(6) for m in range(6)])
def test_sym_orbit_count_is_the_partial_matching_count(n, m):
    assert sym_orbit_count_model(max(8, n + m), n, m) == partial_matchings(n, m)


def test_sym_orbit_count_of_five_tuples():
    assert sym_orbit_count_model(10, 5, 5) == 1546


def test_too_few_points_undercount():
    # two 2-tuples over 3 points always share a point: the empty matching
    # has no pair, so the full-pair count is one short
    assert reference_sym_orbit_count(3, 2, 2) == partial_matchings(2, 2) - 1


@pytest.mark.parametrize("n_points, n, m", [(8, 5, 4), (8, 4, 5), (3, 2, 2)])
def test_sym_orbit_count_rejects_too_few_points(n_points, n, m):
    with pytest.raises(ValueError):
        sym_orbit_count_model(n_points, n, m)


def coset_action(backend, g, a, idx):
    """g acting on the idx-th coset of a, straight from the definition."""
    cosets = backend._points[a]
    image = frozenset(_pcompose(g, x) for x in cosets[idx])
    return cosets.index(image)


def test_act_tables_match_coset_action(group):
    for a in group.atoms_up_to(len(group.elements)):
        for g in group.elements:
            expected = tuple(coset_action(group, g, a, i)
                             for i in range(a.degree))
            assert group.act_table(g, a) == expected
            assert sorted(expected) == list(range(a.degree))


def test_finite_pair_orbit_count_matches_reference(group):
    atoms = group.atoms_up_to(6)
    for a in atoms:
        for b in atoms:
            pairs = [(i, j) for i in range(a.degree) for j in range(b.degree)]
            expected = reference_count_orbits(
                pairs, group.generators,
                lambda g, p: (coset_action(group, g, a, p[0]),
                              coset_action(group, g, b, p[1])))
            assert finite_orbit_count_on_pairs(group, a, b) == expected


def reference_expand(backend, matrix, field):
    """The literal matrix, one entry at a time: each point pair's label is
    that of the orbit whose two projections pass through it."""
    grid = []
    for (tp, ti) in finite_points(matrix.target):
        row = []
        for (sp, si) in finite_points(matrix.source):
            (label,) = [o.label for o in backend.product_decompose(
                            matrix.target.atoms[tp], matrix.source.atoms[sp])
                        if (ti, si) in zip(o.proj1.data, o.proj2.data)]
            row.append(matrix.entries.get((tp, sp, label), zero(field)))
        grid.append(row)
    return grid


def test_expand_finite_matrix_matches_reference(group):
    field = RATIONAL
    atoms = group.atoms_up_to(4)
    x = group.object_of(atoms)
    y = group.object_of(atoms[::-1])
    matrices = hom_basis(group, x, y, field)
    total = matrices[0]
    for m in matrices[1:]:
        total = total + m
    matrices.append(total)
    small = hom_basis(group, group.object_of(atoms[:2]),
                      group.object_of(atoms[-1:]), field)
    matrices += [tensor(group, f, g) for f in small for g in small]
    for matrix in matrices:
        assert (expand_finite_matrix(group, matrix)
                == sparse(reference_expand(group, matrix, field)))


def dense_product(bgrid, agrid, field):
    """The product of two dense grids by the naive triple loop."""
    cols = len(agrid[0]) if agrid else 0
    out = [[zero(field)] * cols for _ in bgrid]
    for i, brow in enumerate(bgrid):
        for k, b in enumerate(brow):
            if b.is_zero():
                continue
            for j in range(cols):
                out[i][j] = out[i][j] + b * agrid[k][j]
    return out


def sparse(grid):
    """A dense grid's nonzero entries, keyed (row, column)."""
    return {(r, c): value for r, row in enumerate(grid)
            for c, value in enumerate(row) if not value.is_zero()}


def dense(matrix, rows, cols, field):
    """A sparse literal matrix as a rows x cols grid."""
    return [[matrix.get((r, c), zero(field)) for c in range(cols)]
            for r in range(rows)]


def rational(text):
    return Scalar.from_fraction(RATIONAL, Fraction(text))


# negative, non-unit and repeated values, so that sums often cancel
GRID_VALUES = ("0", "0", "0", "1", "-1", "2", "-2", "1/2", "-3/4")


@st.composite
def grid_pairs(draw):
    rows, inner, cols = (draw(st.integers(1, 5)) for _ in range(3))
    entry = st.sampled_from(GRID_VALUES).map(rational)

    def grid(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    return grid(rows, inner), grid(inner, cols)


@settings(max_examples=200, deadline=None)
@given(grid_pairs())
def test_literal_product_matches_dense_triple_loop(grids):
    bgrid, agrid = grids
    assert (literal_product(sparse(bgrid), sparse(agrid))
            == sparse(dense_product(bgrid, agrid, RATIONAL)))


def test_literal_product_drops_cancelling_sums():
    brow = [rational(v) for v in ("1", "1", "-2", "1/2")]
    columns = [("1", "1", "1", "0"),    # 1 + 1 - 2: two value pairs cancel
               ("3", "-3", "0", "0"),   # one b value, two a values cancel
               ("1", "0", "0", "2"),    # 1 + 1/2 * 2 = 2
               ("0", "0", "1", "4")]    # -2 + 1/2 * 4 cancel
    agrid = [[rational(col[k]) for col in columns] for k in range(4)]
    product = literal_product(sparse([brow]), sparse(agrid))
    assert product == {(0, 2): rational("2")}
    assert product == sparse(dense_product([brow], agrid, RATIONAL))


def sym_model_size(obj, n_points):
    return sum(len(sym_model_points(a.degree, n_points)) for a in obj.atoms)


@pytest.mark.parametrize("n_points", [5, 6, 7, 8])
def test_literal_product_of_sym_models(n_points):
    """The model products ``suite._sym_suite`` compares, (J - I)^2 on
    inj[1] at N = 5..8, and the inj[2] basis products that
    ``tests/test_invariants.py`` compares at N = 6."""
    field = ratfunc_field("t")
    x1 = SYM.object_of([SYM.atom_of_arity(1)])
    e_neq = InvariantMatrix(SYM, x1, x1, {(0, 0, "[]"): one(field)})
    pairs = [(e_neq, e_neq)]
    if n_points == 6:
        x2 = SYM.object_of([SYM.atom_of_arity(2)])
        pairs += itertools.product(hom_basis(SYM, x2, x2, field)[:4], repeat=2)
    for bmat, amat in pairs:
        b = expand_sym_matrix(bmat, n_points)
        a = expand_sym_matrix(amat, n_points)
        rows = sym_model_size(bmat.target, n_points)
        inner = sym_model_size(amat.target, n_points)
        cols = sym_model_size(amat.source, n_points)
        assert literal_product(b, a) == sparse(dense_product(
            dense(b, rows, inner, RATIONAL), dense(a, inner, cols, RATIONAL),
            RATIONAL))


def test_hom_dimension_probe_fails_sym_suite(monkeypatch):
    real = suite.hom_dimension

    def one_too_many(backend, x, y):
        dim = real(backend, x, y)
        degrees = [a.degree for a in (*x.atoms, *y.atoms)]
        return dim + 1 if degrees == [1, 2] else dim

    monkeypatch.setattr(suite, "hom_dimension", one_too_many)
    report = run_suite(SymBackend(), 3)
    assert [r.name for r in report.failures()] == [
        "hom-dims-match-model-orbits"]


def test_flipped_composite_fails_finite_oracle(monkeypatch):
    backend = preset_backend("S3")
    measure = solve_measures(backend, 6).generic()
    flipped = []

    def flip_first_product(measure, bmat, amat):
        out = matmul(measure, bmat, amat)
        if flipped or not out.entries:
            return out
        key = next(iter(out.entries))
        flipped.append(key)
        entries = {**out.entries, key: out.entries[key] + one(measure.field)}
        return InvariantMatrix(out.backend, out.source, out.target, entries)

    monkeypatch.setattr(oracle, "matmul", flip_first_product)
    report = finite_category_oracle(backend, measure, 6)
    assert flipped
    assert [r.name for r in report.failures()] == [
        "composition-is-matrix-product"]


# one probe per oracle check and direction: each patches the producer of the
# matrices that check alone reads, changes every matrix it can, and must make
# exactly that check FAIL, once per changed matrix, with the first changed
# matrix's instance as the witness


def drop_entry(matrix):
    """The matrix without its first entry, or None when it has none."""
    if not matrix.entries:
        return None
    key = next(iter(matrix.entries))
    return InvariantMatrix(matrix.backend, matrix.source, matrix.target,
                           {k: v for k, v in matrix.entries.items() if k != key})


def extra_entry(matrix):
    """The matrix with a one on its first zero orbit, or None when it has
    no zero orbit."""
    backend = matrix.backend
    for t, ta in enumerate(matrix.target.atoms):
        for s, sa in enumerate(matrix.source.atoms):
            for orbit in backend.product_decompose(ta, sa):
                key = (t, s, orbit.label)
                if key not in matrix.entries:
                    return InvariantMatrix(
                        backend, matrix.source, matrix.target,
                        {**matrix.entries, key: one(RATIONAL)})
    return None


def literal_difference(lhs, rhs):
    """The first (row, column), in sorted order, where two literal matrices
    differ, with both values rendered and a missing entry as 0."""
    key = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
    return {"row": str(key[0]), "column": str(key[1]),
            **{side: lit[key].render() if key in lit else "0"
               for side, lit in (("lhs", lhs), ("rhs", rhs))}}


def atom_of(obj):
    (atom,) = obj.atoms
    return atom.render()


def label_of(basis_matrix):
    ((_t, _s, label),) = basis_matrix.entries
    return label


# check -> (module, producer, its matrix under test, put a matrix back,
# the witness of a call's arguments)
ORACLE_PROBES = {
    "composition-is-matrix-product": (
        oracle, "matmul", lambda out: out, lambda out, m: m,
        lambda _measure, bm, am: {
            "composite": f"{atom_of(am.source)} -> {atom_of(bm.source)} -> "
                         f"{atom_of(bm.target)}",
            "orbits": f"{label_of(bm)} after {label_of(am)}"}),
    "tensor-is-entrywise-product": (
        permcat, "tensor", lambda out: out, lambda out, m: m,
        lambda _backend, f, g: {
            "atom": atom_of(f.source),
            "orbits": f"{label_of(f)} (x) {label_of(g)}"}),
    "duality-data-is-diagonal": (
        permcat, "duality_data", lambda out: out[0],
        lambda out, m: (m, out[1]),
        lambda _backend, x, _field: {"atom": atom_of(x)}),
    "frobenius-structure-is-pointwise": (
        frob, "build_frobenius", lambda out: out.mult,
        lambda out, m: out._replace(mult=m),
        lambda _backend, x, _field: {"atom": atom_of(x), "parts": "mult"}),
}


@pytest.mark.parametrize("change", [drop_entry, extra_entry],
                         ids=["dropped", "extra"])
@pytest.mark.parametrize("check", list(ORACLE_PROBES))
def test_oracle_probe_fails_its_check(check, change, monkeypatch):
    backend = preset_backend("S3")
    measure = solve_measures(backend, 6).generic()
    module, name, get, put, instance = ORACLE_PROBES[check]
    real = getattr(module, name)
    changed = []

    def probe(*args):
        out = real(*args)
        matrix = change(get(out))
        if matrix is None:
            return out
        changed.append((instance(*args), matrix, get(out)))
        return put(out, matrix)

    monkeypatch.setattr(module, name, probe)
    report = finite_category_oracle(backend, measure, 6)
    assert len(changed) > 1
    assert [r.name for r in report.failures()] == [check]
    witness = report.result(check).witness
    (count,) = [key for key in witness if key.startswith("failing-")]
    # the first changed instance, its first wrong literal entry (the changed
    # matrix's expansion against the true one's) and the failure count
    first, matrix, true = changed[0]
    assert witness == {
        **first, **literal_difference(expand_finite_matrix(backend, matrix),
                                      expand_finite_matrix(backend, true)),
        count: str(len(changed))}
