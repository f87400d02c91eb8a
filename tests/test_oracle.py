"""The concrete-model oracles against plain reference implementations.

The references here are the direct definitions: a union-find over tuple
points with a callable action, the group acting on cosets as frozensets, and
a literal matrix filled one entry at a time.  The oracles encode points as
integers and tabulate actions; these tests pin them to the definitions, and
the probes at the end check that a wrong answer makes the oracle FAIL.
"""

import itertools
from math import comb, factorial

import pytest

from oligoperm import oracle, suite
from oligoperm.coeff import RATIONAL, one, zero
from oligoperm.gset import SymBackend
from oligoperm.gset.finite import _pcompose, preset_backend
from oligoperm.linmat import InvariantMatrix, matmul
from oligoperm.measure import solve_measures
from oligoperm.oracle import (
    expand_finite_matrix,
    finite_category_oracle,
    finite_orbit_count_on_pairs,
    finite_points,
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
        assert (expand_finite_matrix(group, matrix, field)
                == reference_expand(group, matrix, field))


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
