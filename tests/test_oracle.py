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
from types import SimpleNamespace

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


def reference_composition_failures(backend, measure, atoms, bases):
    """The composition check one composite of two basis matrices at a time,
    each with its own ``matmul``, expansion and literal product: the loop
    ``oracle._composition_failures`` stacks."""
    from oligoperm.report import difference

    failures = []
    for a in atoms:
        for b in atoms:
            for c in atoms:
                for bl, bm, bmat in bases[b, c]:
                    for al, am, amat in bases[a, b]:
                        composed = oracle.matmul(measure, bm, am)
                        d = difference(expand_finite_matrix(backend, composed),
                                       literal_product(bmat, amat))
                        if d:
                            failures.append({
                                "composite": f"{a.render()} -> {b.render()}"
                                             f" -> {c.render()}",
                                "orbits": f"{bl} after {al}", **d})
    return failures


def unmeasured_matmul(measure, bmat, amat):
    """``matmul`` with the measure factor dropped from every term: under a
    measure whose every map measures one."""
    unit = one(measure.field)
    return matmul(SimpleNamespace(field=measure.field, mu_map=lambda _g: unit),
                  bmat, amat)


def shifted_matmul(measure, bmat, amat):
    """``matmul`` with the first entry, in sorted order, of each (target
    position, source position) block shifted by one: the same change
    whether the composites come one at a time or stacked."""
    out = matmul(measure, bmat, amat)
    first = {}
    for key in sorted(out.entries):
        first.setdefault(key[:2], key)
    entries = dict(out.entries)
    for key in first.values():
        entries[key] = entries[key] + one(measure.field)
    return InvariantMatrix(out.backend, out.source, out.target, entries)


@pytest.mark.parametrize("name, counts", [
    ("S3", [0, 29, 245]), ("C2x4", [0, 1, 13]), ("S4", [0, 379, 1081])])
def test_stacked_composition_matches_per_pair_loop(name, counts, monkeypatch):
    """The stacked composition check finds the failures the per-pair loop
    finds, entry by entry and in its order, on the real ``matmul`` and on
    two mutants of it."""
    backend = preset_backend(name)
    measure = solve_measures(backend, 6).generic()
    atoms = backend.atoms_up_to(6)
    xs = {a: backend.object_of([a]) for a in atoms}
    bases = {(a, b): [(label, f, expand_finite_matrix(backend, f))
                      for f in hom_basis(backend, xs[a], xs[b], measure.field)
                      for _t, _s, label in f.entries]
             for a in atoms for b in atoms}
    found = []
    for mutant in (matmul, unmeasured_matmul, shifted_matmul):
        monkeypatch.setattr(oracle, "matmul", mutant)
        stacked = oracle._composition_failures(backend, measure, atoms, bases)
        assert stacked == reference_composition_failures(
            backend, measure, atoms, bases)
        found.append(len(stacked))
    assert found == counts


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


def one_matrix(get, put, instance):
    """A probe on a producer whose output holds one matrix under test:
    (its parts, put changed parts back).  A part is (order, the instance it
    names, the matrix); one order for all, so the calls keep their order."""
    return (lambda args, out: [((), instance(*args), get(out))],
            lambda args, out, matrices: put(out, matrices[0]))


def composite_blocks(args, out):
    """The parts of a stacked product (see ``oracle._composition_failures``):
    one per block (p, q), the composite of the p-th basis matrix of the
    left factor and the q-th of the right one, as a matrix between the two
    atoms, ordered as the check visits composites, by (source, middle and
    target atom, p, q)."""
    _measure, bm, am = args
    backend = out.backend
    order = backend.atoms_up_to(6).index
    labels = {}
    for factor, side in ((bm, 0), (am, 1)):
        for key in factor.entries:
            labels[side, key[side]] = key[2]
    blocks = {}
    for (p, q, label), value in out.entries.items():
        blocks.setdefault((p, q), {})[0, 0, label] = value
    b = bm.source.atoms[0]
    parts = []
    for p, c in enumerate(out.target.atoms):
        for q, a in enumerate(out.source.atoms):
            parts.append((
                (order(a), order(b), order(c), p, q),
                {"composite": f"{a.render()} -> {b.render()} -> {c.render()}",
                 "orbits": f"{labels[0, p]} after {labels[1, q]}"},
                InvariantMatrix(backend, backend.object_of([a]),
                                backend.object_of([c]), blocks.get((p, q)))))
    return parts


def composite_put(args, out, matrices):
    """The stacked product with block (p, q) read off its part's matrix."""
    blocks = [(p, q) for p in range(len(out.target.atoms))
              for q in range(len(out.source.atoms))]
    return InvariantMatrix(out.backend, out.source, out.target, {
        (p, q, label): value for (p, q), matrix in zip(blocks, matrices)
        for (_t, _s, label), value in matrix.entries.items()})


# check -> (module, producer, the parts of its output, put changed parts back)
ORACLE_PROBES = {
    "composition-is-matrix-product": (
        oracle, "matmul", composite_blocks, composite_put),
    "tensor-is-entrywise-product": (
        permcat, "tensor", *one_matrix(
            lambda out: out, lambda out, m: m,
            lambda _backend, f, g: {
                "atom": atom_of(f.source),
                "orbits": f"{label_of(f)} (x) {label_of(g)}"})),
    "duality-data-is-diagonal": (
        permcat, "duality_data", *one_matrix(
            lambda out: out[0], lambda out, m: (m, out[1]),
            lambda _backend, x, _field: {"atom": atom_of(x)})),
    "frobenius-structure-is-pointwise": (
        frob, "build_frobenius", *one_matrix(
            lambda out: out.mult, lambda out, m: out._replace(mult=m),
            lambda _backend, x, _field: {"atom": atom_of(x),
                                         "parts": "mult"})),
}


@pytest.mark.parametrize("change", [drop_entry, extra_entry],
                         ids=["dropped", "extra"])
@pytest.mark.parametrize("check", list(ORACLE_PROBES))
def test_oracle_probe_fails_its_check(check, change, monkeypatch):
    backend = preset_backend("S3")
    measure = solve_measures(backend, 6).generic()
    module, name, parts_of, put = ORACLE_PROBES[check]
    real = getattr(module, name)
    changed = []

    def probe(*args):
        out = real(*args)
        parts = parts_of(args, out)
        matrices = [change(matrix) for _order, _instance, matrix in parts]
        if all(matrix is None for matrix in matrices):
            return out
        changed.extend((order, instance, matrix, true)
                       for (order, instance, true), matrix
                       in zip(parts, matrices) if matrix is not None)
        return put(args, out, [true if matrix is None else matrix
                               for (_o, _i, true), matrix
                               in zip(parts, matrices)])

    monkeypatch.setattr(module, name, probe)
    report = finite_category_oracle(backend, measure, 6)
    assert len(changed) > 1
    assert [r.name for r in report.failures()] == [check]
    witness = report.result(check).witness
    (count,) = [key for key in witness if key.startswith("failing-")]
    # the first changed instance in the check's order, its first wrong
    # literal entry (the changed matrix's expansion against the true one's)
    # and the failure count
    _order, first, matrix, true = min(changed, key=lambda part: part[0])
    assert witness == {
        **first, **literal_difference(expand_finite_matrix(backend, matrix),
                                      expand_finite_matrix(backend, true)),
        count: str(len(changed))}
