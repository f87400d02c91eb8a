"""Concrete-model oracles.

Two expansions ground the abstract layer in literal linear algebra:

* the finite backend realizes every object as an explicit point set, so every
  invariant matrix expands to a numeric matrix and integral composition must
  equal the literal matrix product under the counting measure;
* the symmetric backend admits finite models: realize ``inj[n]`` as injective
  n-tuples over N points, evaluate matrix entries at parameter value N, and
  compare against the literal product.

Orbit counts on pairs back the hom dimensions of both backends.  Model
points are integers: the symmetric model indexes the injective k-tuples once
per k and tabulates each generator as an index array over them, the finite
backend tabulates each group element's permutation of an atom's points
(``FiniteBackend.act_table``), and a pair (u, x) is the integer
``u * width + x``.  One union-find over these integers counts the orbits.
The counts use only the generators' action and never ``product_decompose``,
``product_factor`` or ``linmat``, so they stay independent of the orbit
enumeration they check.  The matrix checks use ``pair_label``,
``tensor_space`` and ``projection`` only to address entries of the matrices
under test and compute the products they compare against literally.

Both are used by the acceptance suite; nothing here feeds back into the
abstract computations.
"""

from __future__ import annotations

import itertools

from .coeff import RATIONAL, one, zero
from .linmat import matmul, projection, tensor_space


# Finite backend expansion

def finite_points(obj):
    """Global point list of an object: (atom position, point index) pairs."""
    out = []
    for pos, atom in enumerate(obj.atoms):
        for idx in range(atom.degree):
            out.append((pos, idx))
    return out


def expand_finite_matrix(backend, matrix, field):
    """The literal matrix: rows are the target's points and columns the
    source's, both in ``finite_points`` order.  It is filled one (target
    atom, source atom) block at a time; a block with no entries is zero."""
    z = zero(field)
    blocks = {}
    for (tp, sp, label), value in matrix.entries.items():
        blocks.setdefault((tp, sp), {})[label] = value
    grid = []
    for tp, ta in enumerate(matrix.target.atoms):
        rows = [[] for _ in range(ta.degree)]
        for sp, sa in enumerate(matrix.source.atoms):
            block = blocks.get((tp, sp))
            for ti, row in enumerate(rows):
                if block is None:
                    row.extend([z] * sa.degree)
                else:
                    row.extend(block.get(backend.pair_label(ta, sa, ti, si), z)
                               for si in range(sa.degree))
        grid.extend(rows)
    return grid


def literal_product(bgrid, agrid, field):
    rows = len(bgrid)
    inner = len(agrid)
    cols = len(agrid[0]) if agrid else 0
    z = zero(field)
    out = [[z] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            b = bgrid[i][k]
            if b.is_zero():
                continue
            for j in range(cols):
                a = agrid[k][j]
                if not a.is_zero():
                    out[i][j] = out[i][j] + b * a
    return out


def bgamma_kernel_dimension(backend, y_obj, gamma, field):
    """Dimension of the kernel of x -> gamma . (x (x) 1 - 1 (x) x) on the
    concrete function space of the finite backend."""
    ps2 = tensor_space(backend, [y_obj, y_obj])
    points = finite_points(y_obj)
    z = zero(field)
    columns = []
    for y in points:
        column = []
        for (p1, i1) in points:
            for (p2, i2) in points:
                label = backend.pair_label(y_obj.atoms[p1], y_obj.atoms[p2],
                                           i1, i2)
                g = gamma.coeffs.get(ps2.index[(p1, p2, label)], z)
                at1, at2 = (p1, i1) == y, (p2, i2) == y
                column.append(z if at1 == at2 else g if at1 else -g)
        columns.append(column)
    rows = len(columns[0]) if columns else 0
    grid = [[columns[c][r] for c in range(len(columns))] for r in range(rows)]
    from .linmat import _rank

    return len(points) - _rank(grid)


def _count_orbits(size, moves):
    """Orbits of a finite action on the points 0 .. size-1, by union-find
    over the generators' moves: each move is an index array whose entry i is
    the image of point i under one generator."""
    parent = list(range(size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for move in moves:
        for i, j in enumerate(move):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    return sum(1 for i, p in enumerate(parent) if i == p)


def _pair_moves(left, right, width):
    """A generator's move on pairs (u, x), encoded as u * width + x, from its
    moves ``left`` and ``right`` on the two factors."""
    return [ju * width + jx for ju in left for jx in right]


# Symmetric backend finite model

def sym_model_points(n, n_points):
    return list(itertools.permutations(range(n_points), n))


def sym_pair_label(u, x):
    matching = tuple(sorted(
        (i + 1, j + 1)
        for i in range(len(u)) for j in range(len(x)) if u[i] == x[j]))
    if not matching:
        return "[]"
    return "[" + ",".join(f"{i}>{j}" for i, j in matching) + "]"


def expand_sym_matrix(matrix, n_points):
    """Evaluate a matrix over Q(t) at t = N and expand in the N-point model."""
    rows = []
    for tp, tatom in enumerate(matrix.target.atoms):
        for u in sym_model_points(tatom.degree, n_points):
            rows.append((tp, u))
    cols = []
    for sp, satom in enumerate(matrix.source.atoms):
        for x in sym_model_points(satom.degree, n_points):
            cols.append((sp, x))
    z = zero(RATIONAL)
    grid = []
    for (tp, u) in rows:
        row = []
        for (sp, x) in cols:
            entry = matrix.entries.get((tp, sp, sym_pair_label(u, x)))
            row.append(entry.evaluate(n_points) if entry is not None else z)
        grid.append(row)
    return grid


def _sym_generators(n_points):
    """The transposition (0 1) and the cycle i -> i + 1, which generate the
    full symmetric group on n_points points."""
    transposition = list(range(n_points))
    transposition[0], transposition[1] = 1, 0
    return [tuple(transposition),
            tuple((i + 1) % n_points for i in range(n_points))]


def _sym_tuple_moves(n_points, k):
    """Each generator's move on the injective k-tuples over n_points points,
    as an index array over ``sym_model_points(k, n_points)``."""
    tuples = sym_model_points(k, n_points)
    index = {u: i for i, u in enumerate(tuples)}
    return [[index[tuple(g[a] for a in u)] for u in tuples]
            for g in _sym_generators(n_points)]


def sym_orbit_count_model(n_points, n, m):
    """Number of orbits of the full symmetric group on pairs of injective
    tuples, counted by closure under two generators."""
    moves = {k: _sym_tuple_moves(n_points, k) for k in {n, m}}
    width = len(moves[m][0])
    return _count_orbits(
        len(moves[n][0]) * width,
        [_pair_moves(left, right, width)
         for left, right in zip(moves[n], moves[m])])


# Full category-layer oracle for the finite backend

def finite_orbit_count_on_pairs(backend, a, b):
    """Orbits on point pairs, counted by closure under the generators."""
    return _count_orbits(
        a.degree * b.degree,
        [_pair_moves(backend.act_table(g, a), backend.act_table(g, b),
                     b.degree)
         for g in backend.generators])


def _pair_point_index(ps2):
    """(factor positions and factor points) -> (product position, point)."""
    out = {}
    for w, pos in enumerate(ps2.positions):
        (i, p1), (j, p2) = projection(ps2, w, 0), projection(ps2, w, 1)
        for k in range(pos.atom.degree):
            out[(i, p1.data[k], j, p2.data[k])] = (w, k)
    return out


def _pair_rows(backend, x):
    """Row of x (x) x's literal matrix through each point pair (y1, y2) of the
    one-atom object x, as a nested list indexed [y1][y2]."""
    ps2 = tensor_space(backend, [x, x])
    lookup = _pair_point_index(ps2)
    flat = {pt: n for n, pt in enumerate(finite_points(ps2.object))}
    degree = x.atoms[0].degree
    return [[flat[lookup[(0, y1, 0, y2)]] for y2 in range(degree)]
            for y1 in range(degree)]


def finite_category_oracle(backend, measure, bound):
    """Hom spaces, composition, tensor, duality and Frobenius structure of the
    finite backend against explicit permutation-matrix linear algebra."""
    from .frob import build_frobenius
    from .permcat import duality_data, hom_basis, hom_dimension, tensor
    from .report import CheckResult, Report

    field = measure.field
    z, u = zero(field), one(field)
    atoms = backend.atoms_up_to(bound)
    xs = {a: backend.object_of([a]) for a in atoms}
    results = []

    dims_ok = all(
        hom_dimension(backend, xs[a], xs[b])
        == finite_orbit_count_on_pairs(backend, b, a)
        for a in atoms for b in atoms)
    results.append(CheckResult("hom-dimensions-count-orbits", dims_ok))

    # each hom basis with its literal matrices, once per atom pair
    bases = {}
    for a in atoms:
        for b in atoms:
            bases[a, b] = [(f, expand_finite_matrix(backend, f, field))
                           for f in hom_basis(backend, xs[a], xs[b], field)]

    compose_ok = True
    for a in atoms:
        for b in atoms:
            for c in atoms:
                for bm, bgrid in bases[b, c]:
                    for am, agrid in bases[a, b]:
                        composed = matmul(measure, bm, am)
                        if (expand_finite_matrix(backend, composed, field)
                                != literal_product(bgrid, agrid, field)):
                            compose_ok = False
    results.append(CheckResult("composition-is-matrix-product", compose_ok))

    pair_rows = {a: _pair_rows(backend, xs[a]) for a in atoms}
    tensor_ok = True
    for a in atoms:
        rows = pair_rows[a]
        pairs = [(y1, y2) for y1 in range(a.degree) for y2 in range(a.degree)]
        for f, fgrid in bases[a, a]:
            for g, ggrid in bases[a, a]:
                pgrid = expand_finite_matrix(backend, tensor(backend, f, g),
                                             field)
                for y1, y2 in pairs:
                    prow = pgrid[rows[y1][y2]]
                    for x1, x2 in pairs:
                        fe, ge = fgrid[y1][x1], ggrid[y2][x2]
                        lit = z if fe.is_zero() or ge.is_zero() else fe * ge
                        if prow[rows[x1][x2]] != lit:
                            tensor_ok = False
    results.append(CheckResult("tensor-is-entrywise-product", tensor_ok))

    duality_ok = True
    frobenius_ok = True
    for a in atoms:
        rows = pair_rows[a]
        coev, _ = duality_data(backend, xs[a], field)
        cgrid = expand_finite_matrix(backend, coev, field)
        for y1 in range(a.degree):
            for y2 in range(a.degree):
                if cgrid[rows[y1][y2]][0] != (u if y1 == y2 else z):
                    duality_ok = False
        frob = build_frobenius(backend, xs[a], field)
        mgrid = expand_finite_matrix(backend, frob.mult, field)
        ugrid = expand_finite_matrix(backend, frob.unit, field)
        egrid = expand_finite_matrix(backend, frob.counit, field)
        for y in range(a.degree):
            if ugrid[y][0] != u or egrid[0][y] != u:
                frobenius_ok = False
            for x1 in range(a.degree):
                for x2 in range(a.degree):
                    if mgrid[y][rows[x1][x2]] != (u if y == x1 == x2 else z):
                        frobenius_ok = False
    results.append(CheckResult("duality-data-is-diagonal", duality_ok))
    results.append(CheckResult("frobenius-structure-is-pointwise", frobenius_ok))

    return Report(f"permutation-matrix oracle within {bound}", results)
