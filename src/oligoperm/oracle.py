"""Concrete-model oracles.

Two expansions ground the abstract layer in literal linear algebra:

* the finite backend realizes every object as an explicit point set, so every
  invariant matrix expands to a numeric matrix and integral composition must
  equal the literal matrix product under the counting measure;
* the symmetric backend admits finite models: realize ``inj[n]`` as injective
  n-tuples over N points, evaluate matrix entries at parameter value N, and
  compare against the literal product.

Both are used by the acceptance suite; nothing here feeds back into the
abstract computations.
"""

from __future__ import annotations

import itertools

from .coeff import RATIONAL, Scalar, zero
from .linmat import matmul, tensor_space


# Finite backend expansion

def finite_points(backend, obj):
    """Global point list of an object: (atom position, point index) pairs."""
    out = []
    for pos, atom in enumerate(obj.atoms):
        for idx in range(atom.degree):
            out.append((pos, idx))
    return out


def expand_finite_matrix(backend, matrix, field):
    rows = finite_points(backend, matrix.target)
    cols = finite_points(backend, matrix.source)
    grid = []
    for (tp, ti) in rows:
        row = []
        for (sp, si) in cols:
            label = backend.pair_label(matrix.target.atoms[tp],
                                       matrix.source.atoms[sp], ti, si)
            row.append(matrix.entries.get((tp, sp, label), zero(field)))
        grid.append(row)
    return grid


def literal_product(bgrid, agrid, field):
    rows = len(bgrid)
    inner = len(agrid)
    cols = len(agrid[0]) if agrid else 0
    out = [[zero(field) for _ in range(cols)] for _ in range(rows)]
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


def finite_matmul_agrees(backend, measure, bmat, amat):
    """Integral composition vs literal product of the expanded matrices."""
    composed = matmul(measure, bmat, amat)
    lhs = expand_finite_matrix(backend, composed, measure.field)
    rhs = literal_product(expand_finite_matrix(backend, bmat, measure.field),
                          expand_finite_matrix(backend, amat, measure.field),
                          measure.field)
    return lhs == rhs


def bgamma_kernel_dimension(backend, y_obj, gamma, field):
    """Dimension of the kernel of x -> gamma . (x (x) 1 - 1 (x) x) on the
    concrete function space of the finite backend."""
    ps2 = tensor_space(backend, [y_obj, y_obj])
    points = finite_points(backend, y_obj)
    columns = []
    for (yp, yi) in points:
        column = []
        for (p1, i1) in points:
            for (p2, i2) in points:
                label = backend.pair_label(y_obj.atoms[p1], y_obj.atoms[p2],
                                           i1, i2)
                pos = ps2.index[(p1, p2, label)]
                g = gamma.coeffs.get(pos, zero(field))
                diff = (1 if (p1, i1) == (yp, yi) else 0) - \
                       (1 if (p2, i2) == (yp, yi) else 0)
                column.append(g * Scalar.from_int(field, diff))
        columns.append(column)
    rows = len(columns[0]) if columns else 0
    grid = [[columns[c][r] for c in range(len(columns))] for r in range(rows)]
    from .linmat import _rank

    return len(points) - _rank(grid, field)


def _count_orbits(points, generators, act):
    """Orbits of a finite action, by union-find over the generators' moves;
    ``act(g, p)`` is the image of point p under generator g."""
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
    grid = []
    for (tp, u) in rows:
        row = []
        for (sp, x) in cols:
            entry = matrix.entries.get((tp, sp, sym_pair_label(u, x)))
            row.append(entry.evaluate(n_points) if entry is not None
                       else zero(RATIONAL))
        grid.append(row)
    return grid


def sym_matmul_agrees(measure, bmat, amat, n_points):
    composed = matmul(measure, bmat, amat)
    lhs = expand_sym_matrix(composed, n_points)
    rhs = literal_product(expand_sym_matrix(bmat, n_points),
                          expand_sym_matrix(amat, n_points), RATIONAL)
    return lhs == rhs


def sym_orbit_count_model(n_points, n, m):
    """Number of orbits of the full symmetric group on pairs of injective
    tuples, counted by closure under two generators."""
    gens = []
    transposition = list(range(n_points))
    transposition[0], transposition[1] = 1, 0
    gens.append(tuple(transposition))
    gens.append(tuple((i + 1) % n_points for i in range(n_points)))
    pairs = [(u, x)
             for u in itertools.permutations(range(n_points), n)
             for x in itertools.permutations(range(n_points), m)]
    return _count_orbits(
        pairs, gens,
        lambda g, p: (tuple(g[a] for a in p[0]), tuple(g[a] for a in p[1])))


# Full category-layer oracle for the finite backend

def finite_orbit_count_on_pairs(backend, a, b):
    """Orbits on point pairs, counted by closure under the generators."""
    pairs = [(i, j) for i in range(a.degree) for j in range(b.degree)]
    return _count_orbits(
        pairs, backend.generators,
        lambda g, p: (backend.act(g, a, p[0]), backend.act(g, b, p[1])))


def _pair_point_index(backend, ps2):
    """(factor positions and factor points) -> (product position, point)."""
    out = {}
    for w, pos in enumerate(ps2.positions):
        (i, p1), (j, p2) = pos.projections
        for k in range(pos.atom.degree):
            out[(i, p1.data[k], j, p2.data[k])] = (w, k)
    return out


def finite_category_oracle(backend, measure, bound):
    """Hom spaces, composition, tensor, duality and Frobenius structure of the
    finite backend against explicit permutation-matrix linear algebra."""
    from .frob import build_frobenius
    from .permcat import duality_data, hom_basis, hom_dimension, tensor, vec
    from .report import CheckResult, Report

    field = measure.field
    atoms = backend.atoms_up_to(bound)
    results = []

    dims_ok = all(
        hom_dimension(backend, vec(backend.object_of([a])),
                      vec(backend.object_of([b])))
        == finite_orbit_count_on_pairs(backend, b, a)
        for a in atoms for b in atoms)
    results.append(CheckResult("hom-dimensions-count-orbits", dims_ok))

    compose_ok = True
    tensor_ok = True
    for a in atoms:
        for b in atoms:
            for c in atoms:
                xa = vec(backend.object_of([a]))
                xb = vec(backend.object_of([b]))
                xc = vec(backend.object_of([c]))
                outer = hom_basis(backend, xb, xc, field)
                inner = hom_basis(backend, xa, xb, field)
                for bm in outer:
                    for am in inner:
                        if not finite_matmul_agrees(backend, measure,
                                                    bm.matrix, am.matrix):
                            compose_ok = False
        xa = vec(backend.object_of([a]))
        basis = hom_basis(backend, xa, xa, field)
        for f in basis:
            for g in basis:
                prod = tensor(backend, f, g)
                src2 = tensor_space(backend, [xa.underlying, xa.underlying])
                lookup_src = _pair_point_index(backend, src2)
                lookup_tgt = lookup_src
                fgrid = expand_finite_matrix(backend, f.matrix, field)
                ggrid = expand_finite_matrix(backend, g.matrix, field)
                pgrid = expand_finite_matrix(backend, prod.matrix, field)
                pts = finite_points(backend, src2.object)
                flat = {pt: n for n, pt in enumerate(pts)}
                for y1 in range(a.degree):
                    for y2 in range(a.degree):
                        for x1 in range(a.degree):
                            for x2 in range(a.degree):
                                trow = flat[lookup_tgt[(0, y1, 0, y2)]]
                                scol = flat[lookup_src[(0, x1, 0, x2)]]
                                lit = fgrid[y1][x1] * ggrid[y2][x2]
                                if pgrid[trow][scol] != lit:
                                    tensor_ok = False
    results.append(CheckResult("composition-is-matrix-product", compose_ok))
    results.append(CheckResult("tensor-is-entrywise-product", tensor_ok))

    duality_ok = True
    frobenius_ok = True
    for a in atoms:
        x = backend.object_of([a])
        ps2 = tensor_space(backend, [x, x])
        lookup = _pair_point_index(backend, ps2)
        coev, ev = duality_data(backend, vec(x), field)
        cgrid = expand_finite_matrix(backend, coev.matrix, field)
        pts = finite_points(backend, ps2.object)
        flat = {pt: n for n, pt in enumerate(pts)}
        for y1 in range(a.degree):
            for y2 in range(a.degree):
                row = flat[lookup[(0, y1, 0, y2)]]
                expected = Scalar.from_int(field, 1 if y1 == y2 else 0)
                if cgrid[row][0] != expected:
                    duality_ok = False
        frob = build_frobenius(backend, x, field)
        mgrid = expand_finite_matrix(backend, frob.mult, field)
        ugrid = expand_finite_matrix(backend, frob.unit, field)
        egrid = expand_finite_matrix(backend, frob.counit, field)
        for z in range(a.degree):
            if ugrid[z][0] != Scalar.from_int(field, 1):
                frobenius_ok = False
            if egrid[0][z] != Scalar.from_int(field, 1):
                frobenius_ok = False
            for x1 in range(a.degree):
                for x2 in range(a.degree):
                    col = flat[lookup[(0, x1, 0, x2)]]
                    expected = Scalar.from_int(
                        field, 1 if z == x1 == x2 else 0)
                    if mgrid[z][col] != expected:
                        frobenius_ok = False
    results.append(CheckResult("duality-data-is-diagonal", duality_ok))
    results.append(CheckResult("frobenius-structure-is-pointwise", frobenius_ok))

    return Report(f"permutation-matrix oracle within {bound}", results)
