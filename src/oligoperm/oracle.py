"""Concrete-model oracles.

Two expansions ground the abstract layer in literal linear algebra:

* the finite backend realizes every object as an explicit point set, so every
  invariant matrix expands to a numeric matrix and integral composition must
  equal the literal matrix product under the counting measure;
* the symmetric backend admits finite models: realize ``inj[n]`` as injective
  n-tuples over N points, evaluate matrix entries at parameter value N, and
  compare against the literal product.

A literal matrix is sparse: the dict ``{(row, column): value}`` of its
nonzero entries, rows and columns numbering points (or model tuples) atom by
atom.  Both expansions return that form and every check compares two such
dicts, so a zero is never stored on either side.  ``literal_product``
multiplies two of them grouped by value: each row of B and each column of A
is an int bit mask over the middle indices, one per value it holds, so the
middle indices joining an output entry through a pair of values (b, a)
count as ``(row & column).bit_count()``; it adds ``b * a * count`` once per
entry and pair and drops the sums that come to zero.  The matrices of a
finite model take few distinct values, so the scalar arithmetic follows the
distinct value pairs and not the middle index.  The composition check
stacks its composites per middle and target atom (``_composition_failures``),
so one ``matmul``, one expansion and one product check every composite of
two basis matrices through that pair of atoms, and the stacked sides are
sliced into per-composite blocks only when they differ.  The stacked matrix
into the middle atom is the same for every target atom, so its column masks
are built once per middle atom.  The tensor check's literal side multiplies
two basis matrices' values once per pair of distinct values and writes the
product at each pair of points that carries it.

Orbit counts back the hom dimensions of both backends, each by one
union-find over integer points.  The finite backend counts orbits on pairs:
it tabulates each group element's permutation of an atom's points
(``FiniteBackend.act_table``), and a pair (u, x) is the integer
``u * width + x``.  The symmetric model counts the orbits of a stabilizer
instead.  S_N is transitive on the injective n-tuples, so its orbits on pairs
(u, x) match the orbits of the stabilizer of u0 = (0, ..., n-1) on the
m-tuples x; that stabilizer is Sym({n, ..., N-1}), generated by one
transposition and one cycle of the free points, each tabulated as an index
array over the m-tuples.  At N = 8 and n = m = 3 that is 336 points instead
of 112,896 pairs.  The counts use only the generators' action on model
points and never ``product_decompose``, ``product_factor`` or ``linmat``, so
they stay independent of the orbit enumeration they check; the reduction is
a fact about the group action, not about how the backend enumerates orbits.
The matrix checks address a point of an object as its atom position's
offset (``_offsets``) plus its index in that atom, and an entry of a matrix
under test through orbit projections and ``tensor_space`` positions only:
the orbit of a x b through a point pair is the one whose two projections
list it.  The products they compare against are computed literally.

Both are used by the acceptance suite; nothing here feeds back into the
abstract computations.
"""

from __future__ import annotations

import itertools

from .coeff import one, zero
from .frob import build_frobenius
from .linmat import InvariantMatrix, matmul, tensor_space
from .permcat import duality_data, hom_basis, hom_dimension, tensor
from .report import Report, difference, verdict


# Finite backend expansion

def _offsets(obj):
    """Each atom position's first point: an object's points are numbered
    atom by atom, so point i of the atom at position p is ``offsets[p] + i``.
    """
    out, total = [], 0
    for atom in obj.atoms:
        out.append(total)
        total += atom.degree
    return out


def expand_finite_matrix(backend, matrix):
    """The literal matrix, as the dict ``{(row, column): value}`` of its
    nonzero entries: rows are the target's points and columns the source's,
    both numbered by ``_offsets``.  Each entry of the invariant
    matrix writes its value at the point pairs its orbit's two projections
    list, one (target atom, source atom) block at a time."""
    blocks = {}
    for (tp, sp, label), value in matrix.entries.items():
        blocks.setdefault((tp, sp), {})[label] = value
    row0, col0 = _offsets(matrix.target), _offsets(matrix.source)
    out = {}
    for (tp, sp), block in blocks.items():
        r, c = row0[tp], col0[sp]
        for orbit in backend.product_decompose(matrix.target.atoms[tp],
                                               matrix.source.atoms[sp]):
            value = block.get(orbit.label)
            if value is not None:
                for ti, si in zip(orbit.proj1.data, orbit.proj2.data):
                    out[r + ti, c + si] = value
    return out


def _masks(entries):
    """Literal entries ``((index, k), value)`` as bit masks, grouped by
    value: ``{value: [(index, mask)]}``, where bit k of an index's mask is
    set when entry (index, k) holds that value."""
    out = {}
    for (index, k), value in entries:
        masks = out.setdefault(value, {})
        masks[index] = masks.get(index, 0) | 1 << k
    return {value: list(masks.items()) for value, masks in out.items()}


def _columns(amat):
    """The columns of a literal matrix as ``_masks`` over its rows."""
    return _masks(((j, k), a) for (k, j), a in amat.items())


def literal_product(bmat, amat):
    """The product of two literal matrices in the sparse form of
    ``expand_finite_matrix``, grouped by value.  Each row of ``bmat`` and
    each column of ``amat`` is a bit mask over the middle indices, one per
    value it holds, so the middle indices joining an output entry through a
    pair of values (b, a) count as ``(row & column).bit_count()``.  The
    entry is then the sum of ``b * a * count`` over those pairs, and an
    entry whose sum comes to zero is left out.  The matrices of a finite
    model take few distinct values, so the scalar arithmetic follows the
    distinct value pairs, not the middle index."""
    return _masked_product(bmat, _columns(amat))


def _masked_product(bmat, columns):
    """``literal_product`` of ``bmat`` and the matrix whose ``_columns``
    are ``columns``."""
    out = {}
    for b, rows in _masks(bmat.items()).items():
        for a, cols in columns.items():
            ba, terms = b * a, {}
            for i, row in rows:
                for j, col in cols:
                    count = (row & col).bit_count()
                    if count:
                        term = terms.get(count)
                        if term is None:
                            term = terms[count] = ba * count
                        key = i, j
                        out[key] = out[key] + term if key in out else term
    return {key: value for key, value in out.items() if not value.is_zero()}


def _rank(grid):
    """The rank of a dense grid of scalars, by Gauss-Jordan elimination."""
    grid = [row[:] for row in grid]
    rank = 0
    cols = len(grid[0]) if grid else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(grid))
                      if not grid[r][c].is_zero()), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        inv = grid[rank][c].inv()
        grid[rank] = [v * inv for v in grid[rank]]
        for r in range(len(grid)):
            if r != rank and not grid[r][c].is_zero():
                factor = grid[r][c]
                grid[r] = [v - factor * w for v, w in zip(grid[r], grid[rank])]
        rank += 1
    return rank


def bgamma_kernel_dimension(backend, y_obj, gamma, field):
    """Dimension of the kernel of x -> gamma . (x (x) 1 - 1 (x) x) on the
    concrete function space of the finite backend.  Gamma, a function on
    Y x Y, is expanded as the literal matrix Y -> Y of its values at point
    pairs (u, v).  The grid has a row per pair (u, v) and a column per point
    y, and row (u, v) holds gamma(u, v) at y = u and -gamma(u, v) at y = v,
    zero when u = v."""
    ps2 = tensor_space(backend, [y_obj, y_obj])
    values = expand_finite_matrix(backend, InvariantMatrix(
        backend, y_obj, y_obj,
        {ps2.positions[k].meta: g for k, g in gamma.coeffs.items()}))
    n = sum(a.degree for a in y_obj.atoms)
    z = zero(field)
    grid = []
    for u, v in itertools.product(range(n), repeat=2):
        line = [z] * n
        if u != v and (u, v) in values:
            line[u] = values[u, v]
            line[v] = -values[u, v]
        grid.append(line)
    return n - _rank(grid)


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
    """Evaluate a matrix over Q(t) at t = N and expand it in the N-point
    model, as the dict ``{(row, column): value}`` of its nonzero entries;
    rows and columns number the model tuples atom by atom."""
    values = {}
    for key, entry in matrix.entries.items():
        value = entry.evaluate(n_points)
        if not value.is_zero():
            values[key] = value
    rows = [(tp, u) for tp, tatom in enumerate(matrix.target.atoms)
            for u in sym_model_points(tatom.degree, n_points)]
    cols = [(sp, x) for sp, satom in enumerate(matrix.source.atoms)
            for x in sym_model_points(satom.degree, n_points)]
    out = {}
    for r, (tp, u) in enumerate(rows):
        for c, (sp, x) in enumerate(cols):
            value = values.get((tp, sp, sym_pair_label(u, x)))
            if value is not None:
                out[r, c] = value
    return out


def _stabilizer_moves(n_points, n, tuples):
    """The moves on ``tuples`` (the model's injective tuples of one length),
    as index arrays, of the transposition (n n+1) and the cycle
    n -> n+1 -> ... -> N-1 -> n.  Together they generate Sym({n, ..., N-1}),
    the stabilizer of the n-tuple (0, ..., n-1); with fewer than two free
    points that stabilizer is trivial and has no moves."""
    free = list(range(n, n_points))
    if len(free) < 2:
        return []
    transposition = list(range(n_points))
    transposition[n], transposition[n + 1] = n + 1, n
    cycle = list(range(n_points))
    for a, b in zip(free, free[1:] + free[:1]):
        cycle[a] = b
    index = {x: i for i, x in enumerate(tuples)}
    return [[index[tuple(g[a] for a in x)] for x in tuples]
            for g in (transposition, cycle)]


def sym_orbit_count_model(n_points, n, m):
    """Number of orbits of the symmetric group on n_points points on pairs of
    an injective n-tuple and an injective m-tuple.

    The group is transitive on the n-tuples, so these orbits match the orbits
    of the stabilizer of u0 = (0, ..., n-1) on the m-tuples: one union-find
    over ``sym_model_points(m, n_points)`` under that stabilizer's two
    generators.  With fewer than n + m points some matchings of a pair cannot
    occur and the model would undercount, so that case raises ValueError."""
    if n_points < n + m:
        raise ValueError(
            f"{n_points} points cannot model pairs of {n}- and {m}-tuples")
    tuples = sym_model_points(m, n_points)
    return _count_orbits(len(tuples), _stabilizer_moves(n_points, n, tuples))


# Full category-layer oracle for the finite backend

def finite_orbit_count_on_pairs(backend, a, b):
    """Orbits on point pairs, counted by closure under the generators."""
    return _count_orbits(
        a.degree * b.degree,
        [_pair_moves(backend.act_table(g, a), backend.act_table(g, b),
                     b.degree)
         for g in backend.generators])


def _pair_rows(backend, x):
    """Row of x (x) x's literal matrix through each point pair (y1, y2) of the
    one-atom object x, as a nested list indexed [y1][y2]: the k-th point of
    an orbit of a x a is the pair its two projections list at k, and that
    orbit's position in ``tensor_space`` is a block of rows."""
    (a,) = x.atoms
    ps2 = tensor_space(backend, [x, x])
    row0 = _offsets(ps2.object)
    rows = [[None] * a.degree for _ in range(a.degree)]
    for orbit in backend.product_decompose(a, a):
        r = row0[ps2.index[0, 0, orbit.label]]
        for k, (y1, y2) in enumerate(zip(orbit.proj1.data, orbit.proj2.data)):
            rows[y1][y2] = r + k
    return rows


def _composition_failures(backend, measure, atoms, bases):
    """The composites of two hom-basis matrices whose ``matmul`` differs from
    the literal product, in the order (a, b, c, bl, al) of the source, middle
    and target atoms and the two basis matrices' orbits.

    ``bases[a, b]`` lists the (orbit label, basis matrix, literal matrix)
    triples of Hom(a, b).  Per middle atom b and target atom c, every basis
    matrix of Hom(b, c) is stacked into one matrix onto one copy of c per
    basis matrix, and every basis matrix into b, over all source atoms a,
    into one matrix from one copy of a per basis matrix; block (p, q) of
    their product is the composite of the p-th and q-th basis matrices.  One
    ``matmul``, one expansion and one ``literal_product`` of the stacked
    literal matrices check every composite through b into c, and only when
    the two sides differ are they sliced into blocks, numbered locally as the
    composites' own literal matrices are."""
    failures = []
    for ib, b in enumerate(atoms):
        ins = [(ia, a, al, am, amat) for ia, a in enumerate(atoms)
               for al, am, amat in bases[a, b]]
        # cols[j] is column j's (block column, column within the block)
        ams, amats, cols = {}, {}, []
        for q, (_ia, a, _al, am, amat) in enumerate(ins):
            for (_t, _s, label), value in am.entries.items():
                ams[0, q, label] = value
            for (k, j), value in amat.items():
                amats[k, len(cols) + j] = value
            cols += [(q, j) for j in range(a.degree)]
        stacked_a = InvariantMatrix(backend, backend.object_of(
            [a for _ia, a, *_ in ins]), backend.object_of([b]), ams)
        # every target atom's product reads the same columns of stacked A
        columns = _columns(amats)
        for ic, c in enumerate(atoms):
            outs, height = bases[b, c], c.degree
            stacked_b = InvariantMatrix(
                backend, backend.object_of([b]),
                backend.object_of([c] * len(outs)),
                {(p, s, label): value
                 for p, (_bl, bm, _bmat) in enumerate(outs)
                 for (_t, s, label), value in bm.entries.items()})
            bmats = {(p * height + i, k): value
                     for p, (_bl, _bm, bmat) in enumerate(outs)
                     for (i, k), value in bmat.items()}
            lhs = expand_finite_matrix(
                backend, matmul(measure, stacked_b, stacked_a))
            rhs = _masked_product(bmats, columns)
            if lhs == rhs:
                continue
            blocks = _blocks(lhs, height, cols), _blocks(rhs, height, cols)
            for p, q in blocks[0].keys() | blocks[1].keys():
                d = difference(*(side.get((p, q), {}) for side in blocks))
                if d:
                    ia, a, al = ins[q][:3]
                    failures.append(((ia, ib, ic, p, q), {
                        "composite": f"{a.render()} -> {b.render()}"
                                     f" -> {c.render()}",
                        "orbits": f"{outs[p][0]} after {al}", **d}))
    failures.sort(key=lambda failure: failure[0])
    return [failure for _order, failure in failures]


def _by_value(literal):
    """The entries of a literal matrix grouped by value:
    ``{value: [(row, column)]}``."""
    out = {}
    for key, value in literal.items():
        out.setdefault(value, []).append(key)
    return out


def _blocks(literal, height, cols):
    """A stacked literal matrix sliced into its blocks, {(p, q): block}:
    row r lies in block row r // height, and ``cols[j]`` is column j's
    (block column, column within the block)."""
    out = {}
    for (r, j), value in literal.items():
        p, i = divmod(r, height)
        q, k = cols[j]
        out.setdefault((p, q), {})[i, k] = value
    return out


def finite_category_oracle(backend, measure, bound):
    """Hom spaces, composition, tensor, duality and Frobenius structure of the
    finite backend against explicit permutation-matrix linear algebra."""
    field = measure.field
    u = one(field)
    atoms = backend.atoms_up_to(bound)
    xs = {a: backend.object_of([a]) for a in atoms}
    pairs = list(itertools.product(atoms, repeat=2))

    dims = []
    for a, b in pairs:
        dim = hom_dimension(backend, xs[a], xs[b])
        count = finite_orbit_count_on_pairs(backend, b, a)
        if dim != count:
            dims.append({"hom": f"{a.render()} -> {b.render()}",
                         "dim": str(dim), "orbits": str(count)})

    # each hom basis with its orbit labels and literal matrices, once per
    # atom pair
    bases = {(a, b): [(label, f, expand_finite_matrix(backend, f))
                      for f in hom_basis(backend, xs[a], xs[b], field)
                      for _t, _s, label in f.entries]
             for a, b in pairs}

    composition = _composition_failures(backend, measure, atoms, bases)

    tensors, duality, frobenius = [], [], []
    for a in atoms:
        rows = _pair_rows(backend, xs[a])
        points = range(a.degree)
        grouped = [(label, f, _by_value(fmat))
                   for label, f, fmat in bases[a, a]]
        for (fl, f, fvalues), (gl, g, gvalues) in itertools.product(grouped,
                                                                   repeat=2):
            # one product per pair of values, written at each pair of points
            lit = {}
            for fe, fpoints in fvalues.items():
                for ge, gpoints in gvalues.items():
                    value = fe * ge
                    for y1, x1 in fpoints:
                        row_y, row_x = rows[y1], rows[x1]
                        for y2, x2 in gpoints:
                            lit[row_y[y2], row_x[x2]] = value
            d = difference(
                expand_finite_matrix(backend, tensor(backend, f, g)), lit)
            if d:
                tensors.append({"atom": a.render(),
                                "orbits": f"{fl} (x) {gl}", **d})
        coev, _ = duality_data(backend, xs[a], field)
        d = difference(expand_finite_matrix(backend, coev),
                       {(rows[y][y], 0): u for y in points})
        if d:
            duality.append({"atom": a.render(), **d})
        frob = build_frobenius(backend, xs[a], field)
        pointwise = {"unit": {(y, 0): u for y in points},
                     "counit": {(0, y): u for y in points},
                     "mult": {(y, rows[y][y]): u for y in points}}
        diffs = {part: difference(
                     expand_finite_matrix(backend, getattr(frob, part)), literal)
                 for part, literal in pointwise.items()}
        wrong = [part for part, d in diffs.items() if d]
        if wrong:
            frobenius.append({"atom": a.render(), "parts": ", ".join(wrong),
                              **diffs[wrong[0]]})

    results = [
        verdict("hom-dimensions-count-orbits", dims, "homs"),
        verdict("composition-is-matrix-product", composition, "composites"),
        verdict("tensor-is-entrywise-product", tensors, "products"),
        verdict("duality-data-is-diagonal", duality, "atoms"),
        verdict("frobenius-structure-is-pointwise", frobenius, "atoms"),
    ]
    return Report(f"permutation-matrix oracle within {bound}", results)
