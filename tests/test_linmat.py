"""Integral matrix calculus: composition, transpose, graph matrices."""

import itertools

import pytest

from oligoperm import linmat
from oligoperm.coeff import RATIONAL, Scalar, one, zero
from oligoperm.errors import ShapeMismatch, UnknownAtom
from oligoperm.gset import LINE, SYM, GMap, atom_gmap, preset_backend
from oligoperm.gset import base as gset_base
from oligoperm.linmat import (
    InvariantMatrix,
    SchwartzFn,
    block_tensor,
    column_matrix,
    constant_fn,
    identity_matrix,
    matmul,
    multi_factor,
    product_gmap,
    projection,
    pullback_matrix,
    pushforward_matrix,
    pushforward_surjective_on_invariants,
    tensor_space,
    transpose,
    wiring_gmap,
)
from oligoperm.frob import build_frobenius
from oligoperm.measure import Measure, solve_measures
from oligoperm.oracle import _rank
from oligoperm.permcat import hom_basis, tensor


@pytest.fixture(scope="module")
def mu_t():
    return solve_measures(SYM, 4).generic()


@pytest.fixture(scope="module")
def mu_line():
    return solve_measures(LINE, 4).generic()


def omega(n):
    return SYM.object_of([SYM.atom_of_arity(n)])


def line_obj(n):
    return LINE.object_of([LINE.atom_of_arity(n)])


def indicator_fn(x, pos, field):
    """The indicator of one atom position of x."""
    return SchwartzFn(x, {pos: one(field)})


def integrate(measure, fn):
    """The integral of an invariant function: each coefficient times the
    measure of its atom."""
    total = zero(measure.field)
    for pos, coeff in fn.coeffs.items():
        total = total + coeff * measure.mu_atom(fn.carrier.atoms[pos])
    return total


def endo_basis(backend, x, field):
    """Orbit indicator endomorphisms of a single-atom object."""
    (atom,) = x.atoms
    out = {}
    for orbit in backend.product_decompose(atom, atom):
        out[orbit.label] = InvariantMatrix(
            backend, x, x, {(0, 0, orbit.label): one(field)})
    return out


def test_identity_law(mu_t):
    x = omega(2)
    ident = identity_matrix(SYM, x, mu_t.field)
    basis = endo_basis(SYM, x, mu_t.field)
    for mat in basis.values():
        assert matmul(mu_t, ident, mat) == mat
        assert matmul(mu_t, mat, ident) == mat


def test_off_diagonal_composition_identity(mu_t):
    # e_neq . e_neq = (t-1) e_eq + (t-2) e_neq, an identity over Q(t)
    x = omega(1)
    t = Scalar.variable(mu_t.field)
    basis = endo_basis(SYM, x, mu_t.field)
    e_eq = basis["[1>1]"]
    e_neq = basis["[]"]
    square = matmul(mu_t, e_neq, e_neq)
    expected = e_eq.scale(t - 1) + e_neq.scale(t - 2)
    assert square == expected


def test_line_half_plane_composition(mu_line):
    # the strict-below indicator composes to minus itself: the middle point
    # ranges over a bounded interval of measure -1
    x = line_obj(1)
    basis = endo_basis(LINE, x, mu_line.field)
    e_less = basis["RL"]  # target coordinate above the source coordinate
    square = matmul(mu_line, e_less, e_less)
    assert square == e_less.scale(Scalar.from_int(mu_line.field, -1))


def test_pushforward_pullback_fiber_measure(mu_t):
    a2, a1 = SYM.atom_of_arity(2), SYM.atom_of_arity(1)
    select_first = [m for m in SYM.hom_atoms(a2, a1) if m.data == (1,)][0]
    f = atom_gmap(SYM, select_first)
    a_f = pushforward_matrix(SYM, f, mu_t.field)
    b_f = pullback_matrix(SYM, f, mu_t.field)
    t = Scalar.variable(mu_t.field)
    composite = matmul(mu_t, a_f, b_f)
    assert composite == identity_matrix(SYM, omega(1), mu_t.field).scale(t - 1)


def test_transpose_properties(mu_t):
    x = omega(1)
    basis = endo_basis(SYM, x, mu_t.field)
    a2, a1 = SYM.atom_of_arity(2), SYM.atom_of_arity(1)
    select = [m for m in SYM.hom_atoms(a2, a1) if m.data == (2,)][0]
    f = atom_gmap(SYM, select)
    a_f = pushforward_matrix(SYM, f, mu_t.field)
    assert transpose(a_f) == pullback_matrix(SYM, f, mu_t.field)
    assert transpose(transpose(a_f)) == a_f
    ident = identity_matrix(SYM, x, mu_t.field)
    assert transpose(ident) == ident

    e_neq = basis["[]"]
    lhs = transpose(matmul(mu_t, e_neq, a_f))
    rhs = matmul(mu_t, transpose(a_f), transpose(e_neq))
    assert lhs == rhs


def test_transpose_of_product(mu_t):
    x = omega(1)
    basis = list(endo_basis(SYM, x, mu_t.field).values())
    for b, a in itertools.product(basis, repeat=2):
        assert transpose(matmul(mu_t, b, a)) == \
            matmul(mu_t, transpose(a), transpose(b))


def test_associativity_on_endomorphisms(mu_t, mu_line):
    for backend, measure, obj in [(SYM, mu_t, omega(1)), (LINE, mu_line, line_obj(1))]:
        basis = list(endo_basis(backend, obj, measure.field).values())
        for c, b, a in itertools.product(basis, repeat=3):
            lhs = matmul(measure, c, matmul(measure, b, a))
            rhs = matmul(measure, matmul(measure, c, b), a)
            assert lhs == rhs


def test_associativity_through_collapse(mu_t):
    # triples passing through the unit object exercise whole-atom fibers
    x = omega(1)
    eps = pushforward_matrix(SYM, SYM.collapse_gmap(x), mu_t.field)
    eta = transpose(eps)
    basis = endo_basis(SYM, x, mu_t.field)
    for mat in basis.values():
        lhs = matmul(mu_t, eps, matmul(mu_t, mat, eta))
        rhs = matmul(mu_t, matmul(mu_t, eps, mat), eta)
        assert lhs == rhs


def test_associativity_fails_for_perturbed_measure(mu_t):
    mutant = mu_t.with_perturbed_atom(SYM.atom_of_arity(2), one(mu_t.field))
    x = omega(1)
    eps = pushforward_matrix(SYM, SYM.collapse_gmap(x), mutant.field)
    e_neq = endo_basis(SYM, x, mutant.field)["[]"]
    lhs = matmul(mutant, matmul(mutant, eps, e_neq), e_neq)
    rhs = matmul(mutant, eps, matmul(mutant, e_neq, e_neq))
    assert lhs != rhs


def test_integrate_examples(mu_t, mu_line):
    t = Scalar.variable(mu_t.field)
    assert integrate(mu_t, constant_fn(omega(1), one(mu_t.field))) == t

    ps = tensor_space(SYM, [omega(1), omega(1)])
    diag_pos = next(i for i, p in enumerate(ps.positions) if p.atom.degree == 1)
    assert integrate(mu_t, indicator_fn(ps.object, diag_pos, mu_t.field)) == t

    assert integrate(mu_line, constant_fn(line_obj(2), one(mu_line.field))) \
        == one(mu_line.field)


def test_integrate_bilinear(mu_t):
    x = omega(2)
    f1 = constant_fn(x, Scalar.variable(mu_t.field))
    f2 = indicator_fn(x, 0, mu_t.field)
    product = f1.pointwise_mul(f2)
    assert integrate(mu_t, product) == \
        Scalar.variable(mu_t.field) * integrate(mu_t, f2)


def test_wiring_diagonal(mu_t):
    x = omega(1)
    ps1 = tensor_space(SYM, [x])
    ps2 = tensor_space(SYM, [x, x])
    diag = wiring_gmap(ps1, ps2, (0, 0))
    a_diag = pushforward_matrix(SYM, diag, mu_t.field)
    # the graph of the diagonal hits only the everything-matched orbit
    assert len(a_diag.entries) == 1
    ((tpos, spos, _label),) = a_diag.entries
    assert ps2.positions[tpos].atom.degree == 1


def test_shape_mismatch(mu_t):
    x, y = omega(1), omega(2)
    with pytest.raises(ShapeMismatch):
        matmul(mu_t, identity_matrix(SYM, x, mu_t.field),
               identity_matrix(SYM, y, mu_t.field))


def test_column_matrix_round_trip(mu_t):
    x = omega(2)
    fn = indicator_fn(x, 0, mu_t.field)
    col = column_matrix(SYM, fn)
    assert col.source == SYM.unit_object()
    assert col.target == x


def test_functions_keep_no_zero_coefficient(mu_t):
    """A function drops its zero coefficients where it is built, so an
    explicit zero, a sum that cancels and a missing position are one and the
    same function."""
    field = mu_t.field
    t = Scalar.variable(field)
    x = SYM.object_of([SYM.atom_of_arity(1), SYM.atom_of_arity(2)])
    fn = SchwartzFn(x, {0: one(field), 1: t - t})
    assert fn.coeffs == {0: one(field)}
    assert fn == indicator_fn(x, 0, field)
    assert constant_fn(x, zero(field)).coeffs == {}
    # along the collapse of inj[1] + inj[1], 1 and -1 push forward to t - t
    xx = SYM.object_of([SYM.atom_of_arity(1)] * 2)
    opposite = SchwartzFn(xx, {0: one(field), 1: -one(field)})
    assert linmat.pushforward_fn(mu_t, SYM.collapse_gmap(xx),
                                 opposite).coeffs == {}


# block_tensor against a dense reference


S3 = preset_backend("S3")


def small_objects(backend):
    """Single-atom objects of degree <= 2, plus one two-atom object."""
    atoms = backend.atoms_up_to(2)
    return ([backend.object_of([a]) for a in atoms]
            + [backend.object_of(atoms[:2])])


def reference_block_keys(src_ps, tgt_ps, src_blocks, tgt_blocks):
    """Every (w, u, orbit) of the product, with per block the key of the
    entry it reads: the block's positions from multi_factor and its label
    from product_factor.  The keys do not depend on the block matrices, so
    a test that checks many matrices on one pair of spaces walks once."""
    backend = src_ps.backend

    def factored(ps, blocks):
        """Per position, per block: (sub-product position, induced map)."""
        subs = [tensor_space(backend, [ps.factors[i] for i in blk])
                for blk in blocks]
        return [[multi_factor(backend, [projection(ps, p, i) for i in blk], sub)
                 for blk, sub in zip(blocks, subs)]
                for p in range(len(ps.positions))]

    src_data = factored(src_ps, src_blocks)
    tgt_data = factored(tgt_ps, tgt_blocks)
    keys = []
    for w, wpos in enumerate(tgt_ps.positions):
        for u, upos in enumerate(src_ps.positions):
            for orbit in backend.product_decompose(wpos.atom, upos.atom):
                entries = []
                for (tpos, tmap), (spos, smap) in zip(tgt_data[w],
                                                      src_data[u]):
                    label, _ = backend.product_factor(
                        backend.compose_maps(tmap, orbit.proj1),
                        backend.compose_maps(smap, orbit.proj2))
                    entries.append((tpos, spos, label))
                keys.append(((w, u, orbit.label), entries))
    return src_ps, tgt_ps, keys


def reference_block_tensor(field, mats, block_keys):
    """At every (w, u, orbit) of ``reference_block_keys``, the product of
    the block entries."""
    src_ps, tgt_ps, keys = block_keys
    out = {}
    for key, entries in keys:
        value = one(field)
        for mat, entry in zip(mats, entries):
            value = value * mat.entry(entry, field)
        out[key] = value
    return InvariantMatrix(src_ps.backend, src_ps.object, tgt_ps.object, out)


def generic_matrix(backend, source, target, field, keep_every=1):
    """Distinct nonzero values on every keep_every-th orbit of target x source."""
    entries = {}
    n = 0
    for t, b in enumerate(target.atoms):
        for s, a in enumerate(source.atoms):
            for orbit in backend.product_decompose(b, a):
                n += 1
                if n % keep_every == 0:
                    entries[(t, s, orbit.label)] = Scalar.from_int(field, n)
    return InvariantMatrix(backend, source, target, entries)


# (source factors, target factors, source blocks, target blocks): the first
# six as used by frob and permcat, then three blocks, and blocks that take
# non-adjacent source factors and feed the target factors out of order; "1"
# is the unit object, "x" the object under test
BLOCK_SHAPES = [
    ("1x", "xx", [[0], [1]], [[0], [1]]),
    ("xx", "1x", [[0], [1]], [[0], [1]]),
    ("x1", "xxx", [[0], [1]], [[0], [1, 2]]),
    ("xxx", "1x", [[0, 1], [2]], [[0], [1]]),
    ("1x", "xxx", [[0], [1]], [[0, 1], [2]]),
    ("xxx", "x1", [[0], [1, 2]], [[0], [1]]),
    ("xxx", "xxx", [[0], [1], [2]], [[0], [1], [2]]),
    ("xxx", "xx1", [[0, 2], [1]], [[1, 2], [0]]),
]

# the dense reference visits every (w, u) pair; the flat spaces of the
# shapes without a unit factor stay below this many pairs
REFERENCE_PAIRS = 1000


def block_cases(backend, shape):
    """The (source space, target space) pairs a shape is checked on."""
    src_word, tgt_word, _, _ = shape
    for x in small_objects(backend):
        factor = {"1": backend.unit_object(), "x": x}
        src_ps = tensor_space(backend, [factor[c] for c in src_word])
        tgt_ps = tensor_space(backend, [factor[c] for c in tgt_word])
        if len(src_ps.positions) * len(tgt_ps.positions) <= REFERENCE_PAIRS:
            yield src_ps, tgt_ps


def block_mats(src_ps, tgt_ps, src_blocks, tgt_blocks, field, keep_every):
    """A generic matrix per block, each on its own sparsity pattern."""
    backend = src_ps.backend
    return [
        generic_matrix(
            backend,
            tensor_space(backend, [src_ps.factors[i] for i in sblk]).object,
            tensor_space(backend, [tgt_ps.factors[i] for i in tblk]).object,
            field, keep_every + k)
        for k, (sblk, tblk) in enumerate(zip(src_blocks, tgt_blocks))]


@pytest.mark.parametrize("backend", [SYM, LINE, S3], ids=["sym", "line", "S3"])
@pytest.mark.parametrize("shape", BLOCK_SHAPES,
                         ids=[f"{s}-{t}" for s, t, _, _ in BLOCK_SHAPES])
def test_block_tensor_matches_reference(backend, shape):
    _, _, src_blocks, tgt_blocks = shape
    field = RATIONAL
    cases = 0
    for src_ps, tgt_ps in block_cases(backend, shape):
        cases += 1
        keys = reference_block_keys(src_ps, tgt_ps, src_blocks, tgt_blocks)
        for keep_every in (1, 3):
            mats = block_mats(src_ps, tgt_ps, src_blocks, tgt_blocks, field,
                              keep_every)
            got = block_tensor(mats, src_ps, tgt_ps, src_blocks, tgt_blocks)
            want = reference_block_tensor(field, mats, keys)
            assert got == want
            assert got.entries or not want.entries
    assert cases >= 3


@pytest.mark.parametrize("backend", [SYM, LINE, S3], ids=["sym", "line", "S3"])
@pytest.mark.parametrize("shape", BLOCK_SHAPES,
                         ids=[f"{s}-{t}" for s, t, _, _ in BLOCK_SHAPES])
def test_block_tensor_with_an_empty_block_is_zero(backend, shape):
    _, _, src_blocks, tgt_blocks = shape
    field = RATIONAL
    src_ps, tgt_ps = list(block_cases(backend, shape))[1]
    keys = reference_block_keys(src_ps, tgt_ps, src_blocks, tgt_blocks)
    for k in range(len(src_blocks)):
        mats = block_mats(src_ps, tgt_ps, src_blocks, tgt_blocks, field, 1)
        mats[k] = InvariantMatrix(backend, mats[k].source, mats[k].target)
        got = block_tensor(mats, src_ps, tgt_ps, src_blocks, tgt_blocks)
        assert not got.entries
        assert got == reference_block_tensor(field, mats, keys)


def test_block_tensor_rejects_blocks_that_miss_a_factor():
    x = omega(1)
    ps2 = tensor_space(SYM, [x, x])
    ident = identity_matrix(SYM, x, RATIONAL)
    for blocks in ([[0], [0]], [[0]]):
        with pytest.raises(ShapeMismatch):
            block_tensor([ident] * len(blocks), ps2, ps2, blocks, [[0], [1]])


@pytest.mark.parametrize("make", [type(SYM), type(LINE)], ids=["sym", "line"])
def test_block_tensor_work_follows_the_output(make, monkeypatch):
    """unit (x) id on a degree-3 atom costs a few compositions and factorings
    per nonzero output orbit, not a walk of the flat spaces."""
    backend = make()
    x = backend.object_of([backend.atom_of_arity(3)])
    f = build_frobenius(backend, x, RATIONAL)
    ident = identity_matrix(backend, x, RATIONAL)
    unit_right = tensor_space(backend, [backend.unit_object(), x])
    calls = {"compose_maps": 0, "product_factor": 0}
    for method in calls:
        original = getattr(backend, method)

        def counted(*args, _original=original, _method=method):
            calls[_method] += 1
            return _original(*args)

        monkeypatch.setattr(backend, method, counted)
    eta_id = block_tensor([f.unit, ident], unit_right, f.ps2,
                          [[0], [1]], [[0], [1]])
    assert len(eta_id.entries) >= 30
    for method, n in calls.items():
        assert n <= 8 * len(eta_id.entries), method


@pytest.mark.parametrize("backend", [SYM, LINE, S3], ids=["sym", "line", "S3"])
def test_permcat_tensor_matches_reference(backend):
    field = RATIONAL
    objects = small_objects(backend)
    x, y = objects[1], objects[-1]
    keys = reference_block_keys(tensor_space(backend, [x, y]),
                                tensor_space(backend, [y, x]),
                                [[0], [1]], [[0], [1]])
    for f, g in itertools.product(hom_basis(backend, x, y, field),
                                  hom_basis(backend, y, x, field)):
        want = reference_block_tensor(field, [f, g], keys)
        got = tensor(backend, f, g)
        assert got == want and got.entries


def reference_projections(ps):
    """Per position, per factor: (position in the factor, AtomMap), composed
    eagerly down the left chain from each row's orbit of the decomposition."""
    backend = ps.backend
    if len(ps.factors) == 1:
        return [((i, backend.identity_map(a)),)
                for i, a in enumerate(ps.object.atoms)]
    left = reference_projections(ps.left)
    out = []
    for pos in ps.positions:
        lp, rp, label = pos.meta
        (orbit,) = [o for o in backend.product_decompose(
                        ps.left.object.atoms[lp], ps.factors[-1].atoms[rp])
                    if o.label == label]
        assert orbit.atom == pos.atom
        out.append(tuple((fp, backend.compose_maps(m, orbit.proj1))
                         for fp, m in left[lp]) + ((rp, orbit.proj2),))
    return out


@pytest.mark.parametrize("backend", [SYM, LINE, S3], ids=["sym", "line", "S3"])
def test_marginal_matches_multi_factor(backend):
    """Each position's projection onto every factor of 3- and 4-fold
    products matches the maps composed down its rows."""
    objects = small_objects(backend)
    # a 4-fold power only where the cube is small: line's inc[2]^4 has
    # 23,917 positions
    products = ([[x] * 3 for x in objects]
                + [[x] * 4 for x in objects
                   if len(tensor_space(backend, [x] * 3).positions) <= 100]
                + [[objects[1], objects[-1], objects[1], objects[-1]]])
    for factors in products:
        ps = tensor_space(backend, factors)
        for p, maps in enumerate(reference_projections(ps)):
            assert [projection(ps, p, i) for i in range(len(factors))] == list(maps)


def test_tensor_space_composes_no_maps(monkeypatch):
    """A product space is built from the decompositions alone."""
    backend = type(LINE)()
    calls = []
    compose = backend.compose_maps

    def counted(outer, inner):
        calls.append((outer, inner))
        return compose(outer, inner)

    monkeypatch.setattr(backend, "compose_maps", counted)
    x = backend.object_of([backend.atom_of_arity(2)])
    ps = tensor_space(backend, [x, x, x])
    assert ps.positions and not calls


def projection_walk_gmap(backend, f, g, src_ps, tgt_ps):
    """``product_gmap`` by each source position's two projections, composed
    with its legs and factored into ``tgt_ps`` by ``multi_factor``."""
    legs = []
    for p in range(len(src_ps.positions)):
        (i, p1), (j, p2) = projection(src_ps, p, 0), projection(src_ps, p, 1)
        ti, m1 = f.legs[i]
        tj, m2 = g.legs[j]
        maps = [(ti, backend.compose_maps(m1, p1)),
                (tj, backend.compose_maps(m2, p2))]
        legs.append(multi_factor(backend, maps, tgt_ps))
    return GMap(src_ps.object, tgt_ps.object, tuple(legs))


@pytest.mark.parametrize("backend, bound", [(SYM, 3), (LINE, 3), (S3, 6)],
                         ids=["sym", "line", "S3"])
def test_product_gmap_matches_projection_walk(backend, bound):
    """``f x g`` placed from ``product_images`` has the legs, positions and
    induced maps of the projection walk: for every pair of atom maps within
    the bound, and for every pair of maps between two two-atom objects."""
    atoms = backend.atoms_up_to(bound)
    maps = [atom_gmap(backend, m) for a in atoms for b in atoms
            for m in backend.hom_atoms(a, b)]
    sums = backend.hom_objects(backend.object_of(atoms[1:3]),
                               backend.object_of(atoms[:2]))
    assert sums
    for f, g in itertools.chain(itertools.product(maps, repeat=2),
                                itertools.product(sums, repeat=2)):
        src = tensor_space(backend, [f.source, g.source])
        tgt = tensor_space(backend, [f.target, g.target])
        assert (product_gmap(backend, f, g, src, tgt)
                == projection_walk_gmap(backend, f, g, src, tgt))


# pushforward surjectivity against the dense rank


def dense_pushforward_surjective(measure, gmap):
    """Rank of the full target x source pushforward matrix, by elimination."""
    field = measure.field
    rows = len(gmap.target.atoms)
    grid = [[zero(field) for _ in gmap.source.atoms] for _ in range(rows)]
    for s, (j, m) in enumerate(gmap.legs):
        grid[j][s] = grid[j][s] + measure.mu_map(m)
    return _rank(grid) == rows


CLASSIFY_MEASURES = {
    "sym": lambda: solve_measures(SYM, 3).generic(),
    "sym-t1": lambda: solve_measures(SYM, 3).specialize(1),
    "sym-t2": lambda: solve_measures(SYM, 3).specialize(2),
    "sym-t3": lambda: solve_measures(SYM, 3).specialize(3),
    "line": lambda: solve_measures(LINE, 3).generic(),
    "S3": lambda: solve_measures(S3, 3).generic(),
}


# single-drop probes per backend at bound 3: 9 sym and 6 line drops, times
# 4 atoms W, and the S3 drops
SINGLE_DROP_PROBES = {"sym": 36, "line": 24, "finite": 6}


def single_drop_probes(backend, bound):
    """``id_W x f`` for every single drop f (a surjective atom map with one
    fiber class) and every atom W within the bound, not only one drop per
    automorphism class as ``classify_measure`` probes."""
    atoms = backend.atoms_up_to(bound)
    for a in atoms:
        for b in atoms:
            for f in backend.hom_atoms(a, b):
                if len(backend.elementary_factorize(f)) != 1:
                    continue
                for w in atoms:
                    x = backend.object_of([w])
                    yield product_gmap(
                        backend, backend.identity_gmap(x), atom_gmap(backend, f),
                        tensor_space(backend, [x, backend.object_of([a])]),
                        tensor_space(backend, [x, backend.object_of([b])]))


@pytest.mark.parametrize("name", list(CLASSIFY_MEASURES))
def test_pushforward_surjective_matches_dense_rank(name):
    # every single-drop probe at bound 3, built here
    measure = CLASSIFY_MEASURES[name]()
    mismatches = []
    probes = 0
    for gmap in single_drop_probes(measure.backend, 3):
        probes += 1
        if (pushforward_surjective_on_invariants(
                measure, gmap.legs, len(gmap.target.atoms))
                != dense_pushforward_surjective(measure, gmap)):
            mismatches.append((gmap.source.render(), gmap.target.render()))
    assert probes == SINGLE_DROP_PROBES[measure.backend.backend_id]
    assert mismatches == []


def test_pushforward_surjective_zero_fiber_leaves_position_unhit():
    # at t = 1, dropping a point of inj[2] has fiber measure t - 1 = 0
    family = solve_measures(SYM, 3)
    a0, a1, a2 = (SYM.atom_of_arity(n) for n in (0, 1, 2))
    select = SYM.hom_atoms(a2, a1)[0]
    unhit = GMap(SYM.object_of([a0, a2]), SYM.object_of([a0, a1]),
                 ((0, SYM.identity_map(a0)), (1, select)))
    covered = GMap(SYM.object_of([a1, a2]), SYM.object_of([a1]),
                   ((0, SYM.identity_map(a1)), (0, select)))
    for t, want_unhit in ((1, False), (5, True)):
        measure = family.specialize(t)
        assert measure.mu_map(select).is_zero() is (t == 1)
        for gmap, want in ((unhit, want_unhit), (covered, True)):
            assert pushforward_surjective_on_invariants(
                measure, gmap.legs, len(gmap.target.atoms)) is want
            assert dense_pushforward_surjective(measure, gmap) is want
    # every leg is evaluated: a missing fiber value raises even after the
    # identity leg has already hit the only target position
    no_fibers = Measure(SYM, RATIONAL, {}, {})
    with pytest.raises(UnknownAtom):
        pushforward_surjective_on_invariants(
            no_fibers, covered.legs, len(covered.target.atoms))


# the triple-orbit completions of ``gset.base.triple_row`` against one walk
# per label pair


def reference_completions(backend, z, y, x, label_zy, label_yx):
    """Every orbit of ``orbit_zy.atom x x`` walked once per label pair: its
    (y, x) marginal factored, and for a match its (z, x) marginal."""
    orbit_zy = next(o for o in backend.product_decompose(z, y)
                    if o.label == label_zy)
    out = []
    for orbit in backend.product_decompose(orbit_zy.atom, x):
        to_y = backend.compose_maps(orbit_zy.proj2, orbit.proj1)
        label_mid, _ = backend.product_factor(to_y, orbit.proj2)
        if label_mid != label_yx:
            continue
        to_z = backend.compose_maps(orbit_zy.proj1, orbit.proj1)
        out.append(backend.product_factor(to_z, orbit.proj2))
    return tuple(out)


COMPLETION_BACKENDS = {
    "sym": (type(SYM), 2),
    "line": (type(LINE), 2),
    "S3": (lambda: preset_backend("S3"), 6),
    "C2x4": (lambda: preset_backend("C2x4"), 6),
}


@pytest.mark.parametrize("name", list(COMPLETION_BACKENDS))
def test_completions_match_walk_per_label_pair(name):
    """On every label pair of every atom triple, the ``triple_row`` of the
    (z, y) orbit keeps, in order, the (z, x) labels and maps of the walk per
    label pair on a second backend: what ``matmul`` reads."""
    make, bound = COMPLETION_BACKENDS[name]
    backend, reference = make(), make()
    compared = 0
    for z, y, x in itertools.product(backend.atoms_up_to(bound), repeat=3):
        for o_zy in backend.product_decompose(z, y):
            row = list(gset_base.triple_row(backend, o_zy, x))
            for o_yx in backend.product_decompose(y, x):
                got = tuple(to_zx for _orbit, (label, _), to_zx in row
                            if label == o_yx.label)
                assert got == reference_completions(reference, z, y, x,
                                                    o_zy.label, o_yx.label)
                compared += bool(got)
    assert compared


def count_product_factor(monkeypatch, cls):
    calls = []
    original = cls.product_factor

    def counted(self, f, g):
        calls.append(None)
        return original(self, f, g)

    monkeypatch.setattr(cls, "product_factor", counted)
    return calls


def count_imaged(monkeypatch, cls):
    """A list that grows by one per orbit the image walk ``_images``
    reads, the walk's unit of work."""
    imaged = []
    original = cls._images

    def counted(self, f, g, orbits):
        imaged.extend([None] * len(orbits))
        return original(self, f, g, orbits)

    monkeypatch.setattr(cls, "_images", counted)
    return imaged


@pytest.mark.parametrize("make, pick, walked", [
    (type(SYM), lambda backend: [backend.atom_of_arity(2)], False),
    (type(LINE), lambda backend: [backend.atom_of_arity(2)], False),
    (lambda: preset_backend("S3"), lambda backend: backend.atoms_up_to(6), True),
], ids=["sym", "line", "S3"])
def test_completions_share_triple_table_images(make, pick, walked, monkeypatch):
    """The ``triple_row`` reads of ``matmul`` over x x x x x image each
    table they read once, however many label pairs read it.  S3's triple
    table of x walks those rows, so after it the reads image nothing (a
    separate completion walk made 92 ``product_factor`` calls).  The sym
    and line triple tables are composed from labels and image nothing, so
    there the reads image each table of a projection of an orbit of
    x x x once, one per orbit of the table, in the first pass over the
    label pairs, and nothing in a second.  (These counted
    ``product_factor`` calls when the walk factored one per orbit: the
    same numbers.)"""
    backend = make()
    atoms = pick(backend)
    calls = count_imaged(monkeypatch, type(backend))
    for x in atoms:
        assert gset_base.triple_table(backend, x, x, x)
    assert bool(calls) == walked
    tables = 0 if walked else sum(
        len(backend.product_decompose(p.source, x)) for x in atoms
        for p in {p for o in backend.product_decompose(x, x)
                  for p in (o.proj1, o.proj2)})
    for want in (tables, 0):
        del calls[:]
        pairs = 0
        for x in atoms:
            orbits = backend.product_decompose(x, x)
            for omega, o_yx in itertools.product(orbits, repeat=2):
                pairs += any(label == o_yx.label for _orbit, (label, _), _to_zx
                             in gset_base.triple_row(backend, omega, x))
        assert pairs and len(calls) == want


@pytest.mark.parametrize("make, bound, factored, imaged", [
    (lambda: preset_backend("S4"), 6, 1463, 866),
    (type(LINE), 3, 3221, 1841),
    (type(SYM), 3, 1884, 1166),
], ids=["S4", "line", "sym"])
def test_suite_factorings_stay_within_budget(make, bound, factored, imaged,
                                             monkeypatch):
    """A suite factors each projection's image table once, shared by the
    triple tables of S4 and ``matmul``'s triple rows; the triple tables of
    line and sym are composed from labels and factor nothing, and
    sum-tensor-traces factors only the few rows of its pairing product.
    The symmetric check of ``e_idempotent_check`` swaps labels and factors
    nothing, and the gamma check pulls a function back along ``f x f``,
    which factors no graph.  Each Frobenius structure is built once per
    object, the triangle identities run once per atom, and the gamma block
    checks each distinct gamma once.  A Frobenius structure's unit and
    multiplication, and the axioms' X^3 pullbacks, are transposes of the
    pushforwards already built, and the trace form reads the transpose of
    the structure's ``comult (x) 1`` that the axioms built.  The counts are
    exact, so a change in either direction shows (the image-table walk
    made 21,808 line and 9,344
    sym calls, numbering the four-fold product of sum-tensor-traces 2,638
    S4, 11,196 line and 5,990 sym calls, the symmetric check's swap wiring
    2,620 S4, 8,454 line and 5,657 sym calls, the gamma check's matrix
    pullback 2,603 S4, 7,852 line and 5,052 sym calls, and building each
    check's own Frobenius structure, triangle identities and gamma checks
    2,592 S4, 7,273 line and 4,447 sym calls, building each pullback's
    wiring again 2,399 S4, 5,814 line and 3,474 sym calls, and the trace
    form's own X^3 wiring 2,351 S4, 5,312 line and 3,192 sym calls).  The
    image walk reads each orbit's selections through its legs and calls no
    ``product_factor``, so a factoring is a ``product_factor`` call or an
    orbit imaged, and both are pinned (one ``product_factor`` per orbit
    imaged, with each check's own diagonal duality and splitting function,
    made 2,336 S4, 5,072 line and 3,060 sym calls)."""
    from oligoperm.suite import run_suite

    backend = make()
    calls = count_product_factor(monkeypatch, type(backend))
    images = count_imaged(monkeypatch, type(backend))
    assert run_suite(backend, bound).passed
    assert (len(calls), len(images)) == (factored, imaged)
