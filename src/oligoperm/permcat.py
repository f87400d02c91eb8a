"""The tensor category of free permutation objects.

Objects are the backend's ``GObject``s: X stands for the formal vector space
Vec_X.  Morphisms are ``InvariantMatrix``es: Vec_X -> Vec_Y is an invariant
matrix on Y x X, which carries X and Y as its source and target.  The unit
object is ``backend.unit_object()``, identities are ``identity_matrix``,
composition is ``matmul`` (integral matrix multiplication) and the tensor of
objects is ``tensor_space(backend, [x, y]).object``.  Reports render X as
``Vec[X]``.

Every object is self-dual: its duality data is the indicator of the diagonal
of X x X as a column (coevaluation) and its transpose (evaluation).
``frob.check_frobenius`` applies ``triangle_identities`` to two dualities,
this one and the Frobenius pairing, and folds the results into the snake
report here (``check_snake_identities``) and the perfect-pairing report in
``frob``.  The categorical dimension of Vec_X is the measure of X.

The linearization checker verifies that the pushforward/pullback assignment is
an additive, plenary balanced functor, and re-extracts the measure from it in
two ways: from the "unit column" relation A_f beta_X = mu(f) beta_Y, and from
pushing the constant function forward along f.  Both must return the stored
measure.
"""

from __future__ import annotations

import functools

from .coeff import one, zero
from .gset.base import GMap, atom_gmap
from .linmat import (
    InvariantMatrix,
    RowProduct,
    SchwartzFn,
    block_tensor,
    column_matrix,
    column_to_fn,
    constant_fn,
    identity_matrix,
    matmul,
    pullback_matrix,
    pushforward_fn,
    pushforward_matrix,
    scalar_entry,
    tensor_space,
    transpose,
    wiring_gmap,
)
from .report import CheckResult, Report, difference, verdict


def hom_basis(backend, x, y, field):
    """Orbit-indicator basis of Hom(Vec_X, Vec_Y)."""
    out = []
    for iy, b in enumerate(y.atoms):
        for ix, a in enumerate(x.atoms):
            for orbit in backend.product_decompose(b, a):
                out.append(InvariantMatrix(backend, x, y,
                                           {(iy, ix, orbit.label): one(field)}))
    return out


def hom_dimension(backend, x, y):
    total = 0
    for b in y.atoms:
        for a in x.atoms:
            total += len(backend.product_decompose(b, a))
    return total


def tensor(backend, f, g):
    src = tensor_space(backend, [f.source, g.source])
    tgt = tensor_space(backend, [f.target, g.target])
    return block_tensor([f, g], src, tgt, [[0], [1]], [[0], [1]])


def symmetry(backend, x, y, field):
    src = tensor_space(backend, [x, y])
    tgt = tensor_space(backend, [y, x])
    return pushforward_matrix(backend, wiring_gmap(src, tgt, (1, 0)), field)


def duality_data(backend, x, field):
    """Self-duality of Vec_X: coev is the indicator of the diagonal of X x X,
    as a column, and ev is its transpose."""
    ps1 = tensor_space(backend, [x])
    ps2 = tensor_space(backend, [x, x])
    diagonal = SchwartzFn(ps2.object, {
        pos: one(field) for pos, _m in wiring_gmap(ps1, ps2, (0, 0)).legs})
    coev = column_matrix(backend, diagonal)
    return coev, transpose(coev)


def triangle_identities(measure, x, coev, ev):
    """The two triangle identities of a duality pairing on Vec_X.

    ``coev: 1 -> X (x) X`` and ``ev: X (x) X -> 1`` are invariant matrices.
    Returns ``report.difference`` of (ev (x) id)(id (x) coev) and of
    (id (x) ev)(coev (x) id) from the identity of Vec_X, as (right, left):
    {} where the identity holds.
    """
    backend = measure.backend
    ps3 = RowProduct(backend, [x, x, x])
    right_unit = tensor_space(backend, [x, backend.unit_object()])
    left_unit = tensor_space(backend, [backend.unit_object(), x])
    ident = identity_matrix(backend, x, measure.field)

    id_coev = block_tensor([ident, coev], right_unit, ps3,
                           [[0], [1]], [[0], [1, 2]])
    ev_id = block_tensor([ev, ident], ps3, left_unit,
                         [[0, 1], [2]], [[0], [1]])
    coev_id = block_tensor([coev, ident], left_unit, ps3,
                           [[0], [1]], [[0, 1], [2]])
    id_ev = block_tensor([ident, ev], ps3, right_unit,
                         [[0], [1, 2]], [[0], [1]])
    return (difference(matmul(measure, ev_id, id_coev), ident),
            difference(matmul(measure, id_ev, coev_id), ident))


def check_snake_identities(x, sides):
    """The snake report on Vec_X from ``sides``, the (right, left) result of
    ``triangle_identities`` on the self-duality of Vec_X."""
    name = f"Vec[{x.render()}]"
    results = [CheckResult(f"snake-{side}", not d, d and {"object": name, **d})
               for side, d in zip(("right", "left"), sides)]
    return Report(f"snake identities on {name}", results)


def categorical_dim(measure, x, coev, ev):
    """The closed loop ev o swap o coev of the duality ``coev``, ``ev`` on
    Vec_X (``duality_data``); equals the measure of X."""
    field = measure.field
    swap = symmetry(measure.backend, x, x, field)
    loop = matmul(measure, ev, matmul(measure, swap, coev))
    return scalar_entry(loop, field)


def coproduct_with_inclusions(backend, x, y):
    obj = x + y
    remaining = list(range(len(obj.atoms)))

    def take(atom):
        for pos in remaining:
            if obj.atoms[pos] == atom:
                remaining.remove(pos)
                return pos
        raise AssertionError("coproduct atom bookkeeping failed")

    legs_x = tuple((take(a), backend.identity_map(a)) for a in x.atoms)
    legs_y = tuple((take(b), backend.identity_map(b)) for b in y.atoms)
    return obj, GMap(x, obj, legs_x), GMap(y, obj, legs_y)


def check_linearization(measure, bound):
    """Additivity, plenarity, functoriality and measure re-extraction, each
    reported through ``verdict``.  One walk over the atom maps checks the
    last three and builds each map's pushforward and pullback matrices
    once."""
    backend = measure.backend
    field = measure.field
    atoms = backend.atoms_up_to(bound)

    # additivity over coproduct inclusions
    additive = []
    for a in atoms:
        for b in atoms:
            x = backend.object_of([a])
            y = backend.object_of([b])
            obj, inc_x, inc_y = coproduct_with_inclusions(backend, x, y)
            ax = pushforward_matrix(backend, inc_x, field)
            ay = pushforward_matrix(backend, inc_y, field)
            bx = pullback_matrix(backend, inc_x, field)
            by = pullback_matrix(backend, inc_y, field)
            ident_x = identity_matrix(backend, x, field)
            ident_y = identity_matrix(backend, y, field)
            ident_xy = identity_matrix(backend, obj, field)
            d = (difference(matmul(measure, bx, ax), ident_x)
                 or difference(matmul(measure, by, ay), ident_y)
                 or difference(matmul(measure, bx, ay),
                               InvariantMatrix(backend, y, x))
                 or difference(matmul(measure, by, ax),
                               InvariantMatrix(backend, x, y))
                 or difference(matmul(measure, ax, bx) + matmul(measure, ay, by),
                               ident_xy))
            if d:
                additive.append({"pair": f"{a.render()} , {b.render()}", **d})

    # plenarity: Hom(Vec_X, 1) is one-dimensional, spanned by the collapse
    plenary = []
    unit = backend.unit_object()
    for a in atoms:
        x = backend.object_of([a])
        dim = hom_dimension(backend, x, unit)
        alpha = pushforward_matrix(backend, backend.collapse_gmap(x), field)
        basis = hom_basis(backend, x, unit, field)
        d = difference(basis[0], alpha) if len(basis) == 1 else {}
        if dim != 1 or len(basis) != 1 or d:
            plenary.append({"atom": a.render(), "dim": str(dim), **d})

    @functools.cache
    def push_pull(m):
        gmap = atom_gmap(backend, m)
        return (pushforward_matrix(backend, gmap, field),
                pullback_matrix(backend, gmap, field))

    functorial, extraction, unit_pushforward = [], [], []
    for a in atoms:
        x = backend.object_of([a])
        ones_x = constant_fn(x, one(field))
        beta_x = column_matrix(backend, ones_x)
        for b in atoms:
            y = backend.object_of([b])
            maps_ab = backend.hom_atoms(a, b)
            for f in maps_ab:
                name = f"{a.render()} -> {b.render()} {f.data}"
                # measure re-extraction: alpha_f beta_X = mu'(f) beta_Y, and
                # mu' must equal mu
                a_f, _ = push_pull(f)
                image = column_to_fn(matmul(measure, a_f, beta_x))
                extracted = image.coeffs.get(0, zero(field))
                stored = measure.mu_map(f)
                chain = measure.mu_atom(a) == extracted * measure.mu_atom(b)
                if extracted != stored or not chain:
                    extraction.append({
                        "map": name,
                        "extracted": extracted.render(),
                        "stored": stored.render(),
                        "chain": "ok" if chain else "violated",
                    })
                # pushforward of the constant function: f_*(1) = mu(f) * 1
                d = difference(
                    pushforward_fn(measure, atom_gmap(backend, f), ones_x),
                    constant_fn(y, stored))
                if d:
                    unit_pushforward.append({"map": name, **d})
            # functoriality of the balanced pair on composable atom maps
            if b.degree > a.degree:
                continue
            for c in atoms:
                if c.degree > b.degree:
                    continue
                for f in maps_ab[:3]:
                    push_f, pull_f = push_pull(f)
                    for g in backend.hom_atoms(b, c)[:3]:
                        push_g, pull_g = push_pull(g)
                        push_gf, pull_gf = push_pull(backend.compose_maps(g, f))
                        d = (difference(matmul(measure, push_g, push_f),
                                        push_gf)
                             or difference(matmul(measure, pull_f, pull_g),
                                           pull_gf))
                        if d:
                            functorial.append({
                                "maps": f"{a.render()} -> {b.render()} -> "
                                        f"{c.render()} {f.data} then {g.data}",
                                **d})

    results = [
        verdict("additive", additive, "pairs"),
        verdict("plenary", plenary, "atoms"),
        verdict("functorial", functorial, "composites"),
        verdict("measure-extraction", extraction, "maps"),
        verdict("unit-pushforward", unit_pushforward, "maps"),
    ]
    return Report(f"linearization checks for {backend.backend_id} within {bound}",
                  results)
