"""Invariant Schwartz-function calculus on products.

An invariant matrix from Vec_X to Vec_Y stores one scalar per orbit of Y x X,
keyed by (target atom position, source atom position, orbit label).  Matrix
composition is integration over the middle object: for each triple orbit lying
over a target/source orbit, the two marginal entries are multiplied by the
measure of the fiber of the triple orbit over the pair orbit.  Fiber measures
are always computed as fiber-class products of the orbit projection map, never
as a quotient of atom values, so non-regular measures are fully supported.

A product space is an iterated product object ``(X1 x ... x Xk-1) x Xk``.
Each of its atom positions holds its row (left position, right position,
orbit label) and a reference to that orbit of the decomposition the backend
cache keeps anyway, never a map per factor.  ``projection`` derives a
position's map onto any factor by walking the left chain, for the few
positions a caller visits.  Product spaces make the wiring maps (diagonals,
coordinate permutations and collapses) and blocked tensor products of
morphisms computable without any associator bookkeeping: every composite in
the category layer is expressed against product spaces of its factors.
``product_gmap`` maps between two-factor spaces only, and derives no
projection: a row of ``Y1 x Y2`` is an orbit of its two atoms, so the map
places ``gset.base.product_images`` of each pair of legs by row.

A ``RowProduct`` is a product that is never enumerated or numbered: a
matrix on it is keyed by rows (left position, right position, orbit label)
instead of positions, and its ``atoms`` maps just the rows ``multi_factor``
has placed to their orbit atoms, read off the induced map's target.  Matrix
operations only look up ``atoms[key]``, so they take it as they take an
object.  The Frobenius and duality chains address ``X x X x X`` this way,
and ``frob.check_sum_tensor_traces`` addresses ``X x Y x X x Y`` so: they
touch a few dozen of its orbits, and numbering all of them is what costs
(699,121 positions for ``line:inc[4]``).  A product a map leaves is
numbered, since the map keeps one leg per position of it.

``block_tensor`` walks neither product space.  It enumerates the nonzero
output orbits directly from the factor matrices' entries, as orbits of the
products of the entries' orbit atoms, so its work follows the output.  An
identity leg composes nothing: a one-factor block's leg is the entry
orbit's projection itself, and an entry's leg that is an identity map (an
identity matrix's, on its diagonal orbit) is carried as its atom, so its
leg on each orbit of the next product is that orbit's projection, as
``gset.base.product_images`` takes an atom for its identity.  A
product of functions on sub-products, such as the product of two pairings
on ``X x Y x X x Y``, is a ``block_tensor`` of rows into a ``RowProduct``,
so no table of where each flat position lands is kept.  Which triples of pair
orbits occur on ``X x X x X`` is ``gset.base.triple_table``.

``matmul`` reads the triple orbits over a pair of entries from
``gset.base.triple_row``.  The triple orbits of ``z x y x x`` over an orbit
``orbit_zy`` of ``z x y`` are its row against x, and each names its (y, x)
and (z, x) marginals, read off the ``pair_images`` tables of
``orbit_zy.proj2`` and ``orbit_zy.proj1``.  A pair of entries keeps, in row
order, the orbits whose (y, x) label is the source entry's.  The tables are
the ones the ``finite`` triple tables walk; ``sym`` and ``line`` compose
their triple tables from labels and read none of them.  ``linmat`` keeps
no cache of triple orbits of its own.
"""

from __future__ import annotations

from typing import NamedTuple

from .coeff import one, zero
from .errors import ShapeMismatch
from .gset.base import (Atom, GMap, GObject, orbit_by_label, product_images,
                        triple_row)


class PSPosition(NamedTuple):
    atom: object
    meta: tuple  # (left position, right position, orbit label) or ()
    orbit: object  # the ProductOrbit of the row, or None for one factor


class ProductSpace(NamedTuple):
    """An iterated product of objects, built as (left space) x (last factor)."""

    backend: object
    factors: tuple
    object: GObject
    positions: tuple  # of PSPosition
    left: object  # the ProductSpace of all factors but the last, or None
    index: dict  # meta -> position


def tensor_space(backend, factors):
    factors = tuple(factors)
    return backend._memo(("space", factors), _tensor_space, backend, factors)


def _tensor_space(backend, factors):
    """``tensor_space`` uncached."""
    if len(factors) == 1:
        obj = factors[0]
        positions = tuple(PSPosition(a, (), None) for a in obj.atoms)
        return ProductSpace(backend, factors, obj, positions, None, {})
    left = tensor_space(backend, factors[:-1])
    raw = [PSPosition(orbit.atom, (lp, rp, orbit.label), orbit)
           for lp, lpos in enumerate(left.positions)
           for rp, ratom in enumerate(factors[-1].atoms)
           for orbit in backend.product_decompose(lpos.atom, ratom)]
    raw.sort(key=lambda p: (p.atom, p.meta))
    obj = GObject(backend.backend_id, tuple(p.atom for p in raw))
    index = {p.meta: i for i, p in enumerate(raw)}
    return ProductSpace(backend, factors, obj, tuple(raw), left, index)


class RowProduct:
    """``(X1 x ... x Xk-1) x Xk`` addressed by row (left position, position
    in Xk, orbit label), never enumerated or numbered.  It is its own object:
    ``atoms`` maps each row ``multi_factor`` has placed to its orbit atom."""

    def __init__(self, backend, factors):
        self.backend, self.factors = backend, tuple(factors)
        self.left = tensor_space(backend, self.factors[:-1])
        self.object, self.atoms = self, {}

    def __eq__(self, other):
        """Equal on one backend (by identity, as a ``ProductSpace``
        compares it) and equal factors."""
        return (isinstance(other, RowProduct) and self.backend is other.backend
                and self.factors == other.factors)

    def __hash__(self):
        return hash((id(self.backend), self.factors))

    def render(self):
        """Its factors, since its orbits are not enumerated."""
        return " x ".join(f"({f.render()})" for f in self.factors)


def projection(space, p, i):
    """Position ``p``'s projection onto factor ``i``: the position in that
    factor and the AtomMap onto its atom, composed down the left chain."""
    pos = space.positions[p]
    if pos.orbit is None:
        return p, space.backend.identity_map(pos.atom)
    lp, rp, _label = pos.meta
    if i == len(space.factors) - 1:
        return rp, pos.orbit.proj2
    if len(space.factors) == 2:
        return lp, pos.orbit.proj1
    fp, m = projection(space.left, lp, i)
    return fp, space.backend.compose_maps(m, pos.orbit.proj1)


def multi_factor(backend, maps, space):
    """Factor a joint map through a product space.

    ``maps`` lists, per factor, a (position in that factor, AtomMap) pair, all
    with one common source atom.  Returns the hit position and the induced map
    onto its atom.
    """
    if len(space.factors) == 1:
        fp, m = maps[0]
        return fp, m
    lpos, lmap = multi_factor(backend, maps[:-1], space.left)
    rp, rmap = maps[-1]
    label, g = backend.product_factor(lmap, rmap)
    if isinstance(space, RowProduct):
        space.atoms[lpos, rp, label] = g.target
        return (lpos, rp, label), g
    return space.index[(lpos, rp, label)], g


class InvariantMatrix:
    """A sparse orbit-indexed matrix; zero entries are pruned eagerly."""

    def __init__(self, backend, source, target, entries=None):
        self.backend = backend
        self.source = source
        self.target = target
        self.entries = {}
        if entries:
            for key, value in entries.items():
                if not value.is_zero():
                    self.entries[key] = value

    def __eq__(self, other):
        return (isinstance(other, InvariantMatrix)
                and self.source == other.source
                and self.target == other.target
                and self.entries == other.entries)

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ShapeMismatch("matrix sum shape mismatch")
        out = dict(self.entries)
        for key, value in other.entries.items():
            out[key] = out[key] + value if key in out else value
        return InvariantMatrix(self.backend, self.source, self.target, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, scalar):
        return InvariantMatrix(
            self.backend, self.source, self.target,
            {k: v * scalar for k, v in self.entries.items()})

    def entry(self, key, field):
        return self.entries.get(key, zero(field))

    def render_entries(self):
        out = []
        for (t, s, label) in sorted(self.entries, key=lambda k: (k[0], k[1], k[2])):
            out.append([t, s, label, self.entries[(t, s, label)].render()])
        return out


def identity_matrix(backend, x, field):
    return pushforward_matrix(backend, backend.identity_gmap(x), field)


def pushforward_matrix(backend, f, field):
    """The indicator of the graph of f, as a matrix Vec_source -> Vec_target."""
    entries = {}
    for i, a in enumerate(f.source.atoms):
        j, m = f.legs[i]
        label, _ = backend.product_factor(m, backend.identity_map(a))
        entries[(j, i, label)] = one(field)
    return InvariantMatrix(backend, f.source, f.target, entries)


def pullback_matrix(backend, f, field):
    return transpose(pushforward_matrix(backend, f, field))


def transpose(matrix):
    backend = matrix.backend
    targets, sources = matrix.target.atoms, matrix.source.atoms
    entries = {(s, t, backend.swap_label(targets[t], sources[s], label)): value
               for (t, s, label), value in matrix.entries.items()}
    return InvariantMatrix(backend, matrix.target, matrix.source, entries)


def matmul(measure, b, a):
    """Integral matrix product: (BA)(z, x) integrates B(z, y) A(y, x) over y."""
    if a.target != b.source:
        raise ShapeMismatch(
            f"cannot compose {b.source.render()} <- after -> {a.target.render()}")
    backend = a.backend
    by_source = {}
    for (iz, iy, label), value in b.entries.items():
        by_source.setdefault(iy, []).append((iz, label, value))
    out = {}
    for (iy, ix, label_yx), a_val in a.entries.items():
        for (iz, label_zy, b_val) in by_source.get(iy, ()):
            z = b.target.atoms[iz]
            y = a.target.atoms[iy]
            x = a.source.atoms[ix]
            orbit_zy = orbit_by_label(backend, z, y, label_zy)
            # y is transitive, so every pair of entries has a completion
            ba_val = b_val * a_val
            for _orbit, (label, _), (label_zx, g) in triple_row(backend, orbit_zy, x):
                if label != label_yx:
                    continue
                term = ba_val * measure.mu_map(g)
                key = (iz, ix, label_zx)
                out[key] = out[key] + term if key in out else term
    return InvariantMatrix(backend, a.source, b.target, out)


def block_tensor(mats, src_ps, tgt_ps, src_blocks, tgt_blocks):
    """Tensor product of morphisms along a block structure.

    ``mats[k]`` maps the sub-product of the source factors in src_blocks[k] to
    the sub-product of the target factors in tgt_blocks[k]; the blocks of a
    side partition its factors.  The result is a matrix from the whole source
    product to the whole target product (either may be a ``RowProduct``);
    its value on an orbit is the product of the factor entries on the
    orbit's marginals.

    The output is enumerated from the entries, never from the product spaces.
    The nonzero orbits of ``M (x) N`` are in bijection with the triples
    ``(e1, e2, o)``: an entry of ``M`` on an orbit ``O1``, an entry of ``N``
    on an orbit ``O2``, and an orbit ``o`` of ``O1.atom x O2.atom``; with
    more blocks the product nests from the left.  Each triple carries maps
    from its atom onto every factor of both sides, composed down one level
    per block, and is placed by one ``multi_factor`` into each side's
    product and one ``product_factor`` of the two induced maps.  The value
    of a pair of entries is multiplied once and shared by all its orbits,
    and an entry's identity leg composes nothing (see the module docstring).
    """
    backend = src_ps.backend
    sides = []
    for ps, blocks in ((tgt_ps, tgt_blocks), (src_ps, src_blocks)):
        # a triple's legs run in block order; slot[i] is where factor i's sits
        order = [i for blk in blocks for i in blk]
        if sorted(order) != list(range(len(ps.factors))):
            raise ShapeMismatch("blocks do not partition the product's factors")
        sides.append(([tensor_space(backend, [ps.factors[i] for i in blk])
                       for blk in blocks],
                      [order.index(i) for i in range(len(order))]))
    (sub_tgt, tgt_slot), (sub_src, src_slot) = sides
    for k, mat in enumerate(mats):
        if mat.source != sub_src[k].object or mat.target != sub_tgt[k].object:
            raise ShapeMismatch(f"block {k} does not match its sub-product")

    def along(legs, m):
        """Each leg composed with m; a leg given as an atom is m itself."""
        return [(fp, m if isinstance(lm, Atom)
                 else backend.compose_maps(lm, m)) for fp, lm in legs]

    def onto_factors(sub, p, m):
        """Position p's maps onto sub's factors, composed with m."""
        if len(sub.factors) == 1:
            return [(p, m)]
        return along([projection(sub, p, j) for j in range(len(sub.factors))],
                     m)

    def entries(k):
        """Block k's entries: (orbit atom, value, legs onto its target
        factors, legs onto its source factors)."""
        tsub, ssub = sub_tgt[k], sub_src[k]
        out = []
        for (t, s, label), value in mats[k].entries.items():
            orbit = orbit_by_label(backend, tsub.object.atoms[t],
                                   ssub.object.atoms[s], label)
            out.append((orbit.atom, value, onto_factors(tsub, t, orbit.proj1),
                        onto_factors(ssub, s, orbit.proj2)))
        return out

    def carried(legs):
        """The legs, each identity map given as its atom."""
        return [(fp, lm.source if lm == backend.identity_map(lm.source)
                 else lm) for fp, lm in legs]

    partial = entries(0)
    for k in range(1, len(mats)):
        grown = []
        left = [(a1, v1, carried(t1), carried(s1))
                for a1, v1, t1, s1 in partial]
        for a2, v2, t2, s2 in entries(k):
            t2, s2 = carried(t2), carried(s2)
            for a1, v1, t1, s1 in left:
                value = v1 * v2
                grown.extend((o.atom, value,
                              along(t1, o.proj1) + along(t2, o.proj2),
                              along(s1, o.proj1) + along(s2, o.proj2))
                             for o in backend.product_decompose(a1, a2))
        partial = grown
    out = {}
    for _atom, value, tlegs, slegs in partial:
        w, gw = multi_factor(backend, [tlegs[j] for j in tgt_slot], tgt_ps)
        u, gu = multi_factor(backend, [slegs[j] for j in src_slot], src_ps)
        out[(w, u, backend.product_factor(gw, gu)[0])] = value
    return InvariantMatrix(backend, src_ps.object, tgt_ps.object, out)


def product_gmap(backend, f, g, src_ps, tgt_ps):
    """The object-level map f x g between two-factor product spaces
    ``Y1 x Y2 -> X1 x X2``.  A row (i, j, label) of ``src_ps`` is an orbit
    of the atoms at positions i and j, so each pair of legs places
    ``product_images`` of its two atom maps, row by row, through the two
    spaces' indexes."""
    legs = [None] * len(src_ps.positions)
    for i, (ti, m1) in enumerate(f.legs):
        for j, (tj, m2) in enumerate(g.legs):
            orbits = backend.product_decompose(m1.source, m2.source)
            for o, (label, m) in zip(orbits, product_images(backend, m1, m2)):
                legs[src_ps.index[(i, j, o.label)]] = (
                    tgt_ps.index[(ti, tj, label)], m)
    return GMap(src_ps.object, tgt_ps.object, tuple(legs))


def wiring_gmap(src_ps, tgt_ps, route):
    """The map that feeds target factor j from source factor route[j]."""
    backend = src_ps.backend
    for j, i in enumerate(route):
        if tgt_ps.factors[j] != src_ps.factors[i]:
            raise ShapeMismatch("wiring route factor mismatch")
    legs = []
    for p in range(len(src_ps.positions)):
        maps = [projection(src_ps, p, i) for i in route]
        legs.append(multi_factor(backend, maps, tgt_ps))
    return GMap(src_ps.object, tgt_ps.object, tuple(legs))


# Invariant functions


class SchwartzFn:
    """An invariant function on an object: one coefficient per atom position
    it does not vanish on.  Zero coefficients are dropped here, as
    ``InvariantMatrix`` prunes zero entries, so equality is structural."""

    def __init__(self, carrier, coeffs):
        self.carrier = carrier
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}

    def __eq__(self, other):
        return (isinstance(other, SchwartzFn) and self.carrier == other.carrier
                and self.coeffs == other.coeffs)

    def pointwise_mul(self, other):
        if self.carrier != other.carrier:
            raise ShapeMismatch("pointwise product carrier mismatch")
        out = {}
        for k, v in self.coeffs.items():
            if k in other.coeffs:
                out[k] = v * other.coeffs[k]
        return SchwartzFn(self.carrier, out)


def constant_fn(x, scalar):
    return SchwartzFn(x, {i: scalar for i in range(len(x.atoms))})


def unit_orbit_label(backend, a):
    """Label of the unique orbit of a x (one-point set)."""
    orbit = backend.product_decompose(a, backend.unit_atom())[0]
    return orbit.label


def column_matrix(backend, fn):
    """A function on X as a matrix Vec_1 -> Vec_X."""
    unit = backend.unit_object()
    entries = {}
    for pos, coeff in fn.coeffs.items():
        label = unit_orbit_label(backend, fn.carrier.atoms[pos])
        entries[(pos, 0, label)] = coeff
    return InvariantMatrix(backend, unit, fn.carrier, entries)


def column_to_fn(matrix):
    coeffs = {}
    for (pos, _zero, _label), value in matrix.entries.items():
        coeffs[pos] = value
    return SchwartzFn(matrix.target, coeffs)


def row_to_fn(matrix):
    """A matrix into the unit object, read as a function on its source."""
    coeffs = {}
    for (_zero, pos, _label), value in matrix.entries.items():
        coeffs[pos] = value
    return SchwartzFn(matrix.source, coeffs)


def pullback_fn(gmap, fn):
    """Precompose an invariant function with an object-level map.

    No measure is involved: the pulled-back function takes, on each source
    orbit, the value of the target orbit it maps into.
    """
    coeffs = {}
    for i, (j, _m) in enumerate(gmap.legs):
        if j in fn.coeffs:
            coeffs[i] = fn.coeffs[j]
    return SchwartzFn(gmap.source, coeffs)


def scalar_entry(matrix, field):
    """The value of a 1x1 matrix (both objects single-atom)."""
    if len(matrix.source.atoms) != 1 or len(matrix.target.atoms) != 1:
        raise ShapeMismatch("not a 1x1 matrix")
    if not matrix.entries:
        return zero(field)
    (value,) = matrix.entries.values()
    return value


def pushforward_fn(measure, gmap, fn):
    """Push an invariant function forward along an object-level map.

    The coefficient on a target orbit collects, from every source orbit
    mapping into it, the source coefficient weighted by the fiber measure of
    the restricted atom map.
    """
    out = {}
    for i, coeff in fn.coeffs.items():
        j, m = gmap.legs[i]
        term = coeff * measure.mu_map(m)
        out[j] = out[j] + term if j in out else term
    return SchwartzFn(gmap.target, out)


def pushforward_surjective_on_invariants(measure, legs, targets):
    """Whether pushforward along a map is onto the target's invariant
    functions.

    ``legs`` lists the map's legs, one ``(target key, AtomMap)`` per source
    orbit, the key naming the target orbit the leg lands in (a position of
    a ``GMap``'s target, or an orbit label of one product); ``targets`` is
    the number of target orbits.  In the target-by-source matrix of the
    pushforward, the column of a leg ``(j, m)`` has one possibly nonzero
    entry, ``mu_map(m)`` in row ``j``.  With at most one nonzero entry per
    column the rank is the number of rows some nonzero entry hits, so the
    map is onto exactly when every target orbit is hit by a leg of nonzero
    fiber measure.  ``mu_map`` depends on a leg only through its tuple of
    fiber classes, so whether it vanishes is decided once per distinct
    tuple among the legs; every tuple is evaluated, so a measure missing a
    fiber value raises ``UnknownAtom`` whatever the answer.
    """
    factorize = measure.backend.elementary_factorize
    vanishes = {}
    hit = set()
    for j, m in legs:
        classes = factorize(m)
        zero = vanishes.get(classes)
        if zero is None:
            zero = vanishes[classes] = measure.mu_map(m).is_zero()
        if not zero:
            hit.add(j)
    return len(hit) == targets
