"""Axiom checker for the combinatorial category fragments.

Eight axioms are verified on the fragment within a bound: existence and
universal properties of finite coproducts (a)-(c), fiber products and the
final object (d), monomorphisms of atoms being isomorphisms (e), non-emptiness
of atom fiber products (f), atomicity of the final object (g), and
effectivity of internal equivalence relations (h).  Each axiom reports
through ``report.verdict``.

Internal equivalence relations on an atom X are unions of orbits of X x X
containing the diagonal, closed under the swap, and closed under relational
composition.  Every relation is the join of the principal closures of the
orbits it contains, so they are enumerated as joins of principal closures,
each distinct set closed once (``_relation_masks``):

- one principal closure per swap pair: a relation is closed under swap, so
  an orbit and its swap have the same closure, and an orbit already in the
  least relation has that relation as its closure;
- joins with join-irreducible generators only: a principal closure that is
  the closure of the union of the principal closures strictly below it is
  their join, so by induction on size every principal closure, and hence
  every relation, is a join of the principal closures that are not;
- each distinct union closed once: the closure of a relation r joined with
  p depends only on the union r | p, so a union met before, or one that is
  already a relation, is skipped.

Axiom (h) asks each of them to be the kernel pair of a surjection
onto an object of the fragment.  The checker computes the kernel pair of
every surjection out of X once (``quotients_by_kernel``), and reports a
relation as a witness when no surjection has it as its kernel pair.

Kernel pairs and fiber products of atom maps are read off one filter,
``base.agreeing_orbits``: the orbits of ``a x b`` on which two maps into one
atom agree, tested by ``backend._agree`` on the maps' data.  The kernel of a
surjection in (h) is the labels of its ``base.kernel_pair``, the orbits the
filter yields for the map with itself, kept once per map; a map is mono in
(e) when its kernel pair is exactly one orbit, and a cospan in (f) is
nonempty when the filter yields any orbit.  The universality count
of (d) reads a map from an atom into the fiber product as one of the orbits
with an atom map into it, so no check builds a fiber-product object.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from ..report import CheckResult, Report, verdict
from .base import agreeing_orbits, kernel_pair, triple_table


def check_coproducts(backend, atoms):
    failures = []
    for x in atoms[: min(len(atoms), 3)]:
        for y in atoms[: min(len(atoms), 3)]:
            for z in atoms:
                pair = backend.object_of([x, y])
                zobj = backend.object_of([z])
                lhs = len(backend.hom_objects(pair, zobj))
                rhs = (len(backend.hom_atoms(x, z))
                       * len(backend.hom_atoms(y, z)))
                if lhs != rhs:
                    failures.append({"objects": f"{x.render()} + {y.render()}"
                                                f" -> {z.render()}"})
    return verdict("a-coproducts", failures, "instances",
                   note="maps out of a coproduct are leg tuples")


def check_atom_decomposition(backend, atoms):
    return CheckResult("b-atomic-decomposition", True,
                       note="objects are stored as finite atom multisets")


def check_maps_into_coproducts(backend, atoms):
    failures = []
    for x in atoms:
        for y in atoms:
            for z in atoms:
                target = backend.object_of([y, z])
                lhs = len(backend.hom_objects(backend.object_of([x]), target))
                rhs = (len(backend.hom_atoms(x, y))
                       + len(backend.hom_atoms(x, z)))
                if lhs != rhs:
                    failures.append({"instance": f"{x.render()} -> "
                                                 f"{y.render()} + {z.render()}"})
    return verdict("c-atom-maps-into-coproducts", failures, "instances")


# Universality is counted on atoms of degree at most this.  Raising it costs
# (warm backend cache, one 2-core x86 host): to 3, +0.07 s on sym at bound 3;
# to 4, 9-12 s on sym at bound 4, against 2 ms at degree 2.
UNIVERSALITY_DEGREE = 2


def check_fiber_products(backend, atoms):
    """The fiber product of a cospan a -f-> c <-g- b of atoms is the union
    of its agreeing orbits o, with the projections o.proj1 and o.proj2.  A
    map from an atom w into it is an orbit o and an atom map m: w -> o.atom,
    and it mediates the span (o.proj1 m, o.proj2 m); each span (u, v) with
    f u = g v must have exactly one mediator.  Checked on the atoms of degree
    at most ``UNIVERSALITY_DEGREE``."""
    small = [a for a in atoms if a.degree <= UNIVERSALITY_DEGREE]
    failures = []
    for c in small:
        maps_to_c = [(a, f) for a in small for f in backend.hom_atoms(a, c)]
        for a, f in maps_to_c:
            for b, g in maps_to_c:
                orbits = list(agreeing_orbits(backend, f, g))
                for w in small:
                    mediators = {}
                    for o in orbits:
                        for m in backend.hom_atoms(w, o.atom):
                            key = (backend.compose_maps(o.proj1, m),
                                   backend.compose_maps(o.proj2, m))
                            mediators[key] = mediators.get(key, 0) + 1
                    for u in backend.hom_atoms(w, a):
                        for v in backend.hom_atoms(w, b):
                            if not backend._agree(f, g, u, v):
                                continue
                            count = mediators.get((u, v), 0)
                            if count != 1:
                                failures.append({
                                    "cospan": f"{a.render()} -> {c.render()} "
                                              f"<- {b.render()}",
                                    "span-source": w.render(),
                                    "mediators": str(count),
                                })
    return verdict("d-fiber-products", failures, "instances",
                   note="universal property checked on enumerated spans")


def check_monos_are_isos(backend, atoms):
    failures = []
    for a in atoms:
        for b in atoms:
            for f in backend.hom_atoms(a, b):
                if len(kernel_pair(backend, f)) != 1:
                    continue  # a mono's kernel pair is the diagonal orbit alone
                iso = any(
                    backend.compose_maps(g, f) == backend.identity_map(a)
                    and backend.compose_maps(f, g) == backend.identity_map(b)
                    for g in backend.hom_atoms(b, a))
                if not iso:
                    failures.append(
                        {"map": f"{a.render()} -> {b.render()} {f.data}"})
    return verdict("e-monos-are-isos", failures, "maps")


def check_atom_cospans_nonempty(backend, atoms):
    failures = []
    for c in atoms:
        for a in atoms:
            for b in atoms:
                for f in backend.hom_atoms(a, c):
                    for g in backend.hom_atoms(b, c):
                        if not any(agreeing_orbits(backend, f, g)):
                            failures.append({
                                "cospan": f"{a.render()} -> {c.render()}"
                                          f" <- {b.render()}"})
    return verdict("f-atom-cospans-nonempty", failures, "cospans")


def check_final_object(backend, atoms):
    failures = []
    unit = backend.unit_atom()
    for a in atoms:
        count = len(backend.hom_atoms(a, unit))
        if count != 1:
            failures.append({"atom": a.render(), "maps-to-final": str(count)})
    return verdict("g-final-object-atomic", failures, "atoms",
                   note="the final object is a single atom")


# Equivalence relations


def _bits(mask):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(closed, extra, swap, rows, cols):
    """The least relation containing the masks closed | extra that is closed
    under swap and composition, where closed is already closed: only pairs
    with a newly added orbit can compose to anything new (semi-naive).

    ``rows`` is the triple table of X x X x X, so ``rows[k][j]`` is the mask
    of the orbits that k then j compose to, and ``cols`` is its transpose,
    ``cols[k][j] = rows[j][k]``.  A new orbit k composes with the members on
    either side, so its additions are the OR of its row and its column over
    the members, both taken in C."""
    full = (1 << len(swap)) - 1
    current = closed | extra
    members = list(_bits(closed))
    work = list(_bits(extra & ~closed))
    while work:
        k = work.pop()
        members.append(k)
        found = (1 << swap[k]
                 | reduce(or_, map(rows[k].__getitem__, members))
                 | reduce(or_, map(cols[k].__getitem__, members)))
        found &= ~current
        if found:
            current |= found
            if current == full:
                break
            work.extend(_bits(found))
    return current


def _relation_masks(seed, swap, rows, cols):
    """Every mask that contains seed and is closed under swap and
    composition, as a set; ``swap``, ``rows`` and ``cols`` are as in
    ``_closure``.  Each distinct union is closed once: the principal
    closures one per swap pair, then breadth-first joins of the relations
    found with the join-irreducible principal closures (see the module
    docstring)."""
    least = _closure(0, seed, swap, rows, cols)
    principal = [least]
    for k, s in enumerate(swap):
        if k <= s and not least >> k & 1:
            p = _closure(least, 1 << k, swap, rows, cols)
            if p not in principal:
                principal.append(p)
    generators = []
    for p in principal[1:]:
        below = [q for q in principal if q != p and q & ~p == 0]
        union = reduce(or_, below)
        if union in below or _closure(max(below, key=int.bit_count), union,
                                      swap, rows, cols) != p:
            generators.append(p)
    relations = set(principal)
    closed = set(principal)  # the unions closed so far, and every relation
    frontier = principal
    while frontier:
        new = []
        for r in frontier:
            for p in generators:
                union = r | p
                if union in closed:
                    continue
                closed.add(union)
                joined = _closure(r, p, swap, rows, cols)
                if joined not in relations:
                    relations.add(joined)
                    closed.add(joined)
                    new.append(joined)
        frontier = new
    return relations


def internal_equivalence_relations(backend, x):
    """All orbit-unions of X x X that are reflexive, symmetric, transitive."""
    orbits = backend.product_decompose(x, x)
    labels = [o.label for o in orbits]
    index = {label: k for k, label in enumerate(labels)}
    ident = backend.identity_map(x)
    diag, _ = backend.product_factor(ident, ident)
    swap = [index[backend.swap_label(x, x, label)] for label in labels]
    rows = triple_table(backend, x, x, x)
    cols = tuple(zip(*rows))
    relations = _relation_masks(1 << index[diag], swap, rows, cols)
    out = [frozenset(labels[k] for k in _bits(r)) for r in relations]
    return sorted(out, key=lambda r: (len(r), sorted(r)))


def quotients_by_kernel(backend, x):
    """The surjections out of the atom x by kernel pair.  Each kernel pair,
    the frozenset of the labels of the orbits of x x x on which the map
    agrees, is mapped to the first surjection ``(q_atom, q)`` that has it,
    in ``atoms_up_to(x.degree)`` then ``hom_atoms`` order."""
    quotients = {}
    for q_atom in backend.atoms_up_to(x.degree):
        for q in backend.hom_atoms(x, q_atom):
            kernel = frozenset(o.label for o in kernel_pair(backend, q))
            quotients.setdefault(kernel, (q_atom, q))
    return quotients


def check_effective_relations(backend, atoms):
    failures = []
    for x in atoms:
        quotients = quotients_by_kernel(backend, x)
        for relation in internal_equivalence_relations(backend, x):
            if relation not in quotients:
                failures.append({
                    "atom": x.render(),
                    "relation-orbits": ", ".join(sorted(relation)),
                })
    return verdict("h-effective-equivalence-relations", failures,
                   "relations")


def pregalois_check(backend, bound):
    """Per-axiom report over the fragment within the bound."""
    atoms = backend.atoms_up_to(bound)
    results = [
        check_coproducts(backend, atoms),
        check_atom_decomposition(backend, atoms),
        check_maps_into_coproducts(backend, atoms),
        check_fiber_products(backend, atoms),
        check_monos_are_isos(backend, atoms),
        check_atom_cospans_nonempty(backend, atoms),
        check_final_object(backend, atoms),
        check_effective_relations(backend, atoms),
    ]
    return Report(f"pre-galois axioms for {backend.backend_id} within {bound}",
                  results)
