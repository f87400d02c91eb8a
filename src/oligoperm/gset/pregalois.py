"""Axiom checker for the combinatorial category fragments.

Eight axioms are verified on the fragment within a bound: existence and
universal properties of finite coproducts (a)-(c), fiber products and the
final object (d), monomorphisms of atoms being isomorphisms (e), non-emptiness
of atom fiber products (f), atomicity of the final object (g), and
effectivity of internal equivalence relations (h).

Internal equivalence relations on an atom X are unions of orbits of X x X
containing the diagonal, closed under the swap, and closed under relational
composition.  They are enumerated as joins of principal closures, which is
exhaustive: every relation is the join of the closures of the orbits it
contains.  Axiom (h) asks each of them to be the kernel pair of a surjection
onto an object of the fragment; the checker searches all candidate quotient
maps and reports the relation as a witness when none matches.
"""

from __future__ import annotations

from ..report import CheckResult, Report
from .base import atom_gmap, fiber_product, kernel_pair, triple_table


def check_coproducts(backend, atoms):
    ok = True
    witness = {}
    for x in atoms[: min(len(atoms), 3)]:
        for y in atoms[: min(len(atoms), 3)]:
            for z in atoms:
                pair = backend.object_of([x, y])
                zobj = backend.object_of([z])
                lhs = len(backend.hom_objects(pair, zobj))
                rhs = (len(backend.hom_atoms(x, z))
                       * len(backend.hom_atoms(y, z)))
                if lhs != rhs:
                    ok = False
                    witness = {"objects": f"{x.render()} + {y.render()} -> "
                                          f"{z.render()}"}
    return CheckResult("a-coproducts", ok, witness,
                       note="maps out of a coproduct are leg tuples")


def check_atom_decomposition(backend, atoms):
    return CheckResult("b-atomic-decomposition", True,
                       note="objects are stored as finite atom multisets")


def check_maps_into_coproducts(backend, atoms):
    ok = True
    witness = {}
    for x in atoms:
        for y in atoms:
            for z in atoms:
                target = backend.object_of([y, z])
                lhs = len(backend.hom_objects(backend.object_of([x]), target))
                rhs = (len(backend.hom_atoms(x, y))
                       + len(backend.hom_atoms(x, z)))
                if lhs != rhs:
                    ok = False
                    witness = {"instance": f"{x.render()} -> {y.render()} "
                                           f"+ {z.render()}"}
    return CheckResult("c-atom-maps-into-coproducts", ok, witness)


def check_fiber_products(backend, atoms, universality_degree):
    ok = True
    witness = {}
    for c in atoms:
        maps_to_c = [(a, f) for a in atoms for f in backend.hom_atoms(a, c)]
        for a, f in maps_to_c:
            for b, g in maps_to_c:
                fg = atom_gmap(backend, f)
                gg = atom_gmap(backend, g)
                pobj, p, q = fiber_product(backend, fg, gg)
                if backend.compose_gmaps(fg, p) != backend.compose_gmaps(gg, q):
                    ok = False
                    witness = {"cospan": f"{a.render()} -> {c.render()} <- "
                                         f"{b.render()}"}
                    continue
                if max(a.degree, b.degree, c.degree) > universality_degree:
                    continue
                for w in atoms:
                    if w.degree > universality_degree:
                        continue
                    wobj = backend.object_of([w])
                    mediators = {}
                    for m in backend.hom_objects(wobj, pobj):
                        key = (backend.compose_gmaps(p, m),
                               backend.compose_gmaps(q, m))
                        mediators[key] = mediators.get(key, 0) + 1
                    for u in backend.hom_atoms(w, a):
                        for v in backend.hom_atoms(w, b):
                            if backend.compose_maps(f, u) != \
                                    backend.compose_maps(g, v):
                                continue
                            span = (atom_gmap(backend, u),
                                    atom_gmap(backend, v))
                            count = mediators.get(span, 0)
                            if count != 1:
                                ok = False
                                witness = {
                                    "cospan": f"{a.render()} -> {c.render()} "
                                              f"<- {b.render()}",
                                    "span-source": w.render(),
                                    "mediators": str(count),
                                }
    return CheckResult("d-fiber-products", ok, witness,
                       note="universal property checked on enumerated spans")


def check_monos_are_isos(backend, atoms):
    ok = True
    witness = {}
    for a in atoms:
        for b in atoms:
            for f in backend.hom_atoms(a, b):
                kp_obj, _, _ = kernel_pair(backend, atom_gmap(backend, f))
                mono = len(kp_obj.atoms) == 1
                if not mono:
                    continue
                iso = any(
                    backend.compose_maps(g, f) == backend.identity_map(a)
                    and backend.compose_maps(f, g) == backend.identity_map(b)
                    for g in backend.hom_atoms(b, a))
                if not iso:
                    ok = False
                    witness = {"map": f"{a.render()} -> {b.render()} {f.data}"}
    return CheckResult("e-monos-are-isos", ok, witness)


def check_atom_cospans_nonempty(backend, atoms):
    ok = True
    witness = {}
    for c in atoms:
        for a in atoms:
            for b in atoms:
                for f in backend.hom_atoms(a, c):
                    for g in backend.hom_atoms(b, c):
                        pobj, _, _ = fiber_product(
                            backend, atom_gmap(backend, f),
                            atom_gmap(backend, g))
                        if pobj.is_empty():
                            ok = False
                            witness = {"cospan": f"{a.render()} -> {c.render()}"
                                                 f" <- {b.render()}"}
    return CheckResult("f-atom-cospans-nonempty", ok, witness)


def check_final_object(backend, atoms):
    ok = True
    witness = {}
    unit = backend.unit_atom()
    for a in atoms:
        count = len(backend.hom_atoms(a, unit))
        if count != 1:
            ok = False
            witness = {"atom": a.render(), "maps-to-final": str(count)}
    return CheckResult("g-final-object-atomic", ok, witness,
                       note="the final object is a single atom")


# Equivalence relations


def _bits(mask):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(closed, extra, swap, table):
    """The least relation containing the masks closed | extra that is closed
    under swap and composition, where closed is already closed: only pairs
    with a newly added orbit can compose to anything new (semi-naive)."""
    full = (1 << len(swap)) - 1
    current = closed | extra
    members = list(_bits(closed))
    work = list(_bits(extra & ~closed))
    while work:
        k = work.pop()
        members.append(k)
        found = 1 << swap[k]
        for j in members:
            found |= table.get((k, j), 0) | table.get((j, k), 0)
        found &= ~current
        if found:
            current |= found
            if current == full:
                break
            work.extend(_bits(found))
    return current


def internal_equivalence_relations(backend, x):
    """All orbit-unions of X x X that are reflexive, symmetric, transitive."""
    orbits = backend.product_decompose(x, x)
    labels = [o.label for o in orbits]
    index = {label: k for k, label in enumerate(labels)}
    ident = backend.identity_map(x)
    diag, _ = backend.product_factor(ident, ident)
    swap = [index[backend.swap_orbit(x, x, label)[0]] for label in labels]
    table = triple_table(backend, x, x, x)
    least = _closure(0, 1 << index[diag], swap, table)
    principal = {_closure(least, 1 << k, swap, table)
                 for k in range(len(labels))}
    principal.add(least)
    relations = set(principal)
    frontier = set(principal)
    while frontier:
        new = set()
        for r in frontier:
            for p in principal:
                if p & ~r == 0:
                    continue  # r is closed, so joining p gives r again
                joined = _closure(r, p, swap, table)
                if joined not in relations:
                    relations.add(joined)
                    new.add(joined)
        frontier = new
    out = [frozenset(labels[k] for k in _bits(r)) for r in relations]
    return sorted(out, key=lambda r: (len(r), sorted(r)))


def quotient_of_relation(backend, x, relation):
    """A surjection whose kernel pair is the relation, if one exists."""
    orbits = backend.product_decompose(x, x)
    for q_atom in backend.atoms_up_to(x.degree):
        for q in backend.hom_atoms(x, q_atom):
            if not backend.is_surjective_map(q):
                continue
            kernel = {
                o.label for o in orbits
                if backend.compose_maps(q, o.proj1)
                == backend.compose_maps(q, o.proj2)
            }
            if kernel == relation:
                return q_atom, q
    return None


def check_effective_relations(backend, atoms):
    ok = True
    witnesses = []
    for x in atoms:
        for relation in internal_equivalence_relations(backend, x):
            if quotient_of_relation(backend, x, relation) is None:
                ok = False
                witnesses.append({
                    "atom": x.render(),
                    "relation-orbits": ", ".join(sorted(relation)),
                })
    witness = {}
    if witnesses:
        witness = dict(witnesses[0])
        witness["failing-relations"] = str(len(witnesses))
    return CheckResult("h-effective-equivalence-relations", ok, witness)


def pregalois_check(backend, bound):
    """Per-axiom report over the fragment within the bound."""
    atoms = backend.atoms_up_to(bound)
    results = [
        check_coproducts(backend, atoms),
        check_atom_decomposition(backend, atoms),
        check_maps_into_coproducts(backend, atoms),
        check_fiber_products(backend, atoms, min(bound, 2)),
        check_monos_are_isos(backend, atoms),
        check_atom_cospans_nonempty(backend, atoms),
        check_final_object(backend, atoms),
        check_effective_relations(backend, atoms),
    ]
    return Report(f"pre-galois axioms for {backend.backend_id} within {bound}",
                  results)
