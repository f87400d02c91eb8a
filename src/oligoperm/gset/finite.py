"""Finite permutation group backend.

The group is given by explicit generators on {0, .., n-1}.  Everything is
computed on concrete points, which makes this backend a total brute-force
oracle for the category layer: atoms are canonical coset spaces (one per
conjugacy class of subgroup), maps are explicit point functions, and product
orbits are literal orbits of the product action.

The group is closed once by composing permutation tuples, and its elements
are numbered in tuple order, so the identity is 0.  One Cayley table
``mul[i][j]`` (the index of e_i after e_j) and the inverses ``inv[i]`` are
then all the group arithmetic: subgroups, conjugacy classes, cosets, the
action on an atom's points, hom sets and orbit stabilizers are sets and
tables of element indices.  Index order is tuple order, so every choice by
least element, and with it every label and map, is the one the tuples
themselves would give.

Elementary fiber classes are indexed by cardinality, ``size[m]``.  Restricting
a fiber to the trivial subgroup splits it into m fixed points, which pins the
class value to m; this is the point-cut relation the measure solver uses, and
it is why counting is the only measure here.
"""

from __future__ import annotations

import itertools
import re

from .base import Atom, AtomMap, Backend, LinearRelation, ProductOrbit, triple_row

BACKEND_ID = "finite"

# The largest group order ``mulclose`` builds.  The Cayley table has order^2
# entries and subgroup enumeration grows fast with the order: on a 2-core
# Xeon VM, A5 (order 60) builds in about 0.03 s and S5 (order 120, with the
# cap raised) in about 0.2 s.
MAX_GROUP_ORDER = 60
# The largest point cycle notation may name: every permutation is a tuple
# over all points up to the largest named.  The presets move at most 4.
MAX_POINT = 60


def _pcompose(p, q):
    """p after q, as permutation tuples."""
    return tuple(map(p.__getitem__, q))


def mulclose(generators, n_points):
    identity = tuple(range(n_points))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = _pcompose(g, x)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
                    if len(elements) > MAX_GROUP_ORDER:
                        raise ValueError(
                            f"group order exceeds {MAX_GROUP_ORDER}; this backend "
                            "is a desk-scale oracle"
                        )
        frontier = nxt
    return frozenset(elements)


def _point(token, text):
    """One point of cycle notation: an integer from 1 to MAX_POINT."""
    digits = token[1:] if token[0] in "+-" else token
    if not digits.isdecimal():
        raise ValueError(f"{token!r} is not an integer point in {text!r}")
    # the length test spares int() a string of thousands of digits
    if len(digits.lstrip("0")) > len(str(MAX_POINT)) or int(digits) > MAX_POINT:
        raise ValueError(f"point {token} is above MAX_POINT = {MAX_POINT}")
    if token[0] == "-" or int(digits) < 1:
        raise ValueError(f"points are numbered from 1: {text!r}")
    return int(digits)


def parse_cycles(text, n_points=None):
    """Parse cycle notation like "(1 2)(3 4); (1 2 3)" into permutation tuples.

    Points are 1-based in the notation.  Separate generators with ';' or ','
    outside parentheses.  Text that names no point, an empty, unclosed or
    nested cycle, a token that is not an integer, a point below 1 or above
    MAX_POINT and a point repeated within one generator raise ValueError.
    """
    # a separator is inside a cycle when the next parenthesis closes it
    gens_txt = re.split(r"[;,](?![^()]*\))", text)
    if not gens_txt[-1].strip():
        gens_txt.pop()
    cycles_per_gen = []
    max_point = 0
    for txt in gens_txt:
        cycles = []
        moved = set()
        body = txt.strip()
        while body:
            if not body.startswith("("):
                raise ValueError(f"bad cycle notation: {text!r}")
            end = body.find(")")
            if end < 0:
                raise ValueError(f"unclosed parenthesis in {text!r}")
            if "(" in body[1:end]:
                raise ValueError(f"nested parenthesis in {text!r}")
            pts = [_point(tok, text)
                   for tok in body[1:end].replace(",", " ").split()]
            if not pts:
                raise ValueError(f"empty cycle in {text!r}")
            if len(set(pts)) < len(pts) or moved.intersection(pts):
                raise ValueError(
                    f"a point repeats within the generator {txt.strip()!r}")
            moved.update(pts)
            cycles.append(pts)
            max_point = max(max_point, *pts)
            body = body[end + 1:].strip()
        cycles_per_gen.append(cycles)
    if not max_point:
        raise ValueError(f"no cycle in {text!r}")
    n = n_points or max_point
    gens = []
    for cycles in cycles_per_gen:
        perm = list(range(n))
        for pts in cycles:
            for i, p in enumerate(pts):
                perm[p - 1] = pts[(i + 1) % len(pts)] - 1
        gens.append(tuple(perm))
    return gens, n


class FiniteBackend(Backend):
    backend_id = BACKEND_ID

    def __init__(self, generators, n_points):
        super().__init__()
        self.n_points = n_points
        self.generators = [tuple(g) for g in generators]
        self.elements = sorted(mulclose(self.generators, n_points))
        self.identity = tuple(range(n_points))
        # from here on an element is its index in self.elements, and the
        # identity is 0
        self._index = {g: i for i, g in enumerate(self.elements)}
        mul = self._mul = tuple(
            tuple(self._index[_pcompose(g, h)] for h in self.elements)
            for g in self.elements)
        self._inv = tuple(row.index(0) for row in mul)
        # conjugation rows: _conj[h][s] is the index of h^-1.s.h
        self._conj = tuple(tuple(mul[x][h] for x in mul[self._inv[h]])
                           for h in range(len(mul)))
        subgroups = self._enumerate_subgroups()
        self._subgroups = [frozenset(map(self.elements.__getitem__, sub))
                           for sub in subgroups]
        # one representative per conjugacy class of subgroups, with the
        # class's members, ranked by index and then by sorted elements
        classes, seen = [], set()
        for h in subgroups:
            if h in seen:
                continue
            conj = {frozenset(map(row.__getitem__, h)) for row in self._conj}
            seen |= conj
            classes.append((min(conj, key=sorted), conj))
        order = len(mul)
        classes.sort(key=lambda c: (order // len(c[0]), sorted(c[0])))
        self._reps = [rep for rep, _ in classes]
        self._class_index = {sub: k for k, (_, conj) in enumerate(classes)
                             for sub in conj}
        self._atoms = [
            Atom(BACKEND_ID, order // len(rep), f"orbit#{k}")
            for k, rep in enumerate(self._reps)
        ]
        # an atom's points are the left cosets g.H of its subgroup H, in the
        # order of their least elements; _coset_reps lists those elements and
        # _coset_of maps each element to the point of its coset
        self._points = {}
        self._coset_reps = {}
        self._coset_of = {}
        for atom, rep in zip(self._atoms, self._reps):
            coset_of = [-1] * order
            reps = []
            for g, row in enumerate(mul):
                # scanned in index order, g is the least of a new coset
                if coset_of[g] < 0:
                    for h in rep:
                        coset_of[row[h]] = len(reps)
                    reps.append(g)
            self._coset_reps[atom] = reps
            self._coset_of[atom] = coset_of
            self._points[atom] = [
                frozenset(self.elements[mul[g][h]] for h in rep)
                for g in reps]

    # Group plumbing

    def _close(self, sub, gens):
        """The subgroup the element indices gens generate, closed from sub,
        a subgroup of it: it is a union of cosets x.sub, so one
        representative x per coset is multiplied by gens, and a product
        outside the cosets found adds its whole coset."""
        mul = self._mul
        found = set(sub)
        frontier = [0]  # the identity represents sub
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = mul[g][x]
                    if y not in found:
                        found.update(map(mul[y].__getitem__, sub))
                        nxt.append(y)
            frontier = nxt
        return frozenset(found)

    def _enumerate_subgroups(self):
        """Every subgroup, as a join of cyclic subgroups.  Each subgroup found
        keeps one generator list, and its join with a cyclic <g> not inside
        it is closed from its own elements under that list and g.  The join
        depends only on the union of a and <g>, so a union met before, or one
        that is already a subgroup, is skipped."""
        cyclic = {}  # cyclic subgroup -> one generator
        for g, row in enumerate(self._mul):
            sub = {0}
            x = g
            while x not in sub:
                sub.add(x)
                x = row[x]
            cyclic.setdefault(frozenset(sub), g)
        gens = {sub: [g] for sub, g in cyclic.items()}
        closed = set(gens)  # the unions closed so far, and every subgroup
        frontier = list(gens)
        while frontier:
            new = []
            for a in frontier:
                for c, g in cyclic.items():
                    if g in a:
                        continue
                    union = a | c
                    if union in closed:
                        continue
                    closed.add(union)
                    join = self._close(a, gens[a] + [g])
                    closed.add(join)
                    if join not in gens:
                        gens[join] = gens[a] + [g]
                        new.append(join)
            frontier = new
        return sorted(gens, key=lambda s: (len(s), sorted(s)))

    def act_table(self, g, a):
        """The permutation of a's points by the group element g, as a tuple:
        g maps the coset x.H to the coset of g.x."""
        return self._act_rows(a)[self._index[g]]

    def _act_rows(self, a):
        """``act_table`` of every element, by element index.  Kept in the
        backend cache under ``("act", a)``."""
        return self._memo(("act", a), self._build_act_rows, a)

    def _build_act_rows(self, a):
        coset_of = self._coset_of[a].__getitem__
        reps = self._coset_reps[a]
        return tuple(tuple(map(coset_of, map(row.__getitem__, reps)))
                     for row in self._mul)

    # Backend interface

    def unit_atom(self):
        return self._atoms[0]

    def atoms_up_to(self, bound):
        return [a for a in self._atoms if a.degree <= bound]

    def hom_atoms(self, a, b):
        """The maps a -> b, one per point of b fixed by a's subgroup.  Kept in
        the backend cache under ``("hom", a, b)``."""
        return self._memo(("hom", a, b), self._hom_atoms, a, b)

    def _hom_atoms(self, a, b):
        h_rep = self._reps[int(a.label.split("#")[1])]
        rows = self._act_rows(b)
        return tuple(
            AtomMap(a, b, tuple(rows[x][q] for x in self._coset_reps[a]))
            for q in range(b.degree)
            if all(rows[h][q] == q for h in h_rep))

    def identity_map(self, a):
        return AtomMap(a, a, tuple(range(a.degree)))

    def compose_maps(self, outer, inner):
        if inner.target != outer.source:
            raise ValueError("atom map composition shape mismatch")
        return AtomMap(inner.source, outer.target,
                       tuple(map(outer.data.__getitem__, inner.data)))

    def _agree(self, f, g, u, v):
        # f o u sends point p of the span's source to f.data[u.data[p]]
        fd, gd = f.data, g.data
        for x, y in zip(u.data, v.data):
            if fd[x] != gd[y]:
                return False
        return True

    def _decompose(self, a, b):
        rows_a, rows_b = self._act_rows(a), self._act_rows(b)
        moves = [(rows_a[self._index[g]], rows_b[self._index[g]])
                 for g in self.generators]
        seen = set()
        orbit_sets = []
        for p in itertools.product(range(a.degree), range(b.degree)):
            if p in seen:
                continue
            orbit = {p}
            frontier = [p]
            while frontier:
                nxt = []
                for (i, j) in frontier:
                    for ta, tb in moves:
                        q = (ta[i], tb[j])
                        if q not in orbit:
                            orbit.add(q)
                            nxt.append(q)
                frontier = nxt
            seen |= orbit
            orbit_sets.append(orbit)
        orbit_sets.sort(key=min)
        orbits = []
        for k, orbit in enumerate(orbit_sets):
            i, j = min(orbit)
            stab = frozenset(g for g, (ra, rb) in enumerate(zip(rows_a, rows_b))
                             if ra[i] == i and rb[j] == j)
            c = self._atoms[self._class_index[stab]]
            h_rep = self._reps[self._class_index[stab]]
            # the least h with h^-1.stab.h the class representative
            conj = next(h for h, row in enumerate(self._conj)
                        if frozenset(map(row.__getitem__, stab)) == h_rep)
            back = self._inv[conj]
            moved = [self._mul[x][back] for x in self._coset_reps[c]]
            orbits.append(
                ProductOrbit(f"#{k}", c,
                             AtomMap(c, a, tuple(rows_a[g][i] for g in moved)),
                             AtomMap(c, b, tuple(rows_b[g][j] for g in moved)))
            )
        return tuple(orbits)

    def _pair_index(self, a, b):
        """(point of a, point of b) -> (orbit index, point of its atom)."""
        return self._memo(("pairs", a, b), self._build_pair_index, a, b)

    def _build_pair_index(self, a, b):
        return {(o.proj1.data[p], o.proj2.data[p]): (k, p)
                for k, o in enumerate(self.product_decompose(a, b))
                for p in range(o.atom.degree)}

    def pair_label(self, a, b, pa, pb):
        """Label of the orbit of a x b through the point pair (pa, pb)."""
        k, _ = self._pair_index(a, b)[(pa, pb)]
        return self.product_decompose(a, b)[k].label

    def product_factor(self, f, g):
        if f.source != g.source:
            raise ValueError("product factor needs a common source")
        a, b = f.target, g.target
        orbits = self.product_decompose(a, b)
        lookup = self._pair_index(a, b)
        k, _ = lookup[(f.data[0], g.data[0])]
        orbit = orbits[k]
        data = tuple(lookup[pair][1] for pair in zip(f.data, g.data))
        return orbit.label, AtomMap(f.source, orbit.atom, data)

    def _triple_table(self, a, b, c):
        """``triple_table`` by a walk of every ``triple_row`` of ``a x b x c``:
        a triple orbit of a finite group need not be the only one over its
        three pair orbits.  One dict per pair maps labels to b x c indices
        and a x c bits."""
        at_bc = {o.label: k for k, o in enumerate(self.product_decompose(b, c))}
        bit_ac = {o.label: 1 << k for k, o in enumerate(self.product_decompose(a, c))}
        rows = []
        for omega in self.product_decompose(a, b):
            row = [0] * len(at_bc)
            for _orbit, (label_bc, _), (label_ac, _) in triple_row(self, omega, c):
                row[at_bc[label_bc]] |= bit_ac[label_ac]
            rows.append(tuple(row))
        return tuple(rows)

    def swap_label(self, a, b, label):
        orbit = self.product_decompose(a, b)[int(label[1:])]
        return self.pair_label(b, a, orbit.proj2.data[0], orbit.proj1.data[0])

    # Elementary structure

    def elementary_factorize(self, f):
        # one step whose fiber has |a|/|b| points; none for a bijection
        n, m = f.source.degree, f.target.degree
        return () if n == m else (f"size[{n // m}]",)

    def atom_chain_parent(self, a):
        # the collapse onto the one-point atom
        if a == self.unit_atom():
            return None
        return self.unit_atom(), f"size[{a.degree}]"

    def fiber_classes(self, depth):
        degrees = {a.degree for a in self._atoms}
        sizes = sorted({x // y for x in degrees for y in degrees if x % y == 0})
        return [f"size[{m}]" for m in sizes]

    def fiber_decompositions(self, depth):
        # restricting a size-m fiber to the trivial subgroup gives m points
        return [
            LinearRelation(cls, (), int(cls[5:-1]))
            for cls in self.fiber_classes(depth)
        ]

    def parse_atom_label(self, label):
        digits = label[len("orbit#"):]
        if not (label.startswith("orbit#") and digits.isdecimal()
                and int(digits) < len(self._atoms)):
            raise ValueError(f"bad finite atom label {label!r}")
        return self._atoms[int(digits)]


# named example groups: cycle notation and number of points
PRESETS = {
    "S3": ("(1 2); (1 2 3)", None),
    "C2X4": ("(1 2)", 4),
    "C2-4": ("(1 2)", 4),
    "S4": ("(1 2); (1 2 3 4)", None),
}


def preset_backend(name):
    """A named example group (S3, C2x4 or C2-4, S4, in any case) or a group
    in cycle notation, as used throughout the test suite and CLI."""
    text, n_points = PRESETS.get(name.upper(), (name, None))
    return FiniteBackend(*parse_cycles(text, n_points))
