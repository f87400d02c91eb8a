"""The infinite symmetric group backend.

Atoms are the sets of injective n-tuples, written ``inj[n]``, for the infinite
symmetric group acting on a countable set.  The object class is restricted to
unions of these tuple sets; quotient orbits are deliberately left out, which
is what makes the effectivity axiom fail (see the pre-Galois checker).

Equivariant maps ``inj[n] -> inj[m]`` are coordinate selections: injections
from the m target slots into the n source slots.  Orbits of a product
``inj[n] x inj[m]`` are indexed by partial injective matchings between the two
coordinate sets; the orbit whose matching has size k is a copy of
``inj[n+m-k]``.  A matching is listed as its pairs (i, j) in ascending i,
and the orbits are in the order of these pair sequences.  One depth-first
walk lists them so: a matching is extended by a pair (i, j) with i above its
last a-coordinate and j unmatched, in ascending (i, j) order, and emitted
before its extensions.  A sequence comes before its extensions and, with
them, before the sequences with a larger next pair, so the walk's pre-order
is label order and nothing is sorted.

Elementary fiber classes are ``omega-minus[c]``: the complement of c named
points.  Dropping one coordinate from ``inj[k]`` leaves such a fiber with
c = k - 1.  Cutting one more point out of the class ``omega-minus[c]`` gives
the point-cut relations value(c) = value(c+1) + 1 used by the measure solver.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .base import AtomMap, LinearRelation, ProductOrbit, TupleBackend


def _matching_label(matching):
    if not matching:
        return "[]"
    return "[" + ",".join(f"{i}>{j}" for i, j in matching) + "]"


def _parse_matching(label):
    if label == "[]":
        return ()
    body = label[1:-1]
    pairs = []
    for part in body.split(","):
        i, j = part.split(">")
        pairs.append((int(i), int(j)))
    return tuple(pairs)


class SymBackend(TupleBackend):
    backend_id = "sym"
    prefix = "inj"

    def hom_atoms(self, a, b):
        n, m = a.degree, b.degree
        return [AtomMap(a, b, sel) for sel in itertools.permutations(range(1, n + 1), m)]

    def _decompose(self, a, b):
        n, m = a.degree, b.degree
        atoms = [self._atom(n + m - k) for k in range(min(n, m) + 1)]
        sel1 = tuple(range(1, n + 1))
        orbits = []

        def walk(body, pairs, last, sel2):
            # body is the matching's _matching_label without its brackets;
            # sel2 reads the partner i of a matched b-coordinate and numbers
            # the unmatched ones n + 1, n + 2, ... in order; each extension
            # pairs an a-coordinate above the last with an unmatched j
            atom = atoms[pairs]
            orbits.append(ProductOrbit(f"[{body}]", atom, AtomMap(atom, a, sel1),
                                       AtomMap(atom, b, sel2)))
            for i in range(last + 1, n + 1):
                for j, c in enumerate(sel2):
                    if c > n:
                        walk(f"{body},{i}>{j + 1}" if body else f"{i}>{j + 1}",
                             pairs + 1, i,
                             sel2[:j] + (i,) + tuple(x - 1 if x > n else x
                                                     for x in sel2[j + 1:]))

        walk("", 0, 0, tuple(range(n + 1, n + m + 1)))
        return tuple(orbits)

    def _factor(self, f, g):
        # both selections are injective, so a g-coordinate has at most one
        # partner among f's
        position = {c: i for i, c in enumerate(f.data, 1)}
        matching = sorted((position[c], j) for j, c in enumerate(g.data, 1)
                          if c in position)
        sel = tuple(f.data) + tuple(c for c in g.data if c not in position)
        return _matching_label(matching), AtomMap(f.source, self._atom(len(sel)), sel)

    def _triple_table(self, a, b, c):
        # An orbit of a x b x c is the partial matching of all three
        # coordinate sets.  An a- and a c-coordinate equal to one b-coordinate
        # are matched; one equal to a b-coordinate that the other side misses
        # is matched to nothing.  On top of those forced pairs, the a's equal
        # to no b may match the c's equal to no b by any partial matching.
        # A matching is the sum of one bit per pair (i, k), forced and free
        # pairs share no a-coordinate, and the a x c matchings over a pair are
        # distinct, so sums stand for unions and a sum of orbit bits is the
        # mask.
        #
        # So an entry is fixed by its key: per a-coordinate, the c forced on
        # it through its b, 0 when that b meets no c and -1 when it meets no
        # b; then the mask of the c's that meet no b.  Most positions repeat
        # a key (2,390,116 positions, 21,633 keys on inj[5]^3), so each
        # entry is summed once per key and the rows share that int.  A row's
        # keys are read in C: per orbit of b x c a column lists the c matched
        # to each b-coordinate (0 for none), then -1, then the mask, and one
        # itemgetter per orbit of a x b picks, per a, its b's slot or the -1,
        # then the mask.
        width = c.degree
        free_slot = b.degree + 1

        def pairs_bit(pairs):
            return sum(1 << (i - 1) * width + k - 1 for i, k in pairs)

        bit = {pairs_bit(_parse_matching(o.label)): 1 << k
               for k, o in enumerate(self.product_decompose(a, c))}
        free = {}  # (free a's, free c's) -> the bits of their matchings

        def entry(key):
            _, *through, free_mask = key
            forced = pairs_bit((i, k) for i, k in enumerate(through, 1) if k > 0)
            free_a = tuple(i for i, k in enumerate(through, 1) if k < 0)
            free_c = tuple(k for k in range(1, width + 1) if free_mask >> k & 1)
            extras = free.get((free_a, free_c))
            if extras is None:
                extras = free[free_a, free_c] = [
                    pairs_bit((free_a[u - 1], free_c[v - 1])
                              for u, v in _parse_matching(o.label))
                    for o in self.product_decompose(
                        self._atom(len(free_a)), self._atom(len(free_c)))]
            return sum(map(bit.__getitem__, map(forced.__add__, extras)))

        columns = []
        for o in self.product_decompose(b, c):
            b_to_c = dict(_parse_matching(o.label))
            columns.append((0, *(b_to_c.get(j, 0) for j in range(1, free_slot)),
                            -1, sum(1 << k for k in range(1, width + 1)
                                    if k not in b_to_c.values())))
        entries = {}  # key -> the entry, for this build only
        table = []
        for o in self.product_decompose(a, b):
            a_to_b = dict(_parse_matching(o.label))
            # the leading 0 keeps a key a tuple when a has degree 0
            through = itemgetter(0, *(a_to_b.get(i, free_slot)
                                      for i in range(1, a.degree + 1)),
                                 free_slot + 1)
            keys = list(map(through, columns))
            for key in set(keys).difference(entries):
                entries[key] = entry(key)
            table.append(tuple(map(entries.__getitem__, keys)))
        return tuple(table)

    def swap_label(self, a, b, label):
        return _matching_label(sorted((j, i) for i, j in _parse_matching(label)))

    # Elementary structure

    def elementary_factorize(self, f):
        # Removing any one coordinate of an injective k-tuple leaves the
        # complement of k-1 points, so every drop order gives these classes.
        return tuple(f"omega-minus[{k - 1}]"
                     for k in range(f.source.degree, f.target.degree, -1))

    def fiber_classes(self, depth):
        return [f"omega-minus[{c}]" for c in range(depth)]

    def fiber_decompositions(self, depth):
        rels = []
        for c in range(depth - 1):
            rels.append(
                LinearRelation(
                    f"omega-minus[{c}]",
                    ((f"omega-minus[{c + 1}]", 1),),
                    1,
                )
            )
        return rels

