"""The ordered line backend.

Atoms are the sets of strictly increasing n-tuples of rationals, written
``inc[n]``, under the order-preserving self-bijections of the rationals (the
countable model of the orientation-preserving line homeomorphisms).

Equivariant maps ``inc[n] -> inc[m]`` are increasing coordinate selections.
Orbits of ``inc[n] x inc[m]`` are merge words over the alphabet {L, B, R}: one
letter per value of the merged tuple, recording whether the value came from
the left tuple, both, or the right tuple.  A word with c letters B is a copy
of ``inc[n+m-c]``.  Word order is lexicographic with L < B < R.  The words
are listed by one depth-first walk that appends L, then B, then R.  Each
subtree holds the words with one prefix, and no word of a pair is a proper
prefix of another (both spend all n + m coordinates), so the walk meets them
in lexicographic order without a sort.

Elementary fiber classes: dropping an extremal coordinate leaves a one-sided
cut region (class ``ray``), dropping an interior coordinate leaves the region
between the two neighbours (class ``interval``).  Dropping the only coordinate
of ``inc[1]`` is classed as ``ray`` as well: the backend identifies the whole
line with its one-sided cut regions, since an order isomorphism onto either
region conjugates the stabilizer action onto the full automorphism group.
That identification is a modeling decision of this backend; the measure axiom
checks validate it indirectly.

Point-cut relations for the solver: cutting the line at one point gives
value(inc[1]) = 2 ray + 1, cutting a ray gives ray = ray + interval + 1, and
cutting an interval gives interval = 2 interval + 1.
"""

from __future__ import annotations

import functools
import itertools
from operator import mul

from .base import AtomMap, LinearRelation, ProductOrbit, TupleBackend

# swapping the two factors exchanges the letters L and R
_SWAP = str.maketrans("LR", "RL")


def _cut(word, free):
    """A merge word cut at its other side's coordinates, as one pair
    (count, letters left) per part: the number of ``free`` letters in the
    gap before the first coordinate, then per coordinate 1 if a free letter
    coincides with it (a ``B``) or 0, the gap after it, and so on; letters
    left counts the free letters from that part on."""
    counts = [0]
    for ch in word:
        if ch == free:
            counts[-1] += 1
        else:
            counts += [int(ch == "B"), 0]
    return tuple(zip(counts, list(itertools.accumulate(reversed(counts)))[::-1]))


class LineBackend(TupleBackend):
    backend_id = "line"
    prefix = "inc"

    def hom_atoms(self, a, b):
        n, m = a.degree, b.degree
        return [AtomMap(a, b, sel) for sel in itertools.combinations(range(1, n + 1), m)]

    def _decompose(self, a, b):
        n, m = a.degree, b.degree
        orbits = []

        def extend(word, sel1, sel2):
            # the next letter is value len(word) + 1 of the merged tuple
            p = len(word) + 1
            more_l, more_r = len(sel1) < n, len(sel2) < m
            if more_l:
                extend(word + "L", sel1 + (p,), sel2)
            if more_l and more_r:
                extend(word + "B", sel1 + (p,), sel2 + (p,))
            if more_r:
                extend(word + "R", sel1, sel2 + (p,))
            if not (more_l or more_r):
                atom = self._atom(len(word))
                orbits.append(ProductOrbit(word, atom, AtomMap(atom, a, sel1),
                                           AtomMap(atom, b, sel2)))

        extend("", (), ())
        return tuple(orbits)

    @staticmethod
    def _merge(sel1, sel2):
        """The orbit hit by two selections from one source: its merge word
        and the selection onto its atom, the union of the two in order."""
        letters = dict.fromkeys(sel1, "L")
        for u in sel2:
            letters[u] = "B" if u in letters else "R"
        union = sorted(letters)
        return "".join(map(letters.__getitem__, union)), tuple(union)

    def _factor(self, f, g):
        word, union = self._merge(f.data, g.data)
        return word, AtomMap(f.source, self._atom(len(union)), union)

    def _images(self, f, g, orbits):
        out = []
        for o in orbits:
            sel1, sel2 = o.proj1.data, o.proj2.data
            if f is not None:
                sel1 = [sel1[j - 1] for j in f.data]
            if g is not None:
                sel2 = [sel2[j - 1] for j in g.data]
            word, union = self._merge(sel1, sel2)
            out.append((word, AtomMap(o.atom, self._atom(len(union)), union)))
        return tuple(out)

    def _triple_table(self, a, b, c):
        # An orbit of a x b x c is the merge word of all three.  Cut at b's
        # coordinates, the words of a x b and b x c fix which gap each a- and
        # c-letter lies in and which of them coincide with a b-coordinate, and
        # nothing else: within a gap the a's and c's merge freely, and a
        # b-coordinate leaves one letter (B, L, R or none).  A word's index
        # in product_decompose order is the sum, over its letters, of the
        # number of words left that start with a smaller letter, so a part
        # of the word with (i, j) letters left adds the index of its minimal
        # completion (the part, then its remaining L's, then its R's) among
        # the orbits of inc[i] x inc[j].  The bit of a word is then the
        # product of the bits of its parts, and the mask of a pair, the sum
        # over all choices of parts, is the product of the parts' masks.
        # Split after the first half of b's coordinates (rounded up, which
        # balances the numbers of distinct halves), a pair's mask is a
        # prefix mask times a suffix mask, each keyed by the halves of the
        # two cuts.
        @functools.cache
        def index(i, j):  # the merge words of inc[i] x inc[j], numbered
            return {o.label: k for k, o in enumerate(
                self.product_decompose(self._atom(i), self._atom(j)))}

        @functools.cache
        def part(coordinate, a_part, c_part):
            (p, i), (q, j) = a_part, c_part
            if coordinate:  # the one letter a b-coordinate leaves
                words = ("LB"[q] if p else "R" * q,)
            else:
                words = index(p, q)
            at, rest = index(i, j), "L" * (i - p) + "R" * (j - q)
            return sum(1 << at[w + rest] for w in words)

        def mask(keys_a, keys_c):
            # the product over the parts of a half for every key pair, taken
            # a part at a time for all of c's keys at once
            by_part = tuple(zip(*keys_c))
            out = []
            for key_a in keys_a:
                row = [1] * len(keys_c)
                for s, (a_part, c_parts) in enumerate(zip(key_a, by_part)):
                    row = list(map(mul, row, map(
                        part, itertools.repeat(s & 1), itertools.repeat(a_part),
                        c_parts)))
                out.append(row)
            return out

        middle = 2 * ((b.degree + 1) // 2)

        def halves(cuts):
            # each cut's prefix and suffix key numbers, and the keys
            keys = ({}, {})
            ids = [(keys[0].setdefault(cut[:middle], len(keys[0])),
                    keys[1].setdefault(cut[middle:], len(keys[1])))
                   for cut in cuts]
            return ids, keys

        rows, (pre_a, suf_a) = halves(
            [_cut(o.label, "L") for o in self.product_decompose(a, b)])
        cols, (pre_c, suf_c) = halves(
            [_cut(o.label, "R") for o in self.product_decompose(b, c)])
        prefix, suffix = mask(pre_a, pre_c), mask(suf_a, suf_c)
        col_pre, col_suf = zip(*cols)
        return tuple(
            tuple(map(mul, map(prefix[i].__getitem__, col_pre),
                      map(suffix[k].__getitem__, col_suf)))
            for i, k in rows)

    def swap_label(self, a, b, label):
        return label.translate(_SWAP)

    # Elementary structure

    def _drop_classes(self, n, order):
        """Classes of dropping the coordinates ``order`` of inc[n], one at a
        time and in that order."""
        remaining = list(range(1, n + 1))
        classes = []
        for p in order:
            idx = remaining.index(p) + 1
            classes.append("ray" if idx == 1 or idx == len(remaining)
                           else "interval")
            remaining.remove(p)
        return tuple(classes)

    def elementary_factorize(self, f):
        # the canonical chain drops the missing coordinates from the highest
        n = f.source.degree
        kept = set(f.data)
        return self._drop_classes(n, [p for p in range(n, 0, -1) if p not in kept])

    def factorization_class_multisets(self, f):
        n = f.source.degree
        kept = set(f.data)
        missing = [p for p in range(1, n + 1) if p not in kept]
        return {tuple(sorted(self._drop_classes(n, order)))
                for order in itertools.permutations(missing)}

    def fiber_classes(self, depth):
        return ["ray", "interval"]

    def fiber_decompositions(self, depth):
        return [
            # the line (= the value of inc[1], itself classed as a ray) cut at
            # a point: two rays and the point
            LinearRelation("ray", (("ray", 2),), 1),
            # a ray cut at a point: a ray, an interval and the point
            LinearRelation("ray", (("ray", 1), ("interval", 1)), 1),
            # an interval cut at a point
            LinearRelation("interval", (("interval", 2),), 1),
        ]

