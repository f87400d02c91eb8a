"""Core types for the combinatorial backends.

A backend realizes a fragment of the category of finitary sets-with-symmetry
for one concrete group: its transitive pieces (atoms), the equivariant maps
between them, and complete orbit decompositions of binary products.  Objects
are finite multisets of atoms and object-level maps assign to each source atom
a target atom together with an atom-level map.

Conventions used throughout:

* ``product_decompose(a, b)`` lists the orbits of ``a x b``.  Each orbit is an
  atom ``T`` with two projections ``T -> a`` and ``T -> b`` and a canonical
  string label.  Labels are unique per (a, b) pair and the orbit list is
  sorted by label order.
* ``product_factor(f, g)`` factors a joint map ``(f, g): T -> a x b`` through
  the decomposition: it returns the label of the orbit hit by the image and
  the induced map from ``T`` onto the orbit atom.
* ``product_images(backend, f, g)`` is the one image walk: where ``f x g``
  sends each orbit of ``f.source x g.source``, one ``product_factor`` per
  orbit.  An atom given in place of a map stands for its identity, whose
  leg is the orbit's projection with no composition.  ``pair_images``
  keeps its tables for ``p x 1``, ``linmat.product_gmap`` places them for
  each pair of legs and ``measure.classify_measure`` reads them for
  ``1 x f``.
* ``elementary_factorize(f)`` returns the fiber-class labels of one canonical
  chain of elementary drops that realizes the atom map, in drop order.  The
  measure of the map is the product of the class values.

Every backend instance owns one cache, the plain dict ``backend.cache``,
created empty with the instance and never shared: a backend and all it has
memoized are freed together.  It is the only memo of product structure, and
``Backend._memo(key, build, *args)`` is the only code that reads or writes
it: it returns ``cache[key]``, calling ``build(*args)`` the first time.  Keys
are tagged tuples: ``("product", a, b)`` holds the orbits of ``a x b``
(filled by ``product_decompose``); the tuple backends keep their one atom
per degree under ``("atom", n)`` and what ``product_factor(f, g)`` returns
under ``("factor", source degree, f.data, g.data)``, plain ints only; the
finite backend's ``("hom", a, b)`` holds the tuple of maps ``a -> b``, its
``("pairs", a, b)`` its point-pair index and its ``("act", a)`` the
permutation of a's points by every group element, one row per element
index; ``pair_images`` keeps the
image table of a projection ``p`` against an atom ``c``, built by
``product_images``, under ``("images", p, c)``; ``triple_table`` keeps its
table for atoms ``a, b, c`` under ``("triples", a, b, c)``; ``linmat``
keeps its product spaces under ``("space", factors)`` (a
``linmat.RowProduct`` is built per use and not kept, but for the one a
Frobenius structure holds); ``kernel_pair`` keeps the kernel pair of an
atom map ``f``, the tuple of orbits ``agreeing_orbits(backend, f, f)``
yields, under ``("kernel", f)``, one entry per map it is asked about;
``frob.build_frobenius`` keeps the Frobenius structure of an object ``x``
over a field under ``("frobenius", x, field)``.  That structure reads no
measure, and no entry of the cache depends on one: one backend serves
several measures, so a measure's results live as long as the call that
computes them.  A cached matrix is shared, and no code changes a matrix in
place.

``agreeing_orbits(backend, f, g)`` is the one kernel-pair and fiber-product
filter: the orbits of ``a x b`` on which two atom maps ``f: a -> c`` and
``g: b -> c`` agree.  Their union, with the orbit projections, is the fiber
product of f and g; the pre-Galois checks and ``frob.kernel_pair_gamma``
read the orbits without building an object.  Agreement on an orbit o is
``f o o.proj1 == g o o.proj2``, which the uncached backend hook
``backend._agree(f, g, o.proj1, o.proj2)`` tests on the maps' data and
composes no map: the tuple backends compare ``o.proj1.data[i - 1]`` with
``o.proj2.data[j - 1]`` over the pairs ``(i, j)`` of ``zip(f.data,
g.data)``, and ``finite`` compares ``f.data[x]`` with ``g.data[y]`` over
the point pairs of ``zip(o.proj1.data, o.proj2.data)``.  The fiber-product
check of the pre-Galois axioms tests its spans ``f o u == g o v`` with the
same hook.  ``kernel_pair(backend, f)`` is the filter's output for f with
itself, kept once per map, which the mono and effectivity checks and
``kernel_pair_gamma`` read.

``triple_row(backend, omega, c)`` is the one walk of triple orbits: an
orbit of ``a x b x c`` is an orbit of ``omega.atom x c`` for an orbit
``omega`` of ``a x b``, and ``triple_row`` lists those orbits, each with its
``b x c`` and ``a x c`` orbit and its map onto that orbit's atom.  It reads
both off ``pair_images(backend, p, c)``, the image table of a projection
``p = omega.proj2`` (or ``omega.proj1``) against c, which orbits of
``a x b`` with a common projection share, so a table is factored once.
``linmat.matmul`` reads the rows over its entries' orbits, the ``finite``
triple tables walk every row, and the triple-coherence witness walks the
failing rows.  ``orbit_by_label(backend, a, b, label)`` finds the orbit of
``a x b`` a matrix entry names.

``triple_table(backend, a, b, c)`` records which ``(ab, bc, ac)`` index
triples occur on the orbits of ``a x b x c`` as dense rows: one tuple per
orbit of ``a x b`` with one entry per orbit of ``b x c``, the bit mask of
the ``a x c`` indices over that pair.  b is transitive, so every pair occurs
and no entry is 0.  ``backend._triple_table`` builds it.  ``finite`` walks
every ``triple_row``: a triple orbit of a finite group need not be the only
one over its pair orbits.  On ``sym`` and ``line`` it is, so there the table
is composed from the labels of ``a x b`` and ``b x c`` (partial matchings
through b, merge words cut at b's coordinates) and factors no map.  The
pre-Galois closure reads the rows and their transpose as the composition
table of the orbits of ``X x X``, and triple coherence tests each row
once, ORing its entries over the ``b x c`` orbits of each gamma value
against the ``a x c`` orbits that value and the row's make incoherent;
both OR whole rows in C instead of probing one pair at a time.

Every record here (``Atom``, ``AtomMap``, ``ProductOrbit``,
``LinearRelation``, ``GObject`` and ``GMap``) is an immutable named tuple,
hashed and compared in C.  It hashes as its field tuple, and atoms order as
their field tuples, so set, dict and sort orders and the reports depend on
the fields alone.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple


class Atom(NamedTuple):
    """A transitive piece, identified by its canonical label.

    ``degree`` is the arity for the infinite backends and the set size for the
    finite backend; it orders atoms and drives bound filtering.
    """

    backend_id: str
    degree: int
    label: str

    def render(self):
        return f"{self.backend_id}:{self.label}"


class AtomMap(NamedTuple):
    """An equivariant map between two atoms, in backend-specific encoding.

    For the infinite backends ``data`` is a 1-based selection tuple: output
    coordinate i of the map is input coordinate ``data[i-1]``.  For the finite
    backend ``data`` maps source point indices to target point indices.
    """

    source: Atom
    target: Atom
    data: tuple


class ProductOrbit(NamedTuple):
    label: str
    atom: Atom
    proj1: AtomMap
    proj2: AtomMap


class LinearRelation(NamedTuple):
    """value(lhs) = sum of coeff * value(cls) + const, over the rationals."""

    lhs: str
    terms: tuple  # tuple of (class label, integer coefficient)
    const: int


class GObject(NamedTuple):
    """A finite multiset of atoms of one backend, stored sorted."""

    backend_id: str
    atoms: tuple

    @staticmethod
    def of(backend_id, atoms):
        return GObject(backend_id, tuple(sorted(atoms)))

    def __add__(self, other):
        if other.backend_id != self.backend_id:
            raise ValueError("cannot form a coproduct across backends")
        return GObject.of(self.backend_id, self.atoms + other.atoms)

    def render(self):
        if not self.atoms:
            return f"{self.backend_id}:0"
        return " + ".join(a.render() for a in self.atoms)


class GMap(NamedTuple):
    """An object-level equivariant map: one (target position, atom map) leg
    per source atom position."""

    source: GObject
    target: GObject
    legs: tuple  # per source position: (target position, AtomMap)


class Backend:
    """Interface shared by the three shipped backends."""

    backend_id = ""

    def __init__(self):
        self.cache = {}

    def _memo(self, key, build, *args):
        """``cache[key]``, built by ``build(*args)`` on first use."""
        value = self.cache.get(key)
        if value is None:
            value = self.cache[key] = build(*args)
        return value

    # Atoms and maps

    def unit_atom(self):
        raise NotImplementedError

    def atoms_up_to(self, bound):
        raise NotImplementedError

    def hom_atoms(self, a, b):
        raise NotImplementedError

    def identity_map(self, a):
        raise NotImplementedError

    def compose_maps(self, outer, inner):
        """outer o inner, where inner: a -> b and outer: b -> c."""
        raise NotImplementedError

    def _agree(self, f, g, u, v):
        """Whether ``f o u == g o v``, for maps f and g into one atom and a
        span u, v out of one atom, tested on the maps' data without
        composing them.  Uncached."""
        raise NotImplementedError

    # Products

    def product_decompose(self, a, b):
        return self._memo(("product", a, b), self._decompose, a, b)

    def _decompose(self, a, b):
        """The orbits of a x b, uncached."""
        raise NotImplementedError

    def product_factor(self, f, g):
        raise NotImplementedError

    def _triple_table(self, a, b, c):
        """``triple_table`` uncached."""
        raise NotImplementedError

    def swap_label(self, a, b, label):
        """Label of the orbit of b x a that swapping the two factors sends
        the orbit ``label`` of a x b onto.  The swap is an involution."""
        raise NotImplementedError

    # Elementary fiber structure

    def elementary_factorize(self, f):
        """The fiber classes of f's canonical drop chain, in drop order."""
        raise NotImplementedError

    def factorization_class_multisets(self, f):
        """All multisets of fiber classes over the admissible drop orders.
        By default only the canonical chain is admissible."""
        return {tuple(sorted(self.elementary_factorize(f)))}

    def atom_chain_parent(self, a):
        """``(parent atom, fiber class)`` of a's canonical one-drop map, or
        None for the unit atom.  Chains ground atom measures in fiber
        classes."""
        raise NotImplementedError

    def fiber_classes(self, depth):
        raise NotImplementedError

    def fiber_decompositions(self, depth):
        """Point-cut decompositions of the fiber classes, as linear relations."""
        raise NotImplementedError

    # Rendering

    def parse_atom_label(self, label):
        raise NotImplementedError

    # Derived object-level helpers

    def unit_object(self):
        return GObject.of(self.backend_id, (self.unit_atom(),))

    def object_of(self, atoms):
        return GObject.of(self.backend_id, tuple(atoms))

    def identity_gmap(self, x):
        legs = tuple((i, self.identity_map(a)) for i, a in enumerate(x.atoms))
        return GMap(x, x, legs)

    def collapse_gmap(self, x):
        """The unique map from x to the final object."""
        unit = self.unit_object()
        legs = []
        for a in x.atoms:
            maps = self.hom_atoms(a, self.unit_atom())
            legs.append((0, maps[0]))
        return GMap(x, unit, tuple(legs))

    def hom_objects(self, x, y):
        """All object-level maps x -> y."""
        per_source = []
        for a in x.atoms:
            choices = []
            for j, b in enumerate(y.atoms):
                choices.extend((j, m) for m in self.hom_atoms(a, b))
            per_source.append(choices)
        out = []
        for combo in itertools.product(*per_source):
            out.append(GMap(x, y, tuple(combo)))
        return out

    def is_surjective_gmap(self, f):
        """Whether the legs hit every target position: an equivariant map
        onto a transitive atom is always onto."""
        return {j for j, _m in f.legs} == set(range(len(f.target.atoms)))


class TupleBackend(Backend):
    """Plumbing shared by the infinite backends.

    Atoms are tuple sets labelled ``<prefix>[n]`` with degree n, and atom maps
    are 1-based coordinate selections.
    """

    prefix = ""

    def _atom(self, n):
        return self._memo(("atom", n), self._build_atom, n)

    def _build_atom(self, n):
        return Atom(self.backend_id, n, f"{self.prefix}[{n}]")

    def unit_atom(self):
        return self._atom(0)

    def atoms_up_to(self, bound):
        return [self._atom(n) for n in range(bound + 1)]

    def atom_of_arity(self, n):
        return self._atom(n)

    def identity_map(self, a):
        return AtomMap(a, a, tuple(range(1, a.degree + 1)))

    def compose_maps(self, outer, inner):
        if inner.target is not outer.source and inner.target != outer.source:
            raise ValueError("atom map composition shape mismatch")
        data = inner.data
        sel = tuple([data[j - 1] for j in outer.data])
        return AtomMap(inner.source, outer.target, sel)

    def _agree(self, f, g, u, v):
        # output coordinate k of f o u is coordinate u.data[f.data[k] - 1]
        p1, p2 = u.data, v.data
        for i, j in zip(f.data, g.data):
            if p1[i - 1] != p2[j - 1]:
                return False
        return True

    def product_factor(self, f, g):
        source = f.source
        if g.source is not source and g.source != source:
            raise ValueError("product factor needs a common source")
        # a coordinate selection is its own value: the factoring depends on
        # the source degree and the two selections alone
        return self._memo(("factor", source.degree, f.data, g.data),
                          self._factor, f, g)

    def _factor(self, f, g):
        """``product_factor`` uncached, for maps with a common source."""
        raise NotImplementedError

    def atom_chain_parent(self, a):
        n = a.degree
        if n == 0:
            return None
        parent = self._atom(n - 1)
        (cls,) = self.elementary_factorize(AtomMap(a, parent, tuple(range(1, n))))
        return parent, cls

    def parse_atom_label(self, label):
        head = self.prefix + "["
        digits = label[len(head):-1]
        if not (label.startswith(head) and label.endswith("]")
                and digits.isdecimal()):
            raise ValueError(f"bad {self.backend_id} atom label {label!r}")
        return self._atom(int(digits))


def atom_gmap(backend, f):
    """An atom map as a map between one-atom objects."""
    return GMap(backend.object_of([f.source]), backend.object_of([f.target]),
                ((0, f),))


def agreeing_orbits(backend, f, g):
    """The orbits o of ``f.source x g.source``, in ``product_decompose``
    order, on which the atom maps f and g into one atom agree:
    ``f o o.proj1 == g o o.proj2``, tested by ``backend._agree`` on the
    maps' data.  Maps into two different atoms agree nowhere."""
    if f.target != g.target:
        return
    agree = backend._agree
    for orbit in backend.product_decompose(f.source, g.source):
        if agree(f, g, orbit.proj1, orbit.proj2):
            yield orbit


def kernel_pair(backend, f):
    """The kernel pair of the atom map f: ``agreeing_orbits(backend, f,
    f)`` as a tuple, kept in the backend cache under ``("kernel", f)``."""
    return backend._memo(("kernel", f), _kernel_pair, backend, f)


def _kernel_pair(backend, f):
    """``kernel_pair`` uncached."""
    return tuple(agreeing_orbits(backend, f, f))


def orbit_by_label(backend, a, b, label):
    """The orbit of ``a x b`` labelled ``label``."""
    return next(o for o in backend.product_decompose(a, b) if o.label == label)


def product_images(backend, f, g):
    """Where ``f x g`` sends each orbit ``o`` of ``f.source x g.source``, in
    ``product_decompose`` order: the label of the orbit of
    ``f.target x g.target`` hit by ``(f o o.proj1, g o o.proj2)`` and the
    map of ``o`` onto that orbit's atom, as ``product_factor`` returns
    them.  An ``Atom`` in place of f or g stands for its identity map, and
    that leg is the orbit's projection itself, composed with nothing.
    Uncached."""
    a = f if isinstance(f, Atom) else f.source
    b = g if isinstance(g, Atom) else g.source
    return tuple(
        backend.product_factor(
            o.proj1 if f is a else backend.compose_maps(f, o.proj1),
            o.proj2 if g is b else backend.compose_maps(g, o.proj2))
        for o in backend.product_decompose(a, b))


def pair_images(backend, p, c):
    """``product_images`` of ``p x 1`` for an atom c, kept in the backend
    cache under ``("images", p, c)``."""
    return backend._memo(("images", p, c), product_images, backend, p, c)


def triple_row(backend, omega, c):
    """The orbits of ``a x b x c`` over an orbit ``omega`` of ``a x b``:
    those of ``omega.atom x c`` in ``product_decompose`` order, each as
    ``(orbit, to_bc, to_ac)``, the label of its ``b x c`` (or ``a x c``)
    orbit and its map onto that orbit's atom.  These are where
    ``omega.proj2 x 1`` (or ``omega.proj1 x 1``) sends it, so they are read
    off the ``pair_images`` tables of the two projections."""
    return zip(backend.product_decompose(omega.atom, c),
               pair_images(backend, omega.proj2, c),
               pair_images(backend, omega.proj1, c))


def triple_table(backend, a, b, c):
    """The orbits of ``a x b x c`` as rows: ``table[i_ab][i_bc]`` is the
    bit mask of the ``i_ac`` that occur with the orbits ``i_ab`` of
    ``a x b`` and ``i_bc`` of ``b x c``, indices in ``product_decompose``
    order.  A tuple of tuples with one row per orbit of ``a x b`` and one
    entry per orbit of ``b x c``, none of them 0, built by
    ``backend._triple_table`` (a walk of every ``triple_row`` on ``finite``,
    composed from labels on ``sym`` and ``line``) and kept in the backend
    cache under ``("triples", a, b, c)``."""
    return backend._memo(("triples", a, b, c), backend._triple_table, a, b, c)
