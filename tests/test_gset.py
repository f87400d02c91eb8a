"""Backend combinatorics against independent counting oracles."""

import ast
import gc
import itertools
import types
import weakref
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oligoperm
from oligoperm.coeff import RATIONAL
from oligoperm.frob import build_frobenius
from oligoperm.gset import (
    LINE,
    SYM,
    LineBackend,
    SymBackend,
    preset_backend,
)
from oligoperm.gset.finite import (
    MAX_GROUP_ORDER,
    MAX_POINT,
    PRESETS,
    FiniteBackend,
    mulclose,
    parse_cycles,
)
from oligoperm.gset.base import (
    Atom,
    AtomMap,
    ProductOrbit,
    agreeing_orbits,
    kernel_pair,
    pair_images,
    product_images,
    triple_row,
    triple_table,
)
from oligoperm.gset.symmetric import _matching_label, _parse_matching
from oligoperm.linmat import multi_factor, projection, tensor_space
from oligoperm.oracle import finite_orbit_count_on_pairs


def delannoy(m, n):
    """Lattice-path recurrence, the standard independent oracle."""
    table = {}
    for i in range(m + 1):
        for j in range(n + 1):
            if i == 0 or j == 0:
                table[i, j] = 1
            else:
                table[i, j] = table[i - 1, j] + table[i, j - 1] + table[i - 1, j - 1]
    return table[m, n]


@pytest.fixture(scope="module")
def s3():
    return preset_backend("S3")


# Atoms


def test_sym_atoms_up_to():
    assert [a.label for a in SYM.atoms_up_to(2)] == ["inj[0]", "inj[1]", "inj[2]"]


def test_line_atoms_up_to():
    assert [a.label for a in LINE.atoms_up_to(1)] == ["inc[0]", "inc[1]"]


def test_s3_atoms(s3):
    # one atom per conjugacy class of subgroup: sizes 1, 2, 3, 6
    assert [a.degree for a in s3.atoms_up_to(6)] == [1, 2, 3, 6]


# Hom sets


def test_sym_hom_counts():
    for n in range(5):
        for m in range(5):
            a, b = SYM.atom_of_arity(n), SYM.atom_of_arity(m)
            expected = factorial(n) // factorial(n - m) if m <= n else 0
            assert len(SYM.hom_atoms(a, b)) == expected


def test_sym_hom_brute_force_oracle():
    # enumerate equivariant maps [N]^(2-distinct) -> [N] under S_N directly:
    # a map is determined by the image of the base point (0, 1), and a value v
    # works exactly when g.(0,1) = (0,1) implies g(v) = v for all g
    N = 5
    perms = list(itertools.permutations(range(N)))
    count = 0
    for v in range(N):
        if all(g[v] == v for g in perms if (g[0], g[1]) == (0, 1)):
            count += 1
    assert count == len(SYM.hom_atoms(SYM.atom_of_arity(2), SYM.atom_of_arity(1)))


def test_line_hom_counts():
    for n in range(5):
        for m in range(5):
            a, b = LINE.atom_of_arity(n), LINE.atom_of_arity(m)
            assert len(LINE.hom_atoms(a, b)) == comb(n, m)


def test_no_map_creating_points():
    assert SYM.hom_atoms(SYM.atom_of_arity(1), SYM.atom_of_arity(2)) == []


def test_hom_contains_identity_and_composes():
    for backend, mk in [(SYM, SYM.atom_of_arity), (LINE, LINE.atom_of_arity)]:
        a = mk(3)
        homs = backend.hom_atoms(a, a)
        assert backend.identity_map(a) in homs
        b = mk(2)
        for f in backend.hom_atoms(a, b):
            for g in backend.hom_atoms(b, mk(1)):
                assert backend.compose_maps(g, f) in backend.hom_atoms(a, mk(1))


def test_s3_hom_counts(s3):
    atoms = s3.atoms_up_to(6)
    regular = atoms[-1]
    # maps G/1 -> G/H biject with points of G/H
    for a in atoms:
        assert len(s3.hom_atoms(regular, a)) == a.degree


# Products


def test_sym_product_counts():
    for n in range(4):
        for m in range(4):
            expected = sum(comb(n, k) * comb(m, k) * factorial(k)
                           for k in range(min(n, m) + 1))
            orbits = SYM.product_decompose(SYM.atom_of_arity(n), SYM.atom_of_arity(m))
            assert len(orbits) == expected


def test_sym_omega1_squared():
    orbits = SYM.product_decompose(SYM.atom_of_arity(1), SYM.atom_of_arity(1))
    assert sorted(o.atom.degree for o in orbits) == [1, 2]


def test_sym_omega2_squared_seven_orbits():
    orbits = SYM.product_decompose(SYM.atom_of_arity(2), SYM.atom_of_arity(2))
    assert len(orbits) == 7


def test_line_product_is_delannoy():
    for n in range(4):
        for m in range(4):
            orbits = LINE.product_decompose(LINE.atom_of_arity(n), LINE.atom_of_arity(m))
            assert len(orbits) == delannoy(n, m)


def test_line_pair_of_points():
    orbits = LINE.product_decompose(LINE.atom_of_arity(1), LINE.atom_of_arity(1))
    assert [o.label for o in orbits] == ["LR", "B", "RL"]
    assert sorted(o.atom.degree for o in orbits) == [1, 2, 2]


def test_line_orbits_from_sampled_tuples():
    # classify sampled pairs of increasing tuples by their merge pattern
    values = range(6)
    n, m = 2, 2
    seen = set()
    for left in itertools.combinations(values, n):
        for right in itertools.combinations(values, m):
            word = []
            for v in sorted(set(left) | set(right)):
                word.append("B" if v in left and v in right
                            else "L" if v in left else "R")
            seen.add("".join(word))
    labels = {o.label for o in
              LINE.product_decompose(LINE.atom_of_arity(n), LINE.atom_of_arity(m))}
    assert seen == labels


def sorted_matching_orbits(backend, a, b):
    """The orbits of inj[n] x inj[m] without a walk: every partial matching,
    sorted, then each orbit built from its matching alone."""
    n, m = a.degree, b.degree
    matchings = sorted(tuple(zip(left, right))
                       for k in range(min(n, m) + 1)
                       for left in itertools.combinations(range(1, n + 1), k)
                       for right in itertools.permutations(range(1, m + 1), k))
    orbits = []
    for matching in matchings:
        atom = backend.atom_of_arity(n + m - len(matching))
        matched_right = {j for _, j in matching}
        unmatched_right = [j for j in range(1, m + 1) if j not in matched_right]
        right_pos = {j: n + rank + 1 for rank, j in enumerate(unmatched_right)}
        sel2 = tuple(next(i for i, jj in matching if jj == j)
                     if j in matched_right else right_pos[j]
                     for j in range(1, m + 1))
        orbits.append(ProductOrbit(
            _matching_label(matching), atom,
            AtomMap(atom, a, tuple(range(1, n + 1))), AtomMap(atom, b, sel2)))
    return tuple(orbits)


def sorted_word_orbits(backend, a, b):
    """The orbits of inc[n] x inc[m] without a walk in label order: the
    merge words by recursion, sorted with L < B < R, then each orbit built
    from its word alone."""
    n, m = a.degree, b.degree
    words = []

    def extend(word, used_l, used_r):
        if used_l == n and used_r == m:
            words.append("".join(word))
            return
        if used_l < n:
            extend(word + ["L"], used_l + 1, used_r)
        if used_l < n and used_r < m:
            extend(word + ["B"], used_l + 1, used_r + 1)
        if used_r < m:
            extend(word + ["R"], used_l, used_r + 1)

    extend([], 0, 0)
    words.sort(key=lambda word: tuple("LBR".index(ch) for ch in word))
    orbits = []
    for word in words:
        atom = backend.atom_of_arity(len(word))
        sel1 = tuple(i + 1 for i, ch in enumerate(word) if ch in "LB")
        sel2 = tuple(i + 1 for i, ch in enumerate(word) if ch in "RB")
        orbits.append(ProductOrbit(word, atom, AtomMap(atom, a, sel1),
                                   AtomMap(atom, b, sel2)))
    return tuple(orbits)


@pytest.mark.parametrize("make, reference", [
    (SymBackend, sorted_matching_orbits),
    (LineBackend, sorted_word_orbits),
], ids=["sym", "line"])
def test_label_order_walk_matches_sorted_orbits(make, reference):
    # in order, with the same labels, atoms and both projections
    backend = make()
    for n, m in itertools.product(range(6), repeat=2):
        a, b = backend.atom_of_arity(n), backend.atom_of_arity(m)
        assert backend.product_decompose(a, b) == reference(backend, a, b), \
            (n, m)


def test_finite_product_sizes(s3):
    atoms = s3.atoms_up_to(6)
    for a in atoms:
        for b in atoms:
            orbits = s3.product_decompose(a, b)
            assert sum(o.atom.degree for o in orbits) == a.degree * b.degree


def test_group_order_ceiling():
    # S4 and A5 (order 60) are within MAX_GROUP_ORDER, S5 is not
    s4 = preset_backend("S4")
    assert len(s4.elements) == 24 and len(s4.atoms_up_to(24)) == 11
    assert len(mulclose(*parse_cycles("(1 2 3); (3 4 5)"))) == MAX_GROUP_ORDER
    with pytest.raises(ValueError, match="group order exceeds"):
        mulclose(*parse_cycles("(1 2); (1 2 3 4 5)"))


def test_point_ceiling():
    # the presets, and a group moving MAX_POINT points in disjoint
    # transpositions, are admitted; one point further is not
    for text, n_points in PRESETS.values():
        parse_cycles(text, n_points)
    pairs = "".join(f"({i} {i + 1})" for i in range(1, MAX_POINT, 2))
    assert parse_cycles(pairs)[1] == MAX_POINT
    with pytest.raises(ValueError, match="MAX_POINT"):
        parse_cycles(f"(1 {MAX_POINT + 1})")
    with pytest.raises(ValueError, match="MAX_POINT"):
        parse_cycles("(1 " + "9" * 5000 + ")")


def reference_subgroups(backend):
    """Every subgroup as a join of cyclic subgroups, each join closed over
    all the elements of both: the enumeration ``FiniteBackend`` replaced by
    generator lists, kept as its reference."""
    cyclics = set()
    for g in backend.elements:
        sub = {backend.identity}
        x = g
        while x not in sub:
            sub.add(x)
            x = tuple(g[i] for i in x)
        cyclics.add(frozenset(sub))
    subgroups = set(cyclics)
    frontier = set(cyclics)
    while frontier:
        new = set()
        for a in frontier:
            for b in cyclics:
                join = mulclose(list(a | b), backend.n_points)
                if join not in subgroups:
                    subgroups.add(join)
                    new.add(join)
        frontier = new
    subgroups.add(frozenset({backend.identity}))
    return sorted(subgroups, key=lambda s: (len(s), tuple(sorted(s))))


@pytest.mark.parametrize("text, n_points", [
    ("(1 2); (1 2 3)", None),            # S3
    ("(1 2)", 4),                        # C2x4
    ("(1 2); (1 2 3 4)", None),          # S4
    ("(1 2 3); (3 4 5)", None),          # A5
    ("(1 2 3 4); (1 3)", None),          # D4
    ("(1 2 3 4 5); (2 5)(3 4)", None),   # D5
    ("(1 2)(3 4); (1 3)(2 4)", None),    # V4
    ("(1 2 3)(4 5 6); (1 4)", None),
], ids=["S3", "C2x4", "S4", "A5", "D4", "D5", "V4", "cycles"])
def test_subgroups_by_generators_match_reference(text, n_points):
    backend = FiniteBackend(*parse_cycles(text, n_points))
    assert [frozenset(map(backend.elements.__getitem__, sub))
            for sub in backend._enumerate_subgroups()] == \
        reference_subgroups(backend)


def per_pair_subgroups(backend):
    """``FiniteBackend._enumerate_subgroups`` as it was before it skipped
    unions met before: every frontier subgroup joined with every cyclic
    subgroup not inside it, each join closed under the frontier subgroup's
    generator list and the cyclic generator.  Kept as its reference."""
    cyclic = {}
    for g, row in enumerate(backend._mul):
        sub = {0}
        x = g
        while x not in sub:
            sub.add(x)
            x = row[x]
        cyclic.setdefault(frozenset(sub), g)
    gens = {sub: [g] for sub, g in cyclic.items()}
    frontier = list(gens)
    while frontier:
        new = []
        for a in frontier:
            for g in cyclic.values():
                if g in a:
                    continue
                join = backend._close(a, gens[a] + [g])
                if join not in gens:
                    gens[join] = gens[a] + [g]
                    new.append(join)
        frontier = new
    return sorted(gens, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("text, n_points, exact", [
    ("(1 2); (1 2 3)", None, 6),             # S3
    ("(1 2)", 4, 0),                         # C2x4
    ("(1 2); (1 2 3 4)", None, 256),         # S4
    ("(1 2 3); (3 4 5)", None, 1145),        # A5
    ("(1 2 3 4); (1 3)", None, 20),          # D4
    ("(1 2 3 4 5); (2 5)(3 4)", None, 15),   # D5
    ("(1 2)(3 4); (1 3)(2 4)", None, 3),     # V4
    ("(1 2 3)(4 5 6); (1 4)", None, 197),
], ids=["S3", "C2x4", "S4", "A5", "D4", "D5", "V4", "cycles"])
def test_subgroup_joins_close_each_union_once(text, n_points, exact,
                                              monkeypatch):
    """Building a backend closes each distinct union of a subgroup and a
    cyclic subgroup once, and none that is already a subgroup, and finds
    the subgroups of the per-pair joins.  The counts are exact, so a change
    in either direction shows (closing every join made 16 S3, 1 C2x4, 392
    S4, 1,641 A5, 41 D4, 36 D5, 9 V4 and 317 cycles calls)."""
    calls = []
    close = FiniteBackend._close

    def counting(self, sub, gens):
        calls.append(sub)
        return close(self, sub, gens)

    monkeypatch.setattr(FiniteBackend, "_close", counting)
    backend = FiniteBackend(*parse_cycles(text, n_points))
    assert len(calls) == exact
    assert backend._enumerate_subgroups() == per_pair_subgroups(backend)


def compose(p, q):
    """p after q, as permutation tuples."""
    return tuple(p[i] for i in q)


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


class TupleReference:
    """The finite backend built by composing permutation tuples, as
    ``FiniteBackend`` was before it moved to a Cayley table of element
    indices, kept as its reference: conjugates, cosets, actions, hom sets
    and orbit stabilizers straight from the tuples, on the subgroups of
    ``reference_subgroups``."""

    def __init__(self, generators, n_points):
        self.n_points = n_points
        self.generators = [tuple(g) for g in generators]
        self.elements = sorted(mulclose(self.generators, n_points))
        self.identity = tuple(range(n_points))
        classes, seen = [], set()
        for h in reference_subgroups(self):
            if h in seen:
                continue
            conj = {frozenset(compose(compose(inverse(g), s), g) for s in h)
                    for g in self.elements}
            seen |= conj
            classes.append((min(conj, key=lambda sub: tuple(sorted(sub))),
                            conj))
        order = len(self.elements)
        classes.sort(key=lambda c: (order // len(c[0]), tuple(sorted(c[0]))))
        self.reps = [rep for rep, _ in classes]
        self.class_index = {sub: k for k, (_, conj) in enumerate(classes)
                            for sub in conj}
        self.atoms = [Atom("finite", order // len(rep), f"orbit#{k}")
                      for k, rep in enumerate(self.reps)]
        self.points = {}
        self.coset_of = {}
        for atom, rep in zip(self.atoms, self.reps):
            cosets = {frozenset(compose(g, h) for h in rep)
                      for g in self.elements}
            self.points[atom] = sorted(cosets, key=min)
            self.coset_of[atom] = {x: i for i, c in
                                   enumerate(self.points[atom]) for x in c}
        self.tables = {}

    def act_table(self, g, a):
        if (g, a) not in self.tables:
            self.tables[g, a] = tuple(
                self.coset_of[a][compose(g, min(coset))]
                for coset in self.points[a])
        return self.tables[g, a]

    def hom_atoms(self, a, b):
        h_rep = self.reps[int(a.label.split("#")[1])]
        return tuple(
            AtomMap(a, b, tuple(self.act_table(min(src), b)[q]
                                for src in self.points[a]))
            for q in range(b.degree)
            if all(self.act_table(h, b)[q] == q for h in h_rep))

    def product_decompose(self, a, b):
        seen, orbit_sets = set(), []
        for p in itertools.product(range(a.degree), range(b.degree)):
            if p in seen:
                continue
            orbit, frontier = {p}, [p]
            while frontier:
                frontier = [q for i, j in frontier for g in self.generators
                            for q in [(self.act_table(g, a)[i],
                                       self.act_table(g, b)[j])]
                            if q not in orbit and not orbit.add(q)]
            seen |= orbit
            orbit_sets.append(orbit)
        orbit_sets.sort(key=min)
        orbits = []
        for k, orbit in enumerate(orbit_sets):
            i, j = min(orbit)
            stab = frozenset(g for g in self.elements
                             if self.act_table(g, a)[i] == i
                             and self.act_table(g, b)[j] == j)
            c = self.atoms[self.class_index[stab]]
            h_rep = self.reps[self.class_index[stab]]
            conj = next(
                h for h in self.elements
                if frozenset(compose(compose(inverse(h), s), h)
                             for s in stab) == h_rep)
            moved = [compose(min(coset), inverse(conj))
                     for coset in self.points[c]]
            orbits.append(ProductOrbit(
                f"#{k}", c,
                AtomMap(c, a, tuple(self.act_table(g, a)[i] for g in moved)),
                AtomMap(c, b, tuple(self.act_table(g, b)[j] for g in moved))))
        return tuple(orbits)


def assert_matches_tuple_reference(backend, bound):
    """Atoms, class representatives, points, act tables, hom sets and pair
    orbits of ``backend`` equal the tuple reference's, on the atoms of
    degree at most bound.  An atom's points are its cosets: each coset's
    least element and the coset of every element match the reference's."""
    ref = TupleReference(backend.generators, backend.n_points)
    assert backend.elements == ref.elements
    assert backend.atoms_up_to(len(ref.elements)) == ref.atoms
    assert [frozenset(backend.elements[i] for i in rep)
            for rep in backend._reps] == ref.reps
    atoms = [a for a in ref.atoms if a.degree <= bound]
    for a in atoms:
        assert ([backend.elements[g] for g in backend._coset_reps[a]]
                == [min(coset) for coset in ref.points[a]])
        assert backend._coset_of[a] == [ref.coset_of[a][x]
                                        for x in backend.elements]
        for g in ref.elements:
            assert backend.act_table(g, a) == ref.act_table(g, a)
    for a, b in itertools.product(atoms, repeat=2):
        assert backend.hom_atoms(a, b) == ref.hom_atoms(a, b)
        assert backend.product_decompose(a, b) == ref.product_decompose(a, b)


@pytest.mark.parametrize("text, n_points", [
    ("(1 2); (1 2 3)", None),            # S3
    ("(1 2)", 4),                        # C2x4
    ("(1 2); (1 2 3 4)", None),          # S4
    ("(1 2 3); (3 4 5)", None),          # A5
    ("(1 2 3 4); (1 3)", None),          # D4
    ("(1 2 3 4 5); (2 5)(3 4)", None),   # D5
    ("(1 2)(3 4); (1 3)(2 4)", None),    # V4
    ("(1 2 3)(4 5 6); (1 4)", None),
    ("(1 2 3 4 5 6)", None),             # C6, regular
    ("(1)", None),                       # trivial
], ids=["S3", "C2x4", "S4", "A5", "D4", "D5", "V4", "cycles", "C6",
        "trivial"])
def test_finite_backend_matches_tuple_reference(text, n_points):
    backend = FiniteBackend(*parse_cycles(text, n_points))
    assert_matches_tuple_reference(backend, len(backend.elements))


# a mutant of the backend that the tuple reference must catch, as (file under
# the package, old text, new text): ``_decompose`` conjugates each orbit's
# stabilizer onto its class representative by the last element that does so
# instead of the least
LAST_CONJUGATOR = (
    "gset/finite.py",
    "conj = next(h for h, row in enumerate(self._conj)\n",
    "conj = max(h for h, row in enumerate(self._conj)\n")


def mutant_backend_class(mutant):
    """``FiniteBackend`` of a mutated ``gset/finite.py``: the mutation is
    applied to the module's text in memory, and the text is run as a scratch
    module of ``oligoperm.gset``, so nothing under the package changes."""
    path, old, new = mutant
    text = (Path(oligoperm.__file__).parent / path).read_text()
    assert text.count(old) == 1
    module = types.ModuleType("oligoperm.gset._mutant")
    module.__package__ = "oligoperm.gset"
    exec(compile(text.replace(old, new), f"<mutant of {path}>", "exec"),
         module.__dict__)
    return module.FiniteBackend


@pytest.mark.parametrize("text, n_points", [
    ("(1 2)", 2),                        # C2, regular
    ("(1 2)", 3),                        # C2 with a fixed point
    ("(1 2); (1 2 3)", None),            # S3
    ("(1 2 3 4); (1 3)", None),          # D4
], ids=["C2", "C2-on-3", "S3", "D4"])
def test_tuple_reference_catches_the_last_conjugator(text, n_points):
    """The scratch module run from the unmutated text matches the tuple
    reference, and the mutant does not."""
    generators, n = parse_cycles(text, n_points)
    path, old, _new = LAST_CONJUGATOR
    unmutated = mutant_backend_class((path, old, old))(generators, n)
    assert_matches_tuple_reference(unmutated, 8)
    mutant = mutant_backend_class(LAST_CONJUGATOR)(generators, n)
    with pytest.raises(AssertionError):
        assert_matches_tuple_reference(mutant, 8)


def group_order(generators, n_points):
    """The order of the group, by closure with no ceiling."""
    elements = {tuple(range(n_points))}
    frontier = list(elements)
    while frontier:
        frontier = [y for x in frontier for g in generators
                    for y in [compose(g, x)]
                    if y not in elements and not elements.add(y)]
    return len(elements)


@st.composite
def permutation_groups(draw):
    """1-3 generators on at most 7 points.  Each is a product of disjoint
    cycles over a drawn list of at least two points (fewer if there are
    fewer), cut where a drawn flag says; the points left out and cycles of
    length 1 are fixed, so fixed points and intransitive groups occur."""
    n_points = draw(st.integers(1, 7))
    point = st.integers(0, n_points - 1)
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.lists(point, unique=True, min_size=min(2, n_points)))
        ends = draw(st.lists(st.booleans(), min_size=len(support),
                             max_size=len(support)))
        perm = list(range(n_points))
        start = 0
        for k, end in enumerate(ends):
            if end or k == len(support) - 1:
                cycle = support[start:k + 1]
                for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
                    perm[src] = dst
                start = k + 1
        generators.append(tuple(perm))
    return generators, n_points


@settings(max_examples=150, deadline=None, derandomize=True)
@given(permutation_groups())
def test_random_groups_match_tuple_reference(group):
    generators, n_points = group
    if group_order(generators, n_points) > MAX_GROUP_ORDER:
        with pytest.raises(ValueError,
                           match=f"group order exceeds {MAX_GROUP_ORDER}"):
            FiniteBackend(generators, n_points)
        return
    backend = FiniteBackend(generators, n_points)
    assert_matches_tuple_reference(backend, 6)
    atoms = backend.atoms_up_to(len(backend.elements))
    for a, b in itertools.product(atoms, repeat=2):
        assert (finite_orbit_count_on_pairs(backend, a, b)
                == len(backend.product_decompose(a, b)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(permutation_groups())
def test_random_groups_subgroups_match_per_pair_joins(group):
    """On the draws of ``test_random_groups_match_tuple_reference``, the
    subgroups found with each union closed once are the per-pair joins'."""
    generators, n_points = group
    if group_order(generators, n_points) > MAX_GROUP_ORDER:
        return
    backend = FiniteBackend(generators, n_points)
    assert backend._enumerate_subgroups() == per_pair_subgroups(backend)


# a fresh backend (empty cache) and the atom bound of its triple-table test;
# 6 takes every atom of S3
TRIPLE_BACKENDS = {
    "sym": (SymBackend, 3),
    "line": (LineBackend, 3),
    "S3": (lambda: preset_backend("S3"), 6),
}


def brute_triple_table(backend, a, b, c):
    """Rows ``table[i_ab][i_bc]`` = mask of i_ac, read position by position
    off tensor_space([a, b, c]) through projection and multi_factor, and the
    number of positions."""
    objs = [backend.object_of([atom]) for atom in (a, b, c)]
    ps = tensor_space(backend, objs)
    pairs = []
    for u, v in ((0, 1), (1, 2), (0, 2)):
        order = {o.label: k for k, o in enumerate(backend.product_decompose(
            objs[u].atoms[0], objs[v].atoms[0]))}
        pairs.append((u, v, tensor_space(backend, [objs[u], objs[v]]), order))
    table = [[0] * len(backend.product_decompose(b, c))
             for _ in backend.product_decompose(a, b)]
    for p in range(len(ps.positions)):
        maps = [projection(ps, p, i) for i in range(3)]
        i_ab, i_bc, i_ac = (
            order[sub.positions[multi_factor(
                backend, [maps[u], maps[v]], sub)[0]].meta[2]]
            for u, v, sub, order in pairs)
        table[i_ab][i_bc] |= 1 << i_ac
    return tuple(map(tuple, table)), len(ps.positions)


@pytest.mark.parametrize("name", list(TRIPLE_BACKENDS))
def test_triple_table_matches_brute_force(name):
    """Every atom triple, equal atoms or not: the table built cold equals
    the brute-force read, the rows of ``triple_row`` meet each orbit of
    a x b x c once, and a reread returns the cached table itself."""
    make, bound = TRIPLE_BACKENDS[name]
    backend = make()
    atoms = backend.atoms_up_to(bound)
    tables = {}
    for a, b, c in itertools.product(atoms, repeat=3):
        want, size = brute_triple_table(backend, a, b, c)
        table = tables[a, b, c] = triple_table(backend, a, b, c)
        assert table == want, (a, b, c)
        assert sum(1 for omega in backend.product_decompose(a, b)
                   for _ in triple_row(backend, omega, c)) == size
    for (a, b, c), table in tables.items():
        assert triple_table(backend, a, b, c) is table
    assert len({len(t) for t in tables.values()}) > 1


@pytest.mark.parametrize("name", list(TRIPLE_BACKENDS))
def test_triple_table_is_dense_rows(name):
    """On every atom triple, a table is a tuple with one row per orbit of
    a x b, each a tuple with one entry per orbit of b x c.  No entry is 0:
    b is transitive, so every pair of an a x b and a b x c orbit meets on
    some orbit of a x b x c.  A reread returns the cached tuple itself."""
    make, bound = TRIPLE_BACKENDS[name]
    backend = make()
    atoms = backend.atoms_up_to(bound)
    for a, b, c in itertools.product(atoms, repeat=3):
        table = triple_table(backend, a, b, c)
        assert type(table) is tuple, (a, b, c)
        assert len(table) == len(backend.product_decompose(a, b)), (a, b, c)
        width = len(backend.product_decompose(b, c))
        for row in table:
            assert type(row) is tuple and len(row) == width, (a, b, c)
            assert all(row), (a, b, c)
        assert triple_table(backend, a, b, c) is table


def per_orbit_triple_orbits(backend, a, b, c):
    """The reference walk of a x b x c: per orbit, compose its map onto the
    orbit of a x b with that orbit's projections onto a and b, and factor
    each with its map onto c."""
    index_bc = {o.label: k for k, o in enumerate(backend.product_decompose(b, c))}
    index_ac = {o.label: k for k, o in enumerate(backend.product_decompose(a, c))}
    for i_ab, omega in enumerate(backend.product_decompose(a, b)):
        for orbit in backend.product_decompose(omega.atom, c):
            to_a = backend.compose_maps(omega.proj1, orbit.proj1)
            to_b = backend.compose_maps(omega.proj2, orbit.proj1)
            l_bc, _ = backend.product_factor(to_b, orbit.proj2)
            l_ac, _ = backend.product_factor(to_a, orbit.proj2)
            yield i_ab, index_bc[l_bc], index_ac[l_ac], orbit.label


# the backends of ``test_triple_table_matches_brute_force`` and C2x4
PER_ORBIT_BACKENDS = {
    **TRIPLE_BACKENDS,
    "C2x4": (lambda: preset_backend("C2x4"), 6),
}


@pytest.mark.parametrize("name", list(PER_ORBIT_BACKENDS))
def test_triple_orbits_match_per_orbit_walk(name):
    """The rows of ``triple_row`` over the orbits of a x b yield the index
    triples and orbits of the per-orbit walk on a second backend, in that
    walk's order, on every atom triple, equal atoms or not."""
    make, bound = PER_ORBIT_BACKENDS[name]
    backend, reference = make(), make()
    for a, b, c in itertools.product(backend.atoms_up_to(bound), repeat=3):
        index_bc, index_ac = ({o.label: k for k, o in enumerate(
            backend.product_decompose(target, c))} for target in (b, a))
        got = [(i_ab, index_bc[to_bc[0]], index_ac[to_ac[0]], orbit.label)
               for i_ab, omega in enumerate(backend.product_decompose(a, b))
               for orbit, to_bc, to_ac in triple_row(backend, omega, c)]
        assert got == list(per_orbit_triple_orbits(reference, a, b, c)), \
            (a, b, c)


def count_calls(monkeypatch, backend, name):
    """A list that grows by one per call of the backend's method ``name``."""
    original = getattr(backend, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(backend, name, counted)
    return calls


def count_imaged(monkeypatch, cls):
    """A list that grows by one per orbit the backend class's image walk
    ``_images`` reads, the walk's unit of work."""
    imaged = []
    real = cls._images

    def counted(self, f, g, orbits):
        imaged.extend([None] * len(orbits))
        return real(self, f, g, orbits)

    monkeypatch.setattr(cls, "_images", counted)
    return imaged


def test_triple_table_factors_once_per_projection(monkeypatch):
    """Walking every ``triple_row`` of a triple product, as the ``finite``
    triple table does, images the orbits of omega.atom x c once per
    distinct projection of an omega, not twice per orbit of the triple
    product: on inc[3]^3, 16,081 orbits, 32,162 images (10,429 orbits
    imaged in 35 tables; the same count as ``product_factor`` calls when
    the walk factored each orbit's composed map)."""
    backend = LineBackend()
    x = backend.atom_of_arity(3)
    imaged = count_imaged(monkeypatch, LineBackend)
    assert sum(1 for omega in backend.product_decompose(x, x)
               for _ in triple_row(backend, omega, x)) == 16_081
    assert 0 < len(imaged) <= 11_000


@pytest.mark.parametrize("make", [SymBackend, LineBackend],
                         ids=["sym", "line"])
def test_composed_triple_table_matches_walk(make, monkeypatch):
    """On sym and line the triple table is composed from the labels of
    a x b and b x c: on every atom triple within degree 3, equal atoms or
    not, it equals the table of the per-orbit walk on a second backend,
    and building it factors and composes no map."""
    backend, reference = make(), make()
    factored = count_calls(monkeypatch, backend, "product_factor")
    composed = count_calls(monkeypatch, backend, "compose_maps")
    for a, b, c in itertools.product(backend.atoms_up_to(3), repeat=3):
        want = [[0] * len(reference.product_decompose(b, c))
                for _ in reference.product_decompose(a, b)]
        for i_ab, i_bc, i_ac, _label in per_orbit_triple_orbits(
                reference, a, b, c):
            want[i_ab][i_bc] |= 1 << i_ac
        assert triple_table(backend, a, b, c) == tuple(map(tuple, want)), \
            (a, b, c)
    assert factored == composed == []
    assert not any(key[0] == "images" for key in backend.cache)


def line_words(backend, i, j):
    """The merge words of inc[i] x inc[j] in product_decompose order."""
    return [o.label for o in backend.product_decompose(
        backend.atom_of_arity(i), backend.atom_of_arity(j))]


def test_line_word_index_is_a_sum_of_letter_counts():
    """The two identities the line triple table rests on, for every word
    with n, m <= 5.  A merge word's index in product_decompose order is the
    sum, over its letters, of the number of words left that start with a
    smaller letter.  A word w of (p a's, q c's) with (i, j) letters left
    adds that sum's share of w, which is the index of its minimal
    completion w + L^(i-p) + R^(j-q) among the words of inc[i] x inc[j]."""
    backend = LineBackend()
    count = {(i, j): len(line_words(backend, i, j))
             for i, j in itertools.product(range(6), repeat=2)}

    def letter_sum(word, i, j):
        total = 0
        for ch in word:
            if ch in "BR":  # the words left that start with an L
                total += count.get((i - 1, j), 0)
            if ch == "R":  # and with a B
                total += count.get((i - 1, j - 1), 0)
            i, j = i - (ch in "LB"), j - (ch in "RB")
        return total

    gap_words = 0
    for i, j in itertools.product(range(6), repeat=2):
        index = {w: k for k, w in enumerate(line_words(backend, i, j))}
        for word, k in index.items():
            assert letter_sum(word, i, j) == k, word
        for p, q in itertools.product(range(i + 1), range(j + 1)):
            for word in line_words(backend, p, q):
                completion = word + "L" * (i - p) + "R" * (j - q)
                assert index[completion] == letter_sum(word, i, j), \
                    (word, i, j)
                gap_words += 1
    assert gap_words == 12_135


def reference_line_triple_table(backend, a, b, c):
    """The line triple table by forming every a x c word over each pair:
    cut the a x b and b x c words at b's coordinates and join, gap by gap,
    each merge word of the gap's a's and c's with the letter each
    b-coordinate leaves, then sum the words' bits."""
    def cut(word, free):
        gaps, flags = [0], []
        for ch in word:
            if ch == free:
                gaps[-1] += 1
            else:
                flags.append(ch == "B")
                gaps.append(0)
        return gaps, flags

    meet = {(True, True): ("B",), (True, False): ("L",),
            (False, True): ("R",), (False, False): ("",)}
    bit = {o.label: 1 << k
           for k, o in enumerate(backend.product_decompose(a, c))}
    merges = {(p, q): line_words(backend, p, q)
              for p in range(a.degree + 1) for q in range(c.degree + 1)}
    cuts_bc = [cut(o.label, "R") for o in backend.product_decompose(b, c)]
    table = []
    for o in backend.product_decompose(a, b):
        gaps_a, flags_a = cut(o.label, "L")
        row = []
        for gaps_c, flags_c in cuts_bc:
            parts = [merges[gaps_a[0], gaps_c[0]]]
            for j, flags in enumerate(zip(flags_a, flags_c), 1):
                parts += [meet[flags], merges[gaps_a[j], gaps_c[j]]]
            row.append(sum(map(bit.__getitem__, map(
                "".join, itertools.product(*parts)))))
        table.append(tuple(row))
    return tuple(table)


@pytest.mark.parametrize("degrees", [(4, 4, 4), (4, 2, 3), (1, 4, 4)],
                         ids=["444", "423", "144"])
def test_line_triple_table_matches_word_products(degrees):
    """At degree 4, where the walk test does not reach, the table built
    from per-part masks equals the one that forms every a x c word."""
    backend = LineBackend()
    a, b, c = map(backend.atom_of_arity, degrees)
    assert triple_table(backend, a, b, c) == reference_line_triple_table(
        backend, a, b, c)


def per_entry_sym_triple_table(backend, a, b, c):
    """The sym triple table with a fresh sum per position: the forced pairs
    of an a x b and a b x c matching through b, plus each partial matching
    of the a's and c's matched to no b, as sums of pair bits."""
    width = c.degree

    def pairs_bit(pairs):
        return sum(1 << (i - 1) * width + k - 1 for i, k in pairs)

    bit = {pairs_bit(_parse_matching(o.label)): 1 << k
           for k, o in enumerate(backend.product_decompose(a, c))}
    rows_bc = []
    for o in backend.product_decompose(b, c):
        b_to_c = dict(_parse_matching(o.label))
        rows_bc.append((b_to_c, tuple(k for k in range(1, width + 1)
                                      if k not in b_to_c.values())))
    table = []
    for o in backend.product_decompose(a, b):
        a_to_b = dict(_parse_matching(o.label))
        free_a = tuple(i for i in range(1, a.degree + 1) if i not in a_to_b)
        row = []
        for b_to_c, free_c in rows_bc:
            forced = pairs_bit((i, b_to_c[j]) for i, j in a_to_b.items()
                               if j in b_to_c)
            extras = [pairs_bit((free_a[u - 1], free_c[v - 1])
                                for u, v in _parse_matching(m.label))
                      for m in backend.product_decompose(
                          backend.atom_of_arity(len(free_a)),
                          backend.atom_of_arity(len(free_c)))]
            row.append(sum(bit[forced + e] for e in extras))
        table.append(tuple(row))
    return tuple(table)


def test_sym_triple_table_matches_per_entry_sums():
    """The keyed sym table equals a fresh sum per position on every atom
    triple within degree 4, equal atoms or not."""
    backend, reference = SymBackend(), SymBackend()
    for a, b, c in itertools.product(backend.atoms_up_to(4), repeat=3):
        assert triple_table(backend, a, b, c) == per_entry_sym_triple_table(
            reference, a, b, c), (a, b, c)


def test_sym_triple_table_rows_share_one_int_per_key():
    """inj[4]^3 has 43,681 positions but 1,939 keys (forced pairs, free a's,
    free c's); its rows hold one int per key, not one per position."""
    backend = SymBackend()
    x = backend.atom_of_arity(4)
    table = triple_table(backend, x, x, x)
    assert sum(map(len, table)) == 43_681
    assert len({id(entry) for row in table for entry in row}) <= 1_939


@pytest.mark.parametrize("make, tags", [
    (SymBackend, {"atom", "factor"}),
    (LineBackend, {"atom", "factor"}),
    (lambda: preset_backend("S3"), {"hom", "act", "pairs"}),
], ids=["SymBackend", "LineBackend", "S3"])
def test_product_cache_dies_with_backend(make, tags):
    # the memo of product structure belongs to the instance, not the class,
    # and so do the interned atoms, the factorings, the finite hom sets,
    # the triple tables, the image tables matmul reads, the product
    # spaces linmat keeps in it and the Frobenius structures frob keeps
    def fill(backend):
        a = backend.atoms_up_to(2)[-1]
        assert backend.product_decompose(a, a)
        homs = backend.hom_atoms(a, backend.unit_atom())
        x = backend.object_of([a])
        assert tensor_space(backend, [x, x, x]).positions
        assert triple_table(backend, a, a, a)
        omega = backend.product_decompose(a, a)[-1]
        assert pair_images(backend, omega.proj1, a)
        assert build_frobenius(backend, x, RATIONAL).comult.entries
        return a, homs

    backend = make()
    a, homs = fill(backend)
    present = {key[0] for key in backend.cache}
    assert tags | {"product", "space", "triples", "images",
                   "frobenius"} <= present
    if "factor" in tags:
        assert backend.atoms_up_to(2)[-1] is a
    if "hom" in tags:
        assert isinstance(homs, tuple)
        assert backend.hom_atoms(a, backend.unit_atom()) is homs
    # a second backend builds its own entries, factorings included, and
    # shares none
    other = make()
    fill(other)
    shared = [key for key in backend.cache.keys() & other.cache.keys()
              if backend.cache[key] != ()]
    assert tags <= {key[0] for key in shared}
    for key in shared:
        assert other.cache[key] is not backend.cache[key], key
    ref = weakref.ref(backend)
    del backend, a, homs
    gc.collect()
    assert ref() is None


def enclosing_functions(tree):
    """Each node of a module's tree mapped to the name of its outermost
    enclosing function; module-level nodes are absent."""
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner.setdefault(node, func.name)
    return owner


def cache_accesses(path):
    """``(enclosing function, line)`` of every attribute ``cache`` a module
    names, ``functools.cache`` aside."""
    tree = ast.parse(path.read_text())
    owner = enclosing_functions(tree)
    return [(owner.get(node), node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "cache"
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "functools")]


def test_only_backend_memo_touches_the_cache():
    """``Backend._memo`` is the one reader and writer of ``backend.cache``,
    which ``Backend.__init__`` creates: no other module under
    ``src/oligoperm`` names an attribute ``cache``, and no other function
    of ``gset/base.py`` does."""
    package = Path(oligoperm.__file__).parent
    base = package / "gset" / "base.py"
    outside = {f"{path.relative_to(package)}:{line}"
               for path in package.rglob("*.py") if path != base
               for _func, line in cache_accesses(path)}
    assert outside == set()
    assert {func for func, _line in cache_accesses(base)} == {
        "__init__", "_memo"}


def test_only_triple_row_reads_pair_images():
    """Under ``src/oligoperm`` the name ``pair_images`` (defined, imported,
    called or read as an attribute) occurs only in its own definition and
    in ``triple_row``, the one walk of triple orbits, so a second walk of
    the image tables cannot come back."""
    package = Path(oligoperm.__file__).parent
    uses = set()
    for path in package.rglob("*.py"):
        tree = ast.parse(path.read_text())
        owner = enclosing_functions(tree)
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else getattr(node, "name", None))
            if name == "pair_images":
                uses.add((path.relative_to(package).as_posix(),
                          owner.get(node)))
    assert uses == {("gset/base.py", "pair_images"),
                    ("gset/base.py", "triple_row")}


def called_name(node):
    """The name a call node calls, as a plain or an attribute name."""
    func = node.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def test_only_product_images_walks_images():
    """Under ``src/oligoperm`` the backend hook ``_images`` is called only
    by ``product_images``, the one image walk, and no ``product_factor``
    call has a ``compose_maps`` call among its arguments, which would
    factor where a map sends an orbit by hand, so a second walk cannot come
    back."""
    package = Path(oligoperm.__file__).parent
    walks, hooks = set(), set()
    for path in package.rglob("*.py"):
        tree = ast.parse(path.read_text())
        owner = enclosing_functions(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            where = (path.relative_to(package).as_posix(), owner.get(node))
            if called_name(node) == "_images":
                hooks.add(where)
            if (called_name(node) == "product_factor"
                    and any(isinstance(inner, ast.Call)
                            and called_name(inner) == "compose_maps"
                            for arg in node.args for inner in ast.walk(arg))):
                walks.add(where)
    assert hooks == {("gset/base.py", "product_images")}
    assert walks == set()


@pytest.mark.parametrize("make, bound", [
    (SymBackend, 3),
    (LineBackend, 3),
    (lambda: preset_backend("S3"), 6),
], ids=["sym", "line", "S3"])
def test_an_atom_leg_is_its_identity_composed_with_nothing(make, bound,
                                                           monkeypatch):
    """``product_images`` with an atom in place of a map, on either side,
    equals it with that atom's identity map, for every atom map and atom
    within the bound; ``1 x 1`` sends each orbit to itself.  The walk reads
    the orbits' selections through its legs and composes nothing, so
    neither a ``1 x 1`` walk nor a cold ``pair_images`` table of ``p x 1``
    builds an identity or composes a map, and a table images each of its
    orbits once (the walk composed p with each orbit's projection, one
    composition per orbit, before it read the selections)."""
    backend = make()
    atoms = backend.atoms_up_to(bound)
    maps = [m for a in atoms for b in atoms for m in backend.hom_atoms(a, b)]
    for f in maps:
        for c in atoms:
            one_c = backend.identity_map(c)
            assert (product_images(backend, c, f)
                    == product_images(backend, one_c, f))
            assert (product_images(backend, f, c)
                    == product_images(backend, f, one_c))
    backend = make()
    calls = []
    cls = type(backend)
    for name in ("identity_map", "compose_maps"):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *args, real=real, name=name:
                            calls.append(name) or real(self, *args))
    for a in atoms:
        for c in atoms:
            assert [label for label, _m in product_images(backend, a, c)] == [
                o.label for o in backend.product_decompose(a, c)]
    assert not calls
    imaged = count_imaged(monkeypatch, cls)
    rows = 0  # one image per orbit of a table's p x 1
    for a in atoms:
        for p in {omega.proj1 for omega in backend.product_decompose(a, a)}:
            rows += len(pair_images(backend, p, a))
    assert rows and len(imaged) == rows and not calls


@pytest.mark.parametrize("make, bound", [
    (SymBackend, 3),
    (LineBackend, 3),
    (lambda: preset_backend("S3"), 6),
], ids=["sym", "line", "S3"])
def test_cache_tags_are_documented(make, bound):
    """Every tag a suite leaves in ``backend.cache`` is named, as the head
    of a key tuple, in the module docstring that lists the cache's keys."""
    from oligoperm.gset import base
    from oligoperm.suite import run_suite

    backend = make()
    assert run_suite(backend, bound).passed
    tags = {key[0] for key in backend.cache}
    assert {"product", "images", "triples"} <= tags
    assert {tag for tag in tags if f'("{tag}",' not in base.__doc__} == set()


@pytest.mark.parametrize("backend", [SymBackend(), LineBackend()],
                         ids=["sym", "line"])
def test_product_factor_memo_matches_uncached(backend):
    # every joint map out of an atom of degree <= 3, factored cold and warm
    atoms = backend.atoms_up_to(3)
    pairs = 0
    for t in atoms:
        maps = [f for b in atoms for f in backend.hom_atoms(t, b)]
        for f, g in itertools.product(maps, repeat=2):
            expected = backend._factor(f, g)
            assert backend.product_factor(f, g) == expected
            assert backend.product_factor(f, g) == expected
            pairs += 1
    assert pairs == sum(1 for key in backend.cache if key[0] == "factor")


def reference_sym_factor(backend, f, g):
    """``SymBackend._factor`` by the n x m scan of coordinate pairs, kept as
    the reference for the position-dict version."""
    a, b = f.target, g.target
    matching = tuple(sorted(
        (i, j)
        for i in range(1, a.degree + 1)
        for j in range(1, b.degree + 1)
        if f.data[i - 1] == g.data[j - 1]))
    matched_right = {j for _, j in matching}
    unmatched_right = [j for j in range(1, b.degree + 1) if j not in matched_right]
    sel = tuple(f.data) + tuple(g.data[j - 1] for j in unmatched_right)
    orbit_atom = backend.atom_of_arity(a.degree + b.degree - len(matching))
    return _matching_label(matching), AtomMap(f.source, orbit_atom, sel)


def test_sym_factor_matches_pair_scan():
    # every pair of selections with a common source inj[k], k <= 4
    backend = SymBackend()
    pairs = 0
    for k in range(5):
        source = backend.atom_of_arity(k)
        maps = [f for m in range(k + 1)
                for f in backend.hom_atoms(source, backend.atom_of_arity(m))]
        for f, g in itertools.product(maps, repeat=2):
            assert backend._factor(f, g) == reference_sym_factor(backend, f, g)
            pairs += 1
    assert pairs == 1 + 2 ** 2 + 5 ** 2 + 16 ** 2 + 65 ** 2


@pytest.mark.parametrize("make", [SymBackend, LineBackend],
                         ids=["sym", "line"])
def test_product_factor_refuses_distinct_sources(make):
    # the memo key holds the source degree of the first map only, so the
    # source check must run before every lookup, warm or cold
    backend = make()
    f = backend.hom_atoms(backend.atom_of_arity(2), backend.atom_of_arity(1))[0]
    g = backend.hom_atoms(backend.atom_of_arity(3), backend.atom_of_arity(1))[0]
    assert f.data == g.data
    for _ in range(2):
        for left, right in [(f, g), (g, f)]:
            with pytest.raises(ValueError, match="common source"):
                backend.product_factor(left, right)
        backend.product_factor(f, f)
        backend.product_factor(g, g)


def test_sym_product_sizes_in_finite_model():
    # sum of orbit sizes in the [N] model equals |a| * |b|
    N = 6
    for n in range(3):
        for m in range(3):
            orbits = SYM.product_decompose(SYM.atom_of_arity(n), SYM.atom_of_arity(m))
            def model_size(k):
                return factorial(N) // factorial(N - k)
            assert sum(model_size(o.atom.degree) for o in orbits) == \
                model_size(n) * model_size(m)


def test_product_projections_compose():
    for backend, mk in [(SYM, SYM.atom_of_arity), (LINE, LINE.atom_of_arity)]:
        a, b = mk(2), mk(1)
        for orbit in backend.product_decompose(a, b):
            assert orbit.proj1.source == orbit.atom
            assert orbit.proj1.target == a
            assert orbit.proj2.target == b


def test_product_factor_round_trip():
    for backend, mk in [(SYM, SYM.atom_of_arity), (LINE, LINE.atom_of_arity)]:
        a, b, t = mk(1), mk(2), mk(3)
        for f in backend.hom_atoms(t, a):
            for g in backend.hom_atoms(t, b):
                label, h = backend.product_factor(f, g)
                orbit = {o.label: o for o in backend.product_decompose(a, b)}[label]
                assert backend.compose_maps(orbit.proj1, h) == f
                assert backend.compose_maps(orbit.proj2, h) == g


def test_finite_product_factor_round_trip(s3):
    atoms = s3.atoms_up_to(6)
    t = atoms[-1]
    for a in atoms[:3]:
        for b in atoms[:3]:
            for f in s3.hom_atoms(t, a):
                for g in s3.hom_atoms(t, b):
                    label, h = s3.product_factor(f, g)
                    orbit = {o.label: o for o in s3.product_decompose(a, b)}[label]
                    assert s3.compose_maps(orbit.proj1, h) == f
                    assert s3.compose_maps(orbit.proj2, h) == g


def _assert_swap_bijection(backend, atoms):
    """swap_label is a bijection from the orbits of a x b onto those of
    b x a and an involution, and it names the orbit that factoring the
    swapped projections finds, for every pair drawn from atoms."""
    for a in atoms:
        for b in atoms:
            bwd = {o.label for o in backend.product_decompose(b, a)}
            seen = set()
            for orbit in backend.product_decompose(a, b):
                label2 = backend.swap_label(a, b, orbit.label)
                assert label2 == backend.product_factor(orbit.proj2,
                                                        orbit.proj1)[0]
                assert backend.swap_label(b, a, label2) == orbit.label
                seen.add(label2)
            assert seen == bwd, (a, b)


def test_swap_bijection():
    """Every atom pair within degree 3 on sym and line."""
    for backend in (SYM, LINE):
        _assert_swap_bijection(backend, backend.atoms_up_to(3))


def test_finite_swap_bijection(s3):
    """Every S3 atom pair."""
    _assert_swap_bijection(s3, s3.atoms_up_to(6))


def test_s4_swap_bijection():
    """Every S4 atom pair: 11 atoms up to degree 24."""
    s4 = preset_backend("S4")
    _assert_swap_bijection(s4, s4.atoms_up_to(24))


def point_pairs(orbit):
    """The point pairs of an orbit of a x b, in the order of its atom's
    points."""
    return list(zip(orbit.proj1.data, orbit.proj2.data))


def reference_finite_factor(backend, f, g):
    """``product_factor`` by a scan of point pairs: the orbit of a x b whose
    pairs hold (f(p), g(p)) for the first point p, and per point p the index
    of that pair among the orbit's pairs."""
    for orbit in backend.product_decompose(f.target, g.target):
        pairs = point_pairs(orbit)
        if (f.data[0], g.data[0]) in pairs:
            return orbit.label, AtomMap(
                f.source, orbit.atom,
                tuple(pairs.index(pair) for pair in zip(f.data, g.data)))
    raise AssertionError("no orbit holds the pair")


@pytest.mark.parametrize("text", ["S3", "S4", "(1 2 3 4); (1 3)"],
                         ids=["S3", "S4", "D4"])
def test_finite_factor_and_swap_match_point_scan(text):
    """On every atom pair (a, b) within degree 6, ``product_factor`` of every
    pair of maps s -> a, s -> b from an atom s within degree 6 names the
    orbit and the points that the point-pair scan finds, and ``swap_label``
    names the orbit of b x a that holds each orbit's pairs swapped."""
    backend = preset_backend(text)
    atoms = backend.atoms_up_to(6)
    factored = 0
    for a, b in itertools.product(atoms, repeat=2):
        for s in atoms:
            for f, g in itertools.product(backend.hom_atoms(s, a),
                                          backend.hom_atoms(s, b)):
                assert (backend.product_factor(f, g)
                        == reference_finite_factor(backend, f, g))
                factored += 1
        swapped = {frozenset(point_pairs(o)): o.label
                   for o in backend.product_decompose(b, a)}
        for orbit in backend.product_decompose(a, b):
            pairs = frozenset((y, x) for x, y in point_pairs(orbit))
            assert backend.swap_label(a, b, orbit.label) == swapped[pairs]
    assert factored > len(atoms) ** 2


# Fiber products


def test_fiber_product_of_identity_is_diagonal():
    a = SYM.atom_of_arity(2)
    ident = SYM.identity_map(a)
    (orbit,) = agreeing_orbits(SYM, ident, ident)
    assert orbit.atom == a
    assert orbit.proj1 == orbit.proj2


def test_fiber_product_over_point_is_product():
    a = SYM.atom_of_arity(1)
    (f,) = SYM.hom_atoms(a, SYM.unit_atom())
    orbits = agreeing_orbits(SYM, f, f)
    assert sorted(o.atom.degree for o in orbits) == [1, 2]


def test_kernel_pair_of_selection():
    a2, a1 = SYM.atom_of_arity(2), SYM.atom_of_arity(1)
    select_first = SYM.hom_atoms(a2, a1)[0]
    orbits = agreeing_orbits(SYM, select_first, select_first)
    assert sorted(o.atom.degree for o in orbits) == [2, 3]


def composed_images(backend, f, g):
    """``product_images`` of f and g by composing: per orbit o of their
    sources' product, ``product_factor`` of ``f o o.proj1`` and
    ``g o o.proj2``, an atom leg standing for the orbit's projection."""
    a = f if isinstance(f, Atom) else f.source
    b = g if isinstance(g, Atom) else g.source
    return tuple(
        backend.product_factor(
            o.proj1 if f is a else backend.compose_maps(f, o.proj1),
            o.proj2 if g is b else backend.compose_maps(g, o.proj2))
        for o in backend.product_decompose(a, b))


@pytest.mark.parametrize("make, bound", [
    (SymBackend, 3),
    (LineBackend, 3),
    (lambda: preset_backend("S3"), 6),
    (lambda: preset_backend("(1 2 3 4); (1 3)"), 6),
], ids=["sym", "line", "S3", "D4"])
def test_images_match_composed_factorings(make, bound):
    """The backend's image walk ``_images``, which reads the orbits' own
    selections through its legs, equals composing each leg with the
    orbit's projection and factoring the pair, for every pair of legs
    within the bound: every atom map, and every atom standing for its
    identity (passed as None).  The reference runs on a second backend,
    so no ``("factor", ...)`` entry it fills is read."""
    backend, reference = make(), make()
    atoms = backend.atoms_up_to(bound)
    legs = atoms + [m for a in atoms for b in atoms
                    for m in backend.hom_atoms(a, b)]
    imaged = 0
    for f, g in itertools.product(legs, repeat=2):
        a = f if isinstance(f, Atom) else f.source
        b = g if isinstance(g, Atom) else g.source
        got = backend._images(None if f is a else f, None if g is b else g,
                              backend.product_decompose(a, b))
        assert got == composed_images(reference, f, g), (f, g)
        imaged += len(got)
    assert imaged > len(legs) ** 2


@pytest.mark.parametrize("make, bound", [
    (SymBackend, 3),
    (LineBackend, 3),
    (lambda: preset_backend("S3"), 6),
    (lambda: preset_backend("S4"), 6),
], ids=["sym", "line", "S3", "S4"])
def test_agreeing_orbits_matches_compose_and_compare(make, bound):
    """For every cospan of atom maps within the bound, the agreeing orbits
    are the orbits of the product on which the two composites are equal, in
    product_decompose order, and the kernel pair of a map is its agreeing
    orbits with itself; maps into two different atoms agree nowhere.  The
    reference composes both legs and compares the maps, which
    ``backend._agree`` does on their data without composing."""
    backend = make()
    atoms = backend.atoms_up_to(bound)
    kept = total = 0
    for c in atoms:
        maps = [f for a in atoms for f in backend.hom_atoms(a, c)]
        for f, g in itertools.product(maps, maps):
            orbits = backend.product_decompose(f.source, g.source)
            want = [o for o in orbits
                    if backend.compose_maps(f, o.proj1)
                    == backend.compose_maps(g, o.proj2)]
            assert list(agreeing_orbits(backend, f, g)) == want
            if f == g:
                assert kernel_pair(backend, f) == tuple(want)
            kept += len(want)
            total += len(orbits)
    assert 0 < kept < total
    maps = [f for a in atoms for b in atoms for f in backend.hom_atoms(a, b)]
    for f, g in itertools.product(maps, maps):
        if f.target != g.target:
            assert not any(agreeing_orbits(backend, f, g))


@pytest.mark.parametrize("make, bound, composed, agreed", [
    (SymBackend, 3, 596, 1966),
    (LineBackend, 3, 748, 1513),
    (lambda: preset_backend("S4"), 6, 954, 431),
], ids=["sym", "line", "S4"])
def test_suite_compositions_stay_within_budget(make, bound, composed, agreed,
                                               monkeypatch):
    """A suite composes only the atom maps it reads.  Agreement on an orbit
    is tested on the maps' data by ``backend._agree`` (the pre-Galois
    fiber-product spans too), each map's kernel pair is built once per
    backend and read by the mono and effectivity checks and the gamma
    block, ``linmat.block_tensor`` composes nothing with an identity
    leg, and the image walk ``product_images`` reads the orbits'
    selections through its legs.  The counts are exact, so a change in
    either direction shows (building two composites per orbit to compare
    them made 9,895 sym, 10,675 line and 4,145 S4 compositions, and
    composing each leg of the image walk with the orbit's projection
    2,356 sym, 3,170 line and 1,835 S4)."""
    from oligoperm.gset import base
    from oligoperm.suite import run_suite

    backend = make()
    cls = type(backend)
    calls = {"compose_maps": 0, "_agree": 0}
    for name in calls:
        real = getattr(cls, name)

        def counted(self, *args, real=real, name=name):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(cls, name, counted)
    built = []
    real_build = base._kernel_pair
    monkeypatch.setattr(base, "_kernel_pair", lambda backend, f: (
        built.append(f) or real_build(backend, f)))
    assert run_suite(backend, bound).passed
    assert calls == {"compose_maps": composed, "_agree": agreed}
    # once per map, for every map between atoms within the bound
    maps = {f for a in backend.atoms_up_to(bound)
            for b in backend.atoms_up_to(bound)
            for f in backend.hom_atoms(a, b)}
    assert len(built) == len(set(built)) and set(built) == maps


# Elementary factorization


def test_sym_factorize_classes():
    a3, a1 = SYM.atom_of_arity(3), SYM.atom_of_arity(1)
    f = [m for m in SYM.hom_atoms(a3, a1) if m.data == (1,)][0]
    assert SYM.elementary_factorize(f) == ("omega-minus[2]", "omega-minus[1]")


def test_line_factorize_classes():
    a2, a1 = LINE.atom_of_arity(2), LINE.atom_of_arity(1)
    select_smaller = [m for m in LINE.hom_atoms(a2, a1) if m.data == (1,)][0]
    assert LINE.elementary_factorize(select_smaller) == ("ray",)

    a3 = LINE.atom_of_arity(3)
    drop_middle = [m for m in LINE.hom_atoms(a3, a2) if m.data == (1, 3)][0]
    assert LINE.elementary_factorize(drop_middle) == ("interval",)


def test_line_multiset_paths():
    a3, a1 = LINE.atom_of_arity(3), LINE.atom_of_arity(1)
    select_first = [m for m in LINE.hom_atoms(a3, a1) if m.data == (1,)][0]
    multisets = LINE.factorization_class_multisets(select_first)
    assert multisets == {("ray", "ray"), ("interval", "ray")}


def test_drop_classes_closed_form():
    # On line ray = interval = -1, so no measure value can tell the two
    # classes apart; the classes themselves are checked here, for every map
    # between atoms of degree at most 5.
    for n in range(6):
        for m in range(n + 1):
            sym_classes = tuple(f"omega-minus[{k}]" for k in range(n - 1, m - 1, -1))
            for f in SYM.hom_atoms(SYM.atom_of_arity(n), SYM.atom_of_arity(m)):
                assert SYM.elementary_factorize(f) == sym_classes
            for f in LINE.hom_atoms(LINE.atom_of_arity(n), LINE.atom_of_arity(m)):
                # the missing coordinates drop from the highest down; a drop
                # is a ray when it is coordinate 1 or no kept one lies above
                line_classes = tuple(
                    "ray" if p == 1 or p > max(f.data, default=0) else "interval"
                    for p in range(n, 0, -1) if p not in f.data)
                assert LINE.elementary_factorize(f) == line_classes
        if n:
            assert SYM.atom_chain_parent(SYM.atom_of_arity(n)) == (
                SYM.atom_of_arity(n - 1), f"omega-minus[{n - 1}]")
            assert LINE.atom_chain_parent(LINE.atom_of_arity(n)) == (
                LINE.atom_of_arity(n - 1), "ray")
    assert SYM.atom_chain_parent(SYM.unit_atom()) is None
    assert LINE.atom_chain_parent(LINE.unit_atom()) is None


def test_finite_factorize(s3):
    # every map between atoms of S3 and of S4: one drop whose fiber has
    # |a|/|b| points, none between atoms of equal degree
    for backend in (s3, preset_backend("S4")):
        atoms = backend.atoms_up_to(len(backend.elements))
        for a in atoms:
            for b in atoms:
                expected = (() if a.degree == b.degree
                            else (f"size[{a.degree // b.degree}]",))
                for f in backend.hom_atoms(a, b):
                    assert backend.elementary_factorize(f) == expected
            parent = backend.atom_chain_parent(a)
            if a == backend.unit_atom():
                assert parent is None
            else:
                assert parent == (backend.unit_atom(), f"size[{a.degree}]")


@pytest.mark.parametrize("group", ["S3", "C2x4", "S4", "(1 2)(3 4 5)"])
def test_atom_maps_are_onto(group):
    """An equivariant map onto a transitive atom is onto, so no backend
    keeps a surjectivity test for atom maps.  The reference is the finite
    backend's former one: the point images cover the target."""
    backend = preset_backend(group)
    atoms = backend.atoms_up_to(6)
    maps = [f for a in atoms for b in atoms for f in backend.hom_atoms(a, b)]
    assert maps
    for f in maps:
        assert len(set(f.data)) == f.target.degree, f
