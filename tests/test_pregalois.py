"""Axiom checker: the finite backend passes everything, the symmetric
fragment fails exactly effectivity with the coordinate-swap witness."""

import random
from functools import reduce
from operator import or_

import pytest

from oligoperm.gset import LINE, SYM, LineBackend, SymBackend, preset_backend
from oligoperm.gset import pregalois
from oligoperm.gset.pregalois import (
    _closure,
    _relation_masks,
    check_atom_cospans_nonempty,
    check_effective_relations,
    check_fiber_products,
    check_monos_are_isos,
    internal_equivalence_relations,
    pregalois_check,
    quotients_by_kernel,
)


@pytest.fixture(scope="module")
def sym_report():
    return pregalois_check(SYM, 3)


@pytest.fixture(scope="module")
def line_report():
    return pregalois_check(LINE, 3)


@pytest.fixture(scope="module")
def finite_report():
    return pregalois_check(preset_backend("S3"), 6)


def test_finite_passes_all(finite_report):
    assert finite_report.passed, [r.name for r in finite_report.failures()]


def test_sym_fails_exactly_effectivity(sym_report):
    failing = [r.name for r in sym_report.failures()]
    assert failing == ["h-effective-equivalence-relations"]


def test_sym_witness_is_swap_relation(sym_report):
    witness = sym_report.result("h-effective-equivalence-relations").witness
    assert witness["atom"] == "sym:inj[2]"
    assert witness["relation-orbits"] == "[1>1,2>2], [1>2,2>1]"


class TwoMapsToFinal(SymBackend):
    """The sym fragment with every map to the unit atom listed twice."""

    def hom_atoms(self, a, b):
        maps = super().hom_atoms(a, b)
        return maps + maps if b == self.unit_atom() else maps


def test_final_object_fails_on_first_atom():
    report = pregalois_check(TwoMapsToFinal(), 2)
    result = report.result("g-final-object-atomic")
    assert not result.passed
    assert result.witness == {"atom": "sym:inj[0]", "maps-to-final": "2",
                              "failing-atoms": "3"}


class MissingInverse(SymBackend):
    """The sym fragment without the 3-cycle (3, 1, 2) of inj[3], so that the
    mono (2, 3, 1) has no inverse among the listed maps."""

    def hom_atoms(self, a, b):
        return [m for m in super().hom_atoms(a, b) if m.data != (3, 1, 2)]


def test_monos_are_isos_fails_on_missing_inverse():
    backend = MissingInverse()
    result = check_monos_are_isos(backend, backend.atoms_up_to(3))
    assert not result.passed
    assert result.witness == {"map": "sym:inj[3] -> sym:inj[3] (2, 3, 1)",
                              "failing-maps": "1"}


class NoDiagonal(SymBackend):
    """The sym fragment with the diagonal orbit left out of every a x a."""

    def _decompose(self, a, b):
        return tuple(o for o in super()._decompose(a, b)
                     if o.proj1 != o.proj2)


def test_atom_cospans_fail_without_diagonal():
    # the fiber product of an automorphism with itself is the diagonal, so
    # each of the 1 + 1 + 2 + 6 automorphisms of inj[0..3] gives an empty
    # cospan, first the identity of the unit atom
    backend = NoDiagonal()
    result = check_atom_cospans_nonempty(backend, backend.atoms_up_to(3))
    assert not result.passed
    assert result.witness == {
        "cospan": "sym:inj[0] -> sym:inj[0] <- sym:inj[0]",
        "failing-cospans": "10"}


class FirstPointPairDropped(SymBackend):
    """The sym fragment without the first orbit of inj[1] x inj[1]."""

    def _decompose(self, a, b):
        orbits = super()._decompose(a, b)
        return orbits[1:] if a.degree == b.degree == 1 else orbits


def test_fiber_products_fail_on_missing_orbit():
    # the dropped orbit is the pairs of distinct points, so over the unit
    # atom the two spans out of inj[2] onto distinct points have no mediator
    backend = FirstPointPairDropped()
    result = check_fiber_products(backend, backend.atoms_up_to(3))
    assert not result.passed
    assert result.witness == {
        "cospan": "sym:inj[1] -> sym:inj[0] <- sym:inj[1]",
        "span-source": "sym:inj[2]",
        "mediators": "0",
        "failing-instances": "2"}


class DoubledEndomorphism(LineBackend):
    """The line fragment with the one map inc[2] -> inc[2] listed twice."""

    def hom_atoms(self, a, b):
        maps = super().hom_atoms(a, b)
        return maps + maps if a.degree == b.degree == 2 else maps


def test_fiber_products_fail_on_doubled_map():
    backend = DoubledEndomorphism()
    result = check_fiber_products(backend, backend.atoms_up_to(3))
    assert not result.passed
    assert result.witness == {
        "cospan": "line:inc[0] -> line:inc[0] <- line:inc[2]",
        "span-source": "line:inc[2]",
        "mediators": "2",
        "failing-instances": "50"}


def test_line_first_seven_axioms_pass(line_report):
    for r in line_report.results:
        if not r.name.startswith("h-"):
            assert r.passed, r.name


def test_sym_relations_on_pairs():
    x = SYM.atom_of_arity(2)
    relations = set(internal_equivalence_relations(SYM, x))
    assert frozenset({"[1>1,2>2]"}) in relations  # the diagonal
    assert frozenset({"[1>1,2>2]", "[1>2,2>1]"}) in relations  # same set
    assert frozenset({"[1>1]", "[1>1,2>2]"}) in relations  # equal first coord
    full = frozenset(o.label for o in SYM.product_decompose(x, x))
    assert full in relations


def test_sym_quotients():
    x = SYM.atom_of_arity(2)
    quotients = quotients_by_kernel(SYM, x)
    diag = frozenset({"[1>1,2>2]"})
    found = quotients.get(diag)
    assert found is not None and found[0].degree == 2  # the identity map

    same_first = frozenset({"[1>1,2>2]", "[1>1]"})
    found = quotients.get(same_first)
    assert found is not None and found[0].degree == 1

    swap = frozenset({"[1>1,2>2]", "[1>2,2>1]"})
    assert quotients.get(swap) is None


def test_finite_relations_all_effective():
    backend = preset_backend("S3")
    regular = backend.atoms_up_to(6)[-1]
    quotients = quotients_by_kernel(backend, regular)
    for relation in internal_equivalence_relations(backend, regular):
        assert quotients.get(relation) is not None


def test_finite_relation_count_matches_subgroups():
    # relations on the regular orbit = overgroups of the point stabilizer;
    # for the regular G-set that is all subgroups of S3
    backend = preset_backend("S3")
    regular = backend.atoms_up_to(6)[-1]
    assert len(internal_equivalence_relations(backend, regular)) == 6


def naive_relations(backend, x):
    """The equivalence relations on x by the naive fixpoint: every closure
    rescans the full list of marginal triples of X^3 until nothing changes."""
    table = []
    for omega in backend.product_decompose(x, x):
        for orbit in backend.product_decompose(omega.atom, x):
            to_first = backend.compose_maps(omega.proj1, orbit.proj1)
            to_second = backend.compose_maps(omega.proj2, orbit.proj1)
            l23, _ = backend.product_factor(to_second, orbit.proj2)
            l13, _ = backend.product_factor(to_first, orbit.proj2)
            table.append((omega.label, l23, l13))
    ident = backend.identity_map(x)
    diag, _ = backend.product_factor(ident, ident)
    orbits = backend.product_decompose(x, x)
    swap = {o.label: backend.swap_label(x, x, o.label) for o in orbits}

    def closure(labels):
        current = set(labels) | {diag}
        changed = True
        while changed:
            changed = False
            for lbl in list(current):
                if swap[lbl] not in current:
                    current.add(swap[lbl])
                    changed = True
            for l12, l23, l13 in table:
                if l12 in current and l23 in current and l13 not in current:
                    current.add(l13)
                    changed = True
        return frozenset(current)

    principal = {closure({o.label}) for o in orbits} | {closure(set())}
    relations = set(principal)
    frontier = set(principal)
    while frontier:
        new = set()
        for r in frontier:
            for p in principal:
                joined = closure(r | p)
                if joined not in relations:
                    relations.add(joined)
                    new.add(joined)
        frontier = new
    return sorted(relations, key=lambda r: (len(r), sorted(r)))


DIFFERENTIAL_ATOMS = (
    [(f"sym-{n}", SymBackend, n) for n in range(4)]
    + [(f"line-{n}", LineBackend, n) for n in range(4)]
    + [(f"S3-{k}", lambda: preset_backend("S3"), k) for k in range(4)])


@pytest.mark.parametrize("make, k", [(m, k) for _, m, k in DIFFERENTIAL_ATOMS],
                         ids=[name for name, _, _ in DIFFERENTIAL_ATOMS])
def test_relations_match_naive_fixpoint(make, k):
    backend = make()
    x = backend.atoms_up_to(6)[k]
    assert internal_equivalence_relations(backend, x) == \
        naive_relations(backend, x)


def test_line_inc3_has_eight_relations():
    x = LINE.atom_of_arity(3)
    assert len(internal_equivalence_relations(LINE, x)) == 8


def naive(mask, swap, table):
    """The least mask containing mask that is closed under swap and the
    composition table, by rescanning every pair of labels until nothing
    changes."""
    n = len(swap)
    while True:
        grown = mask
        for k in range(n):
            if mask >> k & 1:
                grown |= 1 << swap[k]
        for i in range(n):
            for j in range(n):
                if mask >> i & 1 and mask >> j & 1:
                    grown |= table[i][j]
        if grown == mask:
            return mask
        mask = grown


def random_swap(rng, n):
    """A random involution of range(n)."""
    perm = list(range(n))
    rng.shuffle(perm)
    swap = list(range(n))
    for a, b in zip(perm[::2], perm[1::2]):
        if rng.random() < 0.5:
            swap[a], swap[b] = b, a
    return swap


def test_closure_matches_naive_on_random_tables():
    # random composition tables on six labels, as dense rows whose entries
    # are mostly 0, with a random swap involution: the semi-naive closure of
    # a closed mask plus extra labels equals the naive fixpoint over every
    # pair of labels
    rng = random.Random(7)
    n = 6
    for _ in range(300):
        swap = random_swap(rng, n)
        table = tuple(tuple(1 << rng.randrange(n) if rng.random() < 0.15
                            else 0 for j in range(n)) for i in range(n))
        transpose = tuple(tuple(table[i][j] for i in range(n))
                          for j in range(n))
        closed = naive(rng.getrandbits(n) & rng.getrandbits(n), swap, table)
        extra = rng.getrandbits(n) & rng.getrandbits(n)
        assert _closure(closed, extra, swap, table, transpose) == \
            naive(closed | extra, swap, table)


def test_relation_masks_match_brute_force_on_random_tables():
    """On random composition tables of four to seven labels, with a random
    swap involution and a random seed label, ``_relation_masks`` returns
    exactly the masks containing the seed that are closed under swap and
    composition, found by testing every mask.  One draw in three makes the
    seed a swap-fixed identity of the composition, as the diagonal is, and
    plants labels a, b, c where c composes with itself to a and b and a
    with b composes to c, so the closure of c is often the join of those
    of a and b: such skipped generators must lose no relation."""
    rng = random.Random(11)
    reducible_draws = 0
    for draw in range(300):
        n = rng.randint(4, 7)
        swap = random_swap(rng, n)
        table = [[(1 << rng.randrange(n) if rng.random() < 0.15 else 0)
                  | (1 << rng.randrange(n) if rng.random() < 0.05 else 0)
                  for j in range(n)] for i in range(n)]
        d = rng.randrange(n)
        if draw % 3 == 0:
            d, a, b, c = rng.sample(range(n), 4)
            for k in range(n):
                table[d][k] = table[k][d] = 1 << k
            swap[swap[d]], swap[d] = swap[d], d
            table[c][c] |= 1 << a | 1 << b
            table[a][b] |= 1 << c
        transpose = tuple(tuple(table[i][j] for i in range(n))
                          for j in range(n))
        seed = 1 << d
        brute = {mask for mask in range(1 << n)
                 if mask & seed and naive(mask, swap, table) == mask}
        assert _relation_masks(seed, swap, table, transpose) == brute
        least = naive(seed, swap, table)
        principal = {naive(least | 1 << k, swap, table) for k in range(n)}
        reducible_draws += any(
            p == naive(reduce(or_, (q for q in principal | {least}
                                    if q != p and q & ~p == 0)),
                       swap, table)
            for p in principal - {least})
    assert reducible_draws >= 40, reducible_draws


def test_relation_counts_at_degree_four():
    """The closed forms of the relation lattice: sum over j of
    C(4, j) |Sub(S_j)| = 71 on sym:inj[4], and 2^4 on line:inc[4]."""
    assert len(internal_equivalence_relations(SYM, SYM.atom_of_arity(4))) \
        == 71
    assert len(internal_equivalence_relations(LINE, LINE.atom_of_arity(4))) \
        == 16


@pytest.mark.parametrize("make, bound, exact", [
    (LineBackend, 3, 54),
    (SymBackend, 3, 95),
    (LineBackend, 4, 248),
    (SymBackend, 4, 1224),
    (lambda: preset_backend("S3"), 6, 16),
    (lambda: preset_backend("S4"), 6, 24),
], ids=["line-3", "sym-3", "line-4", "sym-4", "S3-6", "S4-6"])
def test_relation_closures_stay_within_budget(make, bound, exact,
                                               monkeypatch):
    """Enumerating the relations of every atom within the bound closes each
    distinct set once: one principal closure per swap pair, joins with the
    join-irreducible principal closures only, and no union closed twice.
    The counts are exact, so a change in either direction shows (joining
    every frontier relation with every principal closure made 129 line-3,
    240 sym-3, 626 line-4, 3,850 sym-4, 33 S3-6 and 51 S4-6 calls)."""
    backend = make()
    calls = []

    def counting(*args):
        calls.append(args)
        return _closure(*args)

    monkeypatch.setattr(pregalois, "_closure", counting)
    for x in backend.atoms_up_to(bound):
        internal_equivalence_relations(backend, x)
    assert len(calls) == exact


def per_relation_quotient(backend, x, relation):
    """The reference search: a surjection whose kernel pair is the relation,
    found by computing the kernel pair of every surjection out of x."""
    orbits = backend.product_decompose(x, x)
    for q_atom in backend.atoms_up_to(x.degree):
        for q in backend.hom_atoms(x, q_atom):
            kernel = {
                o.label for o in orbits
                if backend.compose_maps(q, o.proj1)
                == backend.compose_maps(q, o.proj2)
            }
            if kernel == relation:
                return q_atom, q
    return None


@pytest.mark.parametrize("make, bound", [
    (SymBackend, 3),
    (LineBackend, 3),
    (lambda: preset_backend("S3"), 6),
    (lambda: preset_backend("S4"), 6),
], ids=["sym", "line", "S3", "S4"])
def test_effectivity_matches_per_relation_search(make, bound):
    """One kernel pair per surjection and atom gives the per-relation
    search's verdict, first witness, failure count, and first quotient."""
    backend = make()
    atoms = backend.atoms_up_to(bound)
    failing = []
    for x in atoms:
        quotients = quotients_by_kernel(backend, x)
        for relation in internal_equivalence_relations(backend, x):
            found = per_relation_quotient(backend, x, relation)
            assert quotients.get(relation) == found
            if found is None:
                failing.append((x, relation))
    result = check_effective_relations(backend, atoms)
    assert result.passed == (not failing)
    if failing:
        x, relation = failing[0]
        assert result.witness == {
            "atom": x.render(),
            "relation-orbits": ", ".join(sorted(relation)),
            "failing-relations": str(len(failing)),
        }
    else:
        assert result.witness == {}
