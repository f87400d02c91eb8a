"""Measure solving, evaluation and the axiom checker."""

import functools
import re
from fractions import Fraction
from math import factorial

import pytest

from oligoperm import linmat
from oligoperm.coeff import RATIONAL, Scalar, falling_factorial, one
from oligoperm.errors import UnknownAtom
from oligoperm.gset import LINE, SYM, atom_gmap, preset_backend
from oligoperm.measure import (
    Measure,
    check_measure_axioms,
    classify_measure,
    solve_measures,
)


@pytest.fixture(scope="module")
def sym_family():
    return solve_measures(SYM, 4)


@pytest.fixture(scope="module")
def line_family():
    return solve_measures(LINE, 4)


@pytest.fixture(scope="module")
def s3():
    return preset_backend("S3")


@pytest.fixture(scope="module")
def s3_measure(s3):
    return solve_measures(s3, 6).generic()


def count_injective_tuples(n_points, arity):
    return factorial(n_points) // factorial(n_points - arity)


def test_sym_family_is_falling_factorials(sym_family):
    assert sym_family.parameters == ("t",)
    assert sym_family.residual == ()
    t = Scalar.variable(sym_family.field)
    for n in range(5):
        atom = SYM.atom_of_arity(n)
        assert sym_family.atom_values[atom] == falling_factorial(sym_family.field, t, n)


def test_sym_family_counting_oracle(sym_family):
    # specializing the parameter to N recovers counting in the N-point model
    for n_points in (5, 7):
        measure = sym_family.specialize(n_points)
        for arity in range(5):
            expected = Fraction(count_injective_tuples(n_points, arity))
            got = measure.mu_atom(SYM.atom_of_arity(arity))
            assert got == Scalar.from_fraction(RATIONAL, expected)


def test_line_unique_measure(line_family):
    assert line_family.parameters == ()
    assert line_family.residual == ()
    for n in range(5):
        value = line_family.atom_values[LINE.atom_of_arity(n)]
        assert value == Scalar.from_int(line_family.field, (-1) ** n)
    assert line_family.fiber_values["ray"] == Scalar.from_int(line_family.field, -1)
    assert line_family.fiber_values["interval"] == Scalar.from_int(line_family.field, -1)


def test_line_hand_oracle_equations(line_family):
    # the three point-cut decompositions, checked by hand:
    #   line = ray . point . ray, ray = ray . point . interval,
    #   interval = interval . point . interval
    m = line_family.atom_values[LINE.atom_of_arity(1)]
    r = line_family.fiber_values["ray"]
    i = line_family.fiber_values["interval"]
    unit = one(line_family.field)
    assert m == r + r + unit
    assert r == r + i + unit
    assert i == i + i + unit


def test_finite_measure_is_counting(s3, s3_measure):
    family = solve_measures(s3, 6)
    assert family.parameters == ()
    assert family.residual == ()
    for atom in s3.atoms_up_to(6):
        assert s3_measure.mu_atom(atom) == Scalar.from_int(s3_measure.field, atom.degree)


def test_mu_object_examples(sym_family, line_family):
    mu_t = sym_family.generic()
    t = Scalar.variable(sym_family.field)
    assert mu_t.mu_atom(SYM.atom_of_arity(2)) == t * (t - 1)
    two_points = SYM.object_of([SYM.atom_of_arity(1), SYM.atom_of_arity(1)])
    assert mu_t.mu_object(two_points) == 2 * t

    mu_line = line_family.generic()
    assert mu_line.mu_atom(LINE.atom_of_arity(2)) == one(line_family.field)


def test_mu_map_examples(sym_family, line_family):
    mu_t = sym_family.generic()
    t = Scalar.variable(sym_family.field)
    a2, a1 = SYM.atom_of_arity(2), SYM.atom_of_arity(1)
    select_first = [m for m in SYM.hom_atoms(a2, a1) if m.data == (1,)][0]
    assert mu_t.mu_map(select_first) == t - 1
    assert mu_t.mu_map(SYM.identity_map(a2)) == one(sym_family.field)

    mu_line = line_family.generic()
    b3, b2 = LINE.atom_of_arity(3), LINE.atom_of_arity(2)
    drop_middle = [m for m in LINE.hom_atoms(b3, b2) if m.data == (1, 3)][0]
    assert mu_line.mu_map(drop_middle) == Scalar.from_int(line_family.field, -1)


def test_mu_map_chain_rule(sym_family):
    mu_t = sym_family.generic()
    a3, a2, a1 = (SYM.atom_of_arity(k) for k in (3, 2, 1))
    for f in SYM.hom_atoms(a3, a2):
        for g in SYM.hom_atoms(a2, a1):
            composite = SYM.compose_maps(g, f)
            assert mu_t.mu_map(composite) == mu_t.mu_map(f) * mu_t.mu_map(g)


def test_axioms_pass(sym_family, line_family, s3, s3_measure):
    assert check_measure_axioms(sym_family.generic(), 4).passed
    assert check_measure_axioms(line_family.generic(), 4).passed
    assert check_measure_axioms(s3_measure, 6).passed


def test_axioms_pass_after_specialization(sym_family):
    assert check_measure_axioms(sym_family.specialize(7), 4).passed


def test_perturbed_measure_fails_with_product_witness(sym_family):
    mu_t = sym_family.generic()
    delta = one(sym_family.field)
    mutant = mu_t.with_perturbed_atom(SYM.atom_of_arity(2), delta)
    report = check_measure_axioms(mutant, 3)
    assert not report.passed
    failures = [r for r in report.results
                if not r.passed and r.name.startswith("product")]
    witness = failures[0].witness
    t = Scalar.variable(sym_family.field)
    assert witness["pair"] == "sym:inj[1] x sym:inj[1]"
    assert witness["lhs"] == (t * t).render()
    assert witness["rhs"] == (t + t * (t - 1) + 1).render()


def test_counting_measure_passes_for_c2_on_four_points():
    backend = preset_backend("C2x4")
    family = solve_measures(backend, 4)
    assert family.parameters == ()
    assert check_measure_axioms(family.generic(), 4).passed


def test_classification(sym_family, line_family):
    assert classify_measure(sym_family.generic(), 3) == {
        "regular": True, "normal_within_bound": True}
    at_two = sym_family.specialize(2)
    assert classify_measure(at_two, 4) == {
        "regular": False, "normal_within_bound": False}
    assert classify_measure(line_family.generic(), 3) == {
        "regular": True, "normal_within_bound": True}


@functools.cache
def every_surjection_probes(backend, bound):
    """The unreduced probe set: ``id_W x f`` as a full ``product_gmap`` for
    every surjective atom map f, not only the single drops."""
    atoms = backend.atoms_up_to(bound)
    probes = []
    for a in atoms:
        for b in atoms:
            for f in backend.hom_atoms(a, b):
                if not backend.is_surjective_map(f):
                    continue
                for w in atoms:
                    x = backend.object_of([w])
                    src = linmat.tensor_space(backend, [x, backend.object_of([a])])
                    tgt = linmat.tensor_space(backend, [x, backend.object_of([b])])
                    probes.append(linmat.product_gmap(
                        backend, backend.identity_gmap(x), atom_gmap(backend, f),
                        src, tgt))
    return tuple(probes)


def reference_classification(measure, bound):
    """``classify_measure`` by its definition: a pushforward is onto when
    every target orbit is hit by a leg of nonzero fiber measure."""
    atoms = measure.backend.atoms_up_to(bound)
    normal = all(
        len({j for j, m in gmap.legs if not measure.mu_map(m).is_zero()})
        == len(gmap.target.atoms)
        for gmap in every_surjection_probes(measure.backend, bound))
    return {"regular": all(not measure.mu_atom(a).is_zero() for a in atoms),
            "normal_within_bound": normal}


PERTURBED = ("sym-generic", "line-generic", "S3")


@pytest.fixture(scope="module")
def verdict_cases(sym_family, line_family, s3_measure):
    cases = {"sym-generic": (sym_family.generic(), 4)}
    for t in (0, 1, 2, 3, 5):
        cases[f"sym-t{t}"] = (sym_family.specialize(t), 4)
    cases["line-generic"] = (line_family.generic(), 4)
    cases["S3"] = (s3_measure, 6)
    for group in ("S4", "C2x4"):
        cases[group] = (solve_measures(preset_backend(group), 6).generic(), 6)
    for name in PERTURBED:
        measure, bound = cases[name]
        backend = measure.backend
        atoms = [a for a in backend.atoms_up_to(bound) if a != backend.unit_atom()]
        for k, a in enumerate(atoms[:3], start=1):
            cases[f"{name}+1@{k}"] = (
                measure.with_perturbed_atom(a, one(measure.field)), bound)
            cases[f"{name}-mu@{k}"] = (
                measure.with_perturbed_atom(a, -measure.mu_atom(a)), bound)
    return cases


# case -> normal_within_bound, so both answers are pinned
VERDICT_CASES = {
    "sym-generic": True, "sym-t0": False, "sym-t1": False, "sym-t2": False,
    "sym-t3": False, "sym-t5": True, "line-generic": True,
    "S3": True, "S4": True, "C2x4": True,
    "sym-generic+1@1": True, "sym-generic-mu@1": False,
    "sym-generic+1@2": True, "sym-generic-mu@2": False,
    "sym-generic+1@3": True, "sym-generic-mu@3": False,
    "line-generic+1@1": False, "line-generic-mu@1": False,
    "line-generic+1@2": True, "line-generic-mu@2": False,
    "line-generic+1@3": False, "line-generic-mu@3": False,
    "S3+1@1": True, "S3-mu@1": False, "S3+1@2": True, "S3-mu@2": False,
    "S3+1@3": True, "S3-mu@3": False,
}


@pytest.mark.parametrize("name", list(VERDICT_CASES))
def test_single_drop_classification_matches_every_surjection(name, verdict_cases):
    measure, bound = verdict_cases[name]
    got = classify_measure(measure, bound)
    assert got == reference_classification(measure, bound)
    assert got["normal_within_bound"] is VERDICT_CASES[name]


def test_classification_work_is_bounded(sym_family, monkeypatch):
    # 33 single drops inj[n] -> inj[n-1] for n <= 4, times 5 atoms W, and the
    # zero test once per fiber-class tuple of a probe
    measure = sym_family.specialize(2)
    probes = 0
    mu_map_calls = 0
    surjective = linmat.pushforward_surjective_on_invariants
    mu_map = Measure.mu_map

    def counted_probe(measure, gmap):
        nonlocal probes
        probes += 1
        return surjective(measure, gmap)

    def counted_mu_map(self, f):
        nonlocal mu_map_calls
        mu_map_calls += 1
        return mu_map(self, f)

    def no_product_gmap(*args):
        raise AssertionError("classify_measure built a product_gmap")

    monkeypatch.setattr(linmat, "pushforward_surjective_on_invariants", counted_probe)
    monkeypatch.setattr(linmat, "product_gmap", no_product_gmap)
    monkeypatch.setattr(Measure, "mu_map", counted_mu_map)
    assert classify_measure(measure, 4) == {
        "regular": False, "normal_within_bound": False}
    assert probes == 165
    assert mu_map_calls <= 1000


def test_classify_raises_on_missing_top_fiber_class(sym_family):
    # atom values are complete, so only a leg of degree 2 * bound, the
    # disjoint orbit of W x a with W = a = inj[bound], reaches the top class
    bound = 4
    top = 2 * bound - 1

    def fibers_through(last):
        classes = [f"omega-minus[{c}]" for c in range(last + 1)]
        fibers = {c: sym_family.fiber_values[c] for c in classes}
        return Measure(SYM, sym_family.field, dict(sym_family.atom_values), fibers)

    with pytest.raises(UnknownAtom, match=re.escape(f"omega-minus[{top}]")):
        classify_measure(fibers_through(top - 1), bound)
    assert classify_measure(fibers_through(top), bound) == {
        "regular": True, "normal_within_bound": True}


def test_inconsistent_system_raises():
    # a backend whose point-cut relations force 0 = 1 has no measure
    from oligoperm.errors import InconsistentSystem
    from oligoperm.gset.base import Backend, LinearRelation

    class Contradictory(Backend):
        backend_id = "bad"

        def fiber_classes(self, depth):
            return ["c"]

        def fiber_decompositions(self, depth):
            return [LinearRelation("c", (("c", 1),), 1)]

    with pytest.raises(InconsistentSystem):
        solve_measures(Contradictory(), 2)


def test_two_free_classes_raise():
    # without point-cut relations both line classes are free; a family has
    # one parameter, so that is an inconsistent system, not a family in t, u
    from oligoperm.errors import InconsistentSystem
    from oligoperm.gset import LineBackend

    class Unconstrained(LineBackend):
        def fiber_decompositions(self, depth):
            return []

    with pytest.raises(InconsistentSystem, match="ray, interval"):
        solve_measures(Unconstrained(), 3)


def test_unknown_atom_extension(sym_family):
    # lazy chain extension fills atoms beyond the solved table, and reports
    # UNKNOWN_ATOM when the fiber table runs out
    mu_t = sym_family.generic()
    deep = SYM.atom_of_arity(8)
    value = mu_t.mu_atom(deep)
    t = Scalar.variable(sym_family.field)
    assert value == falling_factorial(sym_family.field, t, 8)

    small = Measure(SYM, sym_family.field,
                    {}, {"omega-minus[0]": t})
    with pytest.raises(UnknownAtom):
        small.mu_atom(SYM.atom_of_arity(3))
