"""Measure solving, evaluation and the axiom checker."""

import functools
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oligoperm
from oligoperm import linmat
from oligoperm.coeff import RATIONAL, Scalar, falling_factorial, one, zero
from oligoperm.errors import InconsistentSystem, UnknownAtom
from oligoperm.gset import LINE, SYM, atom_gmap, preset_backend
from oligoperm.gset.base import LinearRelation
from oligoperm.report import CheckResult
from oligoperm.measure import (
    PARAMETER,
    SOLVE_DEPTH_FACTOR,
    Measure,
    _identity_results,
    _solve_linear,
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
    assert witness["orbits"] == "[], [1>1]"


def test_normalization_witness_gives_both_sides(sym_family):
    """mu(1) shifted by one: the normalization FAIL gives both scalars."""
    mutant = sym_family.generic().with_perturbed_atom(
        SYM.unit_atom(), one(sym_family.field))
    result = check_measure_axioms(mutant, 1).result("normalization")
    assert not result.passed
    assert result.witness == {"lhs": "2", "rhs": "1"}


# the multiplicativity witnesses of the line bound-3 measure with inc[2]
# perturbed by +1, as JSON: inc[3] -> inc[1] (1,) has two drop orders of
# different fiber measure
PERTURBED_LINE_WITNESSES = """
import json
from oligoperm.coeff import one
from oligoperm.gset import LINE
from oligoperm.measure import check_measure_axioms, solve_measures
measure = solve_measures(LINE, 3).generic()
mutant = measure.with_perturbed_atom(LINE.atom_of_arity(2), one(measure.field))
report = check_measure_axioms(mutant, 3)
print(json.dumps([r.to_dict() for r in report.results
                  if r.name.startswith("multiplicativity")]))
"""


def test_multiplicativity_witness_does_not_depend_on_hash_seed():
    src = str(Path(oligoperm.__file__).resolve().parent.parent)
    outputs = []
    for seed in (1, 2, 3):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", PERTURBED_LINE_WITNESSES],
                              env=env, capture_output=True, timeout=120,
                              check=True)
        outputs.append(proc.stdout)
    assert b'"mu_map"' in outputs[0]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_counting_measure_passes_for_c2_on_four_points():
    backend = preset_backend("C2x4")
    family = solve_measures(backend, 4)
    assert family.parameters == ()
    assert check_measure_axioms(family.generic(), 4).passed


def reference_identity_results(measure, bound):
    """``_identity_results`` evaluating every identity afresh: one product
    identity per ordered atom pair and one multiplicativity identity per
    atom map, each multiplied out on its own."""
    backend = measure.backend
    atoms = backend.atoms_up_to(bound)
    results = []
    for a in atoms:
        for b in atoms:
            lhs = measure.mu_atom(a) * measure.mu_atom(b)
            orbits = backend.product_decompose(a, b)
            rhs = zero(measure.field)
            for atom, n in Counter(o.atom for o in orbits).items():
                rhs = rhs + measure.mu_atom(atom) * n
            ok = lhs == rhs
            witness = {}
            if not ok:
                diff = lhs - rhs
                witness = {
                    "pair": f"{a.render()} x {b.render()}",
                    "lhs": lhs.render(),
                    "rhs": rhs.render(),
                    "orbits": ", ".join(o.label for o in orbits),
                    "identity": f"{lhs.render()} = {rhs.render()}",
                    "constant_failure": "yes" if diff.is_constant() else "no",
                }
            results.append(CheckResult(f"product[{a.label}*{b.label}]", ok, witness))
    for a in atoms:
        for b in atoms:
            for f in backend.hom_atoms(a, b):
                values = set()
                for multiset in backend.factorization_class_multisets(f):
                    v = one(measure.field)
                    for cls in multiset:
                        v = v * measure.fiber_value(cls)
                    values.add(v)
                ok = len(values) == 1
                v = values.pop() if ok else measure.mu_map(f)
                chain_ok = measure.mu_atom(a) == v * measure.mu_atom(b)
                witness = {}
                if not (ok and chain_ok):
                    witness = {
                        "map": f"{a.render()} -> {b.render()} {f.data}",
                        "identity": f"mu({a.label}) = mu(f) * mu({b.label})",
                        "mu_map": v.render(),
                        "mu_source": measure.mu_atom(a).render(),
                        "mu_target": measure.mu_atom(b).render(),
                    }
                results.append(
                    CheckResult(f"multiplicativity[{a.label}->{b.label}:{f.data}]",
                                ok and chain_ok, witness))
    return results


def assert_same_identity_results(measure, bound):
    got = _identity_results(measure, bound)
    want = reference_identity_results(measure, bound)
    assert [tuple(r) for r in got] == [tuple(r) for r in want]
    return got


def test_identity_results_match_one_evaluation_per_identity(
        sym_family, line_family, s3_measure):
    assert_same_identity_results(sym_family.generic(), 4)
    assert_same_identity_results(line_family.generic(), 4)
    for t in range(6):
        assert_same_identity_results(sym_family.specialize(t), 4)
    assert_same_identity_results(s3_measure, 6)
    s4 = solve_measures(preset_backend("S4"), 6).generic()
    assert_same_identity_results(s4, 6)


def test_identity_results_match_on_perturbed_measures(verdict_cases):
    failing = 0
    for name, (measure, bound) in verdict_cases.items():
        if "@" in name:
            got = assert_same_identity_results(measure, bound)
            failing += not all(r.passed for r in got)
    # every perturbed measure fails some identity, so witnesses are compared
    assert failing == 3 * 2 * len(PERTURBED)


@pytest.mark.parametrize("atoms_given", [True, False])
def test_identity_results_raise_on_the_same_missing_fiber_class(
        sym_family, atoms_given):
    # with the atom values given, the maps of inj[4] reach omega-minus[3];
    # without, the product inj[4] x inj[4] extends atoms to inj[8], which
    # reaches omega-minus[7]; the table stops one class short of either
    bound = 4
    top = bound - 1 if atoms_given else 2 * bound - 1
    fibers = {f"omega-minus[{c}]": sym_family.fiber_values[f"omega-minus[{c}]"]
              for c in range(top)}
    raised = []
    for identities in (_identity_results, reference_identity_results):
        atom_values = dict(sym_family.atom_values) if atoms_given else {}
        measure = Measure(SYM, sym_family.field, atom_values, fibers)
        with pytest.raises(UnknownAtom) as info:
            identities(measure, bound)
        raised.append(str(info.value))
    assert raised[0] == raised[1] == f"no fiber value for omega-minus[{top}]"


@pytest.mark.parametrize("name, bound, muls, adds", [
    ("sym", 4, 85, 35), ("sym-t2", 4, 85, 35), ("line", 4, 94, 35),
    ("S4", 6, 84, 35)])
def test_identity_arithmetic_stays_within_budget(
        name, bound, muls, adds, sym_family, line_family, monkeypatch):
    """``Scalar.__mul__`` and ``__add__`` calls in one ``_identity_results``
    run.  Evaluating every identity afresh took, in the same order of
    cases, 253, 253, 197 and 149 multiplications and 55, 55, 55 and 59
    additions: ``sym`` at bound 4 checks 89 maps but 15 distinct
    multiplicativity identities, and the product identities of ``(a, b)``
    and ``(b, a)`` are one."""
    measure = {
        "sym": lambda: sym_family.generic(),
        "sym-t2": lambda: sym_family.specialize(2),
        "line": lambda: line_family.generic(),
        "S4": lambda: solve_measures(preset_backend("S4"), bound).generic(),
    }[name]()
    calls = Counter()
    mul, add = Scalar.__mul__, Scalar.__add__

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_add(self, other):
        calls["add"] += 1
        return add(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted_mul)
    monkeypatch.setattr(Scalar, "__add__", counted_add)
    assert all(r.passed for r in _identity_results(measure, bound))
    assert (calls["mul"], calls["add"]) == (muls, adds)


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
    # the 33 single drops inj[n] -> inj[n-1] for n <= 4 form 4 classes under
    # the automorphisms of inj[n]: one probe per class and atom W (5 of them),
    # and the zero test once per fiber-class tuple of a probe
    measure = sym_family.specialize(2)
    probes = 0
    mu_map_calls = 0
    surjective = linmat.pushforward_surjective_on_invariants
    mu_map = Measure.mu_map

    def counted_probe(measure, legs, targets):
        nonlocal probes
        probes += 1
        return surjective(measure, legs, targets)

    def counted_mu_map(self, f):
        nonlocal mu_map_calls
        mu_map_calls += 1
        return mu_map(self, f)

    def no_product_gmap(*args):
        raise AssertionError("classify_measure built a product_gmap")

    def no_tensor_space(*args):
        raise AssertionError("classify_measure built a product space")

    monkeypatch.setattr(linmat, "pushforward_surjective_on_invariants", counted_probe)
    monkeypatch.setattr(linmat, "product_gmap", no_product_gmap)
    monkeypatch.setattr(linmat, "tensor_space", no_tensor_space)
    monkeypatch.setattr(Measure, "mu_map", counted_mu_map)
    assert classify_measure(measure, 4) == {
        "regular": False, "normal_within_bound": False}
    assert probes == 20
    assert mu_map_calls <= 56


@pytest.mark.parametrize("name, bound", [
    ("sym", 4), ("line", 4), ("S3", 6), ("C2x4", 6), ("S4", 6)])
def test_endomorphisms_of_an_atom_are_automorphisms_keeping_fiber_classes(
        name, bound):
    # the premise of probing one single drop per automorphism class: every
    # map a -> a is invertible among them, and precomposing any map a -> b
    # (every single drop among them) with one keeps its fiber classes, so
    # mu_map is unchanged for every measure, perturbed ones included
    backend = {"sym": SYM, "line": LINE}.get(name) or preset_backend(name)
    atoms = backend.atoms_up_to(bound)
    single_drops = 0
    for a in atoms:
        automorphisms = backend.hom_atoms(a, a)
        identity = backend.identity_map(a)
        for s in automorphisms:
            assert any(backend.compose_maps(s, u) == identity
                       and backend.compose_maps(u, s) == identity
                       for u in automorphisms)
        for b in atoms:
            for f in backend.hom_atoms(a, b):
                classes = sorted(backend.elementary_factorize(f))
                single_drops += len(classes) == 1
                for s in automorphisms:
                    assert sorted(backend.elementary_factorize(
                        backend.compose_maps(f, s))) == classes
    assert single_drops > 0


def test_bound_five_classification(monkeypatch):
    sym = solve_measures(SYM, 5)
    probes = 0
    surjective = linmat.pushforward_surjective_on_invariants

    def counted_probe(measure, legs, targets):
        nonlocal probes
        probes += 1
        return surjective(measure, legs, targets)

    monkeypatch.setattr(linmat, "pushforward_surjective_on_invariants", counted_probe)
    assert classify_measure(sym.generic(), 5) == {
        "regular": True, "normal_within_bound": True}
    # 5 classes of single drops inj[n] -> inj[n-1], times 6 atoms W
    assert probes == 30
    # t - 4 vanishes on the drop inj[5] -> inj[4]
    assert classify_measure(sym.specialize(4), 5) == {
        "regular": False, "normal_within_bound": False}
    assert classify_measure(solve_measures(LINE, 5).generic(), 5) == {
        "regular": True, "normal_within_bound": True}


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


def dense_solve_linear(classes, relations):
    """The solver by dense Gaussian elimination to reduced row echelon form,
    kept as the reference for the sparse ``_solve_linear``."""
    cols = list(reversed(classes))
    col_index = {c: i for i, c in enumerate(cols)}
    rows = []
    for rel in relations:
        row = [Fraction(0)] * (len(cols) + 1)
        row[col_index[rel.lhs]] += 1
        for cls, coeff in rel.terms:
            row[col_index[cls]] -= coeff
        row[-1] = Fraction(rel.const)
        rows.append(row)
    pivot_of_col = {}
    r = 0
    for c in range(len(cols)):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y if y else x
                           for x, y in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if all(x == 0 for x in rows[i][:-1]) and rows[i][-1] != 0:
            raise InconsistentSystem("point-cut relations have no solution")
    free_cols = [c for c in range(len(cols)) if c not in pivot_of_col]
    if len(free_cols) > 1:
        names = ", ".join(cols[c] for c in reversed(free_cols))
        raise InconsistentSystem(
            f"classes {names} are all free; a measure family has one parameter")
    values = {}
    for c, cls in enumerate(cols):
        if c in pivot_of_col:
            row = rows[pivot_of_col[c]]
            values[cls] = {None: row[-1]}
            if free_cols and row[free_cols[0]] != 0:
                values[cls][PARAMETER] = -row[free_cols[0]]
        else:
            values[cls] = {PARAMETER: Fraction(1), None: Fraction(0)}
    return [PARAMETER] if free_cols else [], values


def assert_same_solution(classes, relations):
    """The solver's Scalars over Q equal the reference's Fractions, with the
    classes and each value's keys in the same order."""
    params, values = _solve_linear(classes, relations)
    want_params, want_values = dense_solve_linear(classes, relations)
    assert params == want_params
    assert ([(cls, list(expr.items())) for cls, expr in values.items()]
            == [(cls, [(key, Scalar.from_fraction(RATIONAL, x))
                       for key, x in expr.items()])
                for cls, expr in want_values.items()])
    assert all(type(x) is Scalar and x.field == RATIONAL
               for expr in values.values() for x in expr.values())


def assert_same_outcome(classes, relations):
    """The same solution as dense elimination, or the same error."""
    try:
        dense_solve_linear(classes, relations)
    except InconsistentSystem as want:
        with pytest.raises(InconsistentSystem) as got:
            _solve_linear(classes, relations)
        assert str(got.value) == str(want)
        return
    assert_same_solution(classes, relations)


@pytest.mark.parametrize("name", ["sym", "line", "S3", "C2x4", "S4"])
def test_sparse_solver_matches_dense_elimination(name):
    # every depth that OLIGOPERM_MAX_BOUND admits
    backend = {"sym": SYM, "line": LINE}.get(name) or preset_backend(name)
    for bound in range(2, 11):
        depth = SOLVE_DEPTH_FACTOR * bound + 4
        assert_same_solution(backend.fiber_classes(depth),
                             backend.fiber_decompositions(depth))


HAND_SYSTEMS = {
    # c1 = c0 - 1 and c2 = c1 - 1 imply the third row
    "redundant": (("c0", "c1", "c2"), (
        LinearRelation("c1", (("c0", 1),), -1),
        LinearRelation("c2", (("c1", 1),), -1),
        LinearRelation("c2", (("c0", 1),), -2))),
    # the third row contradicts the first two
    "inconsistent": (("c0", "c1", "c2"), (
        LinearRelation("c1", (("c0", 1),), -1),
        LinearRelation("c2", (("c1", 1),), -1),
        LinearRelation("c2", (("c0", 1),), -3))),
    # c2 = c0 + c1 leaves c0 and c1 free
    "two-free": (("c0", "c1", "c2"), (
        LinearRelation("c2", (("c0", 1), ("c1", 1)), 0),)),
}


@pytest.mark.parametrize("name", list(HAND_SYSTEMS))
def test_sparse_solver_matches_dense_on_hand_systems(name):
    assert_same_outcome(*HAND_SYSTEMS[name])


@st.composite
def sparse_systems(draw):
    """A chain value(c) = k value(c') + const through the classes in a
    shuffled order, some links cut (each cut frees one more class), maybe a
    random sparse row, and sums of two rows that are redundant or, with
    the constant shifted, contradicting; the rows in a shuffled order."""
    classes = tuple(f"c{i}" for i in range(draw(st.integers(1, 8))))
    chain = draw(st.permutations(classes))
    coeff = st.integers(-3, 3).filter(bool)
    const = st.integers(-3, 3)
    relations = [LinearRelation(lhs, ((rhs, draw(coeff)),), draw(const))
                 for lhs, rhs in zip(chain, chain[1:])
                 if draw(st.integers(0, 5))]
    if draw(st.booleans()):
        terms = draw(st.lists(st.tuples(st.sampled_from(classes), coeff),
                              max_size=3))
        relations.append(LinearRelation(draw(st.sampled_from(classes)),
                                        tuple(terms), draw(const)))
    if relations:
        for _ in range(draw(st.integers(0, 2))):
            first = draw(st.sampled_from(relations))
            second = draw(st.sampled_from(relations))
            relations.append(LinearRelation(
                first.lhs, first.terms + second.terms + ((second.lhs, -1),),
                first.const + second.const + draw(st.sampled_from((0, 0, 1)))))
    return classes, tuple(draw(st.permutations(relations)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sparse_systems())
def test_sparse_solver_matches_dense_on_random_systems(system):
    assert_same_outcome(*system)
