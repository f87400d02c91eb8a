"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every expected value here is computed by an oracle that is independent of the
code path it checks: counting in explicit finite models, the lattice-path
recurrence, hand-coded constraint equations, literal matrix products over
explicit point sets, and union-find orbit counting under group generators.
All comparisons are exact.
"""

import itertools
import time
from fractions import Fraction
from math import comb, factorial

import pytest

from oligoperm.coeff import RATIONAL, Scalar, one
from oligoperm.frob import (
    build_frobenius,
    check_frobenius,
    e_idempotent_check,
    gamma_of_projection,
    kernel_pair_gamma,
    splitting_fn,
)
from oligoperm.gset import LINE, SYM, GMap, preset_backend
from oligoperm.gset.pregalois import pregalois_check
from oligoperm.linmat import (
    InvariantMatrix,
    constant_fn,
    matmul,
    pushforward_matrix,
    tensor_space,
)
from oligoperm.measure import check_measure_axioms, solve_measures
from oligoperm.oracle import (
    bgamma_kernel_dimension,
    expand_sym_matrix,
    finite_category_oracle,
    sym_orbit_count_model,
)
from oligoperm.permcat import (categorical_dim, check_linearization,
                               duality_data, hom_dimension)

pytestmark = pytest.mark.acceptance


def verdict(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {number}: {status}" + (f" ({detail})" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def sym_family():
    return solve_measures(SYM, 4)


@pytest.fixture(scope="module")
def line_family():
    return solve_measures(LINE, 4)


def test_criterion_1_symmetric_measure_family(sym_family):
    started = time.monotonic()
    family = solve_measures(SYM, 4)
    elapsed = time.monotonic() - started

    ok = family.parameters == ("t",) and family.residual == ()
    t = Scalar.variable(family.field)
    for n in range(5):
        expected = one(family.field)
        for k in range(n):
            expected = expected * (t - k)
        ok = ok and family.atom_values[SYM.atom_of_arity(n)] == expected

    # counting oracle: literally enumerate injective tuples over N points
    for n_points in (5, 7):
        measure = family.specialize(n_points)
        for n in range(5):
            count = len(list(itertools.permutations(range(n_points), n)))
            got = measure.mu_atom(SYM.atom_of_arity(n))
            ok = ok and got == Scalar.from_fraction(RATIONAL, Fraction(count))

    ok = ok and elapsed < 5.0
    assert verdict(1, ok, f"solve in {elapsed:.2f}s")


def test_criterion_2_line_measure_uniqueness(line_family):
    family = line_family
    ok = family.parameters == () and family.residual == ()
    for n in range(5):
        ok = ok and family.atom_values[LINE.atom_of_arity(n)] == \
            Scalar.from_int(family.field, (-1) ** n)
    r = family.fiber_values["ray"]
    i = family.fiber_values["interval"]
    m = family.atom_values[LINE.atom_of_arity(1)]
    ok = ok and r == Scalar.from_int(family.field, -1)
    ok = ok and i == Scalar.from_int(family.field, -1)
    # hand-coded decomposition equations: m = 2r+1, r = r+i+1, i = 2i+1
    unit = one(family.field)
    ok = ok and m == r + r + unit
    ok = ok and r == r + i + unit
    ok = ok and i == i + i + unit
    assert verdict(2, ok)


def test_criterion_3_hom_dimensions():
    # lattice-path recurrence, computed here from scratch
    table = {}
    for a in range(4):
        for b in range(4):
            table[a, b] = 1 if a == 0 or b == 0 else (
                table[a - 1, b] + table[a, b - 1] + table[a - 1, b - 1])
    ok = table[1, 1] == 3 and table[2, 2] == 13 and table[3, 3] == 63
    for n in range(4):
        for m in range(4):
            dim = hom_dimension(
                LINE,
                LINE.object_of([LINE.atom_of_arity(n)]),
                LINE.object_of([LINE.atom_of_arity(m)]))
            ok = ok and dim == table[n, m]

    for n in range(4):
        for m in range(4):
            dim = hom_dimension(
                SYM,
                SYM.object_of([SYM.atom_of_arity(n)]),
                SYM.object_of([SYM.atom_of_arity(m)]))
            ok = ok and dim == sym_orbit_count_model(8, n, m)
    assert verdict(3, ok)


def test_criterion_4_composition_identity(sym_family):
    measure = sym_family.generic()
    field = measure.field
    t = Scalar.variable(field)
    x = SYM.object_of([SYM.atom_of_arity(1)])
    e_eq = InvariantMatrix(SYM, x, x, {(0, 0, "[1>1]"): one(field)})
    e_neq = InvariantMatrix(SYM, x, x, {(0, 0, "[]"): one(field)})
    square = matmul(measure, e_neq, e_neq)
    ok = square == e_eq.scale(t - 1) + e_neq.scale(t - 2)

    for n_points in (5, 6, 7, 8):
        # literal (J - I)^2 over N points, built from raw integers; the
        # expansion lists its nonzero entries by (row, column)
        literal = {}
        for i in range(n_points):
            for j in range(n_points):
                v = sum((1 if i != k else 0) * (1 if k != j else 0)
                        for k in range(n_points))
                if v:
                    literal[i, j] = Fraction(v)
        expanded = expand_sym_matrix(square, n_points)
        got = {key: entry.as_fraction() for key, entry in expanded.items()}
        ok = ok and got == literal
    assert verdict(4, ok)


def test_criterion_5_finite_total_oracle():
    started = time.monotonic()
    ok = True
    for group in ("S3", "C2x4"):
        backend = preset_backend(group)
        measure = solve_measures(backend, 6).generic()
        report = finite_category_oracle(backend, measure, 6)
        ok = ok and report.passed
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    assert verdict(5, ok, f"{elapsed:.2f}s")


def test_criterion_6_frobenius_suite(sym_family, line_family):
    ok = True
    cases = [
        (SYM, sym_family.generic(), SYM.atoms_up_to(3)),
        (LINE, line_family.generic(), LINE.atoms_up_to(3)),
    ]
    s3 = preset_backend("S3")
    cases.append((s3, solve_measures(s3, 6).generic(), s3.atoms_up_to(3)))
    for backend, measure, atoms in cases:
        for atom in atoms:
            frob = build_frobenius(backend, backend.object_of([atom]),
                                   measure.field)
            _, reports = check_frobenius(frob, measure)
            for name in ("frobenius", "pairing", "splitting", "trace"):
                ok = ok and reports[name].passed
    assert verdict(6, ok)


def test_criterion_7_mutation_sensitivity(sym_family):
    measure = sym_family.generic()
    field = measure.field
    t = Scalar.variable(field)
    mutant = measure.with_perturbed_atom(SYM.atom_of_arity(2), one(field))

    report = check_measure_axioms(mutant, 3)
    witness_ok = False
    for result in report.results:
        if not result.passed and result.name.startswith("product"):
            witness_ok = (result.witness["lhs"] == (t * t).render() and
                          result.witness["rhs"] == (t + t * (t - 1) + 1).render())
            break

    x = SYM.object_of([SYM.atom_of_arity(1)])
    eps = pushforward_matrix(SYM, SYM.collapse_gmap(x), field)
    e_neq = InvariantMatrix(SYM, x, x, {(0, 0, "[]"): one(field)})
    lhs = matmul(mutant, matmul(mutant, eps, e_neq), e_neq)
    rhs = matmul(mutant, eps, matmul(mutant, e_neq, e_neq))
    assoc_ok = lhs != rhs

    assert verdict(7, witness_ok and assoc_ok,
                   f"axiom witness {'ok' if witness_ok else 'missing'}, "
                   f"associativity {'breaks' if assoc_ok else 'holds'}")


def test_criterion_8_linearization(sym_family, line_family):
    ok = True
    for family in (sym_family, line_family):
        report = check_linearization(family.generic(), 3)
        ok = ok and report.passed
        ok = ok and report.result("measure-extraction").passed
        ok = ok and report.result("unit-pushforward").passed
    assert verdict(8, ok)


def test_criterion_9_e_idempotents(sym_family, line_family):
    measure = sym_family.generic()
    field = measure.field
    x = SYM.object_of([SYM.atom_of_arity(2)])
    ps2 = tensor_space(SYM, [x, x])
    frob = build_frobenius(SYM, x, field)
    from oligoperm.linmat import column_to_fn

    diagonal = column_to_fn(matmul(measure, frob.comult, frob.unit))
    all_ones = constant_fn(ps2.object, one(field))
    a2, a1 = SYM.atom_of_arity(2), SYM.atom_of_arity(1)
    select_first = [m for m in SYM.hom_atoms(a2, a1) if m.data == (1,)][0]
    first_map = GMap(x, SYM.object_of([a1]), ((0, select_first),))
    first_coord = kernel_pair_gamma(SYM, first_map, field)
    alpha = splitting_fn(SYM, x, measure)
    ok = all(e_idempotent_check(SYM, x, gamma, measure, alpha).passed
             for gamma in (diagonal, all_ones, first_coord))

    for backend, family in ((SYM, sym_family), (LINE, line_family)):
        meas = family.generic()
        atoms = backend.atoms_up_to(3)
        for a in atoms:
            for b in atoms:
                for m in backend.hom_atoms(a, b):
                    f = GMap(backend.object_of([a]), backend.object_of([b]),
                             ((0, m),))
                    _, rep = gamma_of_projection(backend, f, meas)
                    ok = ok and rep.passed

    s3 = preset_backend("S3")
    meas = solve_measures(s3, 6).generic()
    for a in s3.atoms_up_to(6):
        for b in s3.atoms_up_to(6):
            for m in s3.hom_atoms(a, b):
                f = GMap(s3.object_of([a]), s3.object_of([b]), ((0, m),))
                gamma = kernel_pair_gamma(s3, f, meas.field)
                dim = bgamma_kernel_dimension(s3, s3.object_of([a]), gamma,
                                              meas.field)
                ok = ok and dim == b.degree
    assert verdict(9, ok)


def test_criterion_10_pregalois_and_dims(sym_family, line_family):
    finite_report = pregalois_check(preset_backend("S3"), 6)
    ok = finite_report.passed

    sym_report = pregalois_check(SYM, 3)
    failing = [r.name for r in sym_report.failures()]
    ok = ok and failing == ["h-effective-equivalence-relations"]
    witness = sym_report.result("h-effective-equivalence-relations").witness
    ok = ok and witness["atom"] == "sym:inj[2]"
    ok = ok and witness["relation-orbits"] == "[1>1,2>2], [1>2,2>1]"

    mu_t = sym_family.generic()
    t = Scalar.variable(mu_t.field)
    x = SYM.object_of([SYM.atom_of_arity(1)])
    ok = ok and categorical_dim(
        mu_t, x, *duality_data(SYM, x, mu_t.field)) == t
    mu_line = line_family.generic()
    x = LINE.object_of([LINE.atom_of_arity(1)])
    ok = ok and categorical_dim(
        mu_line, x, *duality_data(LINE, x, mu_line.field)) == \
        Scalar.from_int(mu_line.field, -1)
    assert verdict(10, ok)
