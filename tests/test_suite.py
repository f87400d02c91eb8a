"""The composite suite's library entry point."""

import pytest

from oligoperm import frob, permcat, suite
from oligoperm.coeff import Scalar
from oligoperm.frob import check_perfect_pairing, gamma_of_projection
from oligoperm.gset import LineBackend, SymBackend, preset_backend
from oligoperm.measure import solve_measures
from oligoperm.permcat import check_snake_identities
from oligoperm.report import CheckResult, Report
from oligoperm.suite import run_suite


@pytest.mark.parametrize("bound", [1, 0, -1])
def test_run_suite_refuses_bound_below_two(bound):
    # at 1 the sym suite reported a false pre-Galois FAIL, at -1 an IndexError
    with pytest.raises(ValueError, match="bound >= 2"):
        run_suite(SymBackend(), bound)


def test_measure_classification_fails_on_an_irregular_verdict(monkeypatch):
    verdict = {"regular": False, "normal_within_bound": True}
    monkeypatch.setattr(suite, "classify_measure", lambda measure, bound: verdict)
    (result,) = [r for r in run_suite(SymBackend(), 2).results
                 if r.name == "measure-classification"]
    assert not result.passed
    assert result.witness == verdict
    assert result.note == "regular=False normal_within_bound=True"


def test_composition_identity_names_the_wrong_literal_entry(monkeypatch):
    """One entry of the model's literal product shifted by one: the FAIL
    names that entry, in the first model, with both values."""
    real = suite.literal_product

    def shifted(bmat, amat):
        out = real(bmat, amat)
        out[0, 0] = out[0, 0] + 1
        return out

    monkeypatch.setattr(suite, "literal_product", shifted)
    report = run_suite(SymBackend(), 2)
    assert [r.name for r in report.failures()] == ["composition-identity"]
    # on 5 points the diagonal of (J - I)^2 is 4
    assert report.result("composition-identity").witness == {
        "model-points": "5", "row": "0", "column": "0", "lhs": "4",
        "rhs": "5", "failing-models": "4"}


def map_name(m):
    return f"{m.source.render()} -> {m.target.render()} {m.data}"


def test_gamma_block_reports_the_first_failing_map(monkeypatch):
    backend = SymBackend()
    measure = solve_measures(backend, 3).generic()
    real = suite.kernel_pair_report
    failed = []

    def fail_onto_inj1(backend, f, gamma, eidem, alpha):
        report = real(backend, f, gamma, eidem, alpha)
        ((_, m),) = f.legs
        if m.target.degree != 1:
            return report
        failed.append(m)
        return Report(report.title, [CheckResult("probe", False)])

    monkeypatch.setattr(suite, "kernel_pair_report", fail_onto_inj1)
    results = []
    suite._gamma_block(backend, measure, backend.atoms_up_to(3), results)
    assert len(failed) > 1
    assert [r.to_dict() for r in results] == [{
        "check": "gamma-of-projection-round-trips", "status": "FAIL",
        "witness": {"map": map_name(failed[0]), "failing": "probe",
                    "failing-maps": str(len(failed))}}]


@pytest.mark.parametrize("make, bound", [
    (SymBackend, 3),
    (LineBackend, 3),
    (lambda: preset_backend("S3"), 6),
], ids=["sym", "line", "S3"])
def test_gamma_block_gives_each_map_its_gamma_of_projection(make, bound,
                                                            monkeypatch):
    """The gamma block shares one ``e_idempotent_check`` per source atom and
    gamma and one splitting function per target atom, yet every map gets
    the gamma and the report ``gamma_of_projection`` gives it."""
    backend = make()
    measure = solve_measures(backend, bound).generic()
    real = suite.kernel_pair_report
    seen = []

    def recorded(backend, f, gamma, eidem, alpha):
        report = real(backend, f, gamma, eidem, alpha)
        seen.append((f, gamma, report))
        return report

    monkeypatch.setattr(suite, "kernel_pair_report", recorded)
    atoms = backend.atoms_up_to(min(bound, 3))
    results = []
    suite._gamma_block(backend, measure, atoms, results)
    assert len(seen) == sum(len(backend.hom_atoms(a, b))
                            for a in atoms for b in atoms)
    for f, gamma, report in seen:
        assert gamma_of_projection(backend, f, measure) == (gamma, report)


def absorbed(report, name):
    """``report`` folded into one check, as the suite folds it."""
    results = []
    suite._absorb(results, report, name)
    return results[0]


def doubled(matrix, field):
    return matrix.scale(Scalar.from_int(field, 2))


@pytest.mark.parametrize("make", [SymBackend, LineBackend], ids=["sym", "line"])
def test_a_wrong_comult_fails_the_pairing_alone(make, monkeypatch):
    """With the comultiplication doubled, comult o unit is not the diagonal
    coevaluation, so the snake check runs the triangle identities on the
    diagonal duality itself: every ``pairing[...]`` fails, with the verdict
    ``check_perfect_pairing`` gives on that structure, and every
    ``snake[...]`` passes."""
    real = suite.build_frobenius

    def doubled_comult(backend, x, field):
        f = real(backend, x, field)
        return f._replace(comult=doubled(f.comult, field))

    monkeypatch.setattr(suite, "build_frobenius", doubled_comult)
    backend = make()
    report = run_suite(backend, 3)
    measure = solve_measures(backend, 3).generic()
    for atom in backend.atoms_up_to(3):
        f = doubled_comult(backend, backend.object_of([atom]), measure.field)
        name = f"pairing[{atom.label}]"
        assert not report.result(name).passed
        assert report.result(name) == absorbed(
            check_perfect_pairing(f, measure), name)
        assert report.result(f"snake[{atom.label}]").passed


@pytest.mark.parametrize("make", [SymBackend, LineBackend], ids=["sym", "line"])
def test_a_wrong_diagonal_duality_fails_the_snake_alone(make, monkeypatch):
    """With the diagonal coevaluation doubled, the Frobenius duality is not
    the diagonal one, so the pairing check keeps its own run: every
    ``snake[...]`` fails, with the verdict ``check_snake_identities`` gives
    under the same patch, and every ``pairing[...]`` passes."""
    real = permcat.duality_data

    def doubled_coev(backend, x, field):
        coev, ev = real(backend, x, field)
        return doubled(coev, field), ev

    for module in (suite, permcat):
        monkeypatch.setattr(module, "duality_data", doubled_coev)
    backend = make()
    report = run_suite(backend, 3)
    measure = solve_measures(backend, 3).generic()
    for atom in backend.atoms_up_to(3):
        x = backend.object_of([atom])
        name = f"snake[{atom.label}]"
        assert not report.result(name).passed
        assert report.result(name) == absorbed(
            check_snake_identities(backend, x, measure), name)
        assert report.result(f"pairing[{atom.label}]").passed


@pytest.mark.parametrize("make, bound, triangles, eidems, structures", [
    (SymBackend, 3, 4, 18, 6),
    (LineBackend, 3, 4, 18, 6),
    (lambda: preset_backend("S4"), 6, 3, 8, 8),
], ids=["sym", "line", "S4"])
def test_suite_derives_each_structure_once(make, bound, triangles, eidems,
                                           structures, monkeypatch):
    """A passing suite runs the triangle identities once per atom of its
    Frobenius block (4 within degree 3 on sym and line, 3 on S4), runs
    ``e_idempotent_check`` on the 3 eidem-block gammas and once per distinct
    source atom and gamma of the gamma block (sym: 24 maps with 15; line:
    15 maps, all distinct; S4: 6 maps with 5), and builds one Frobenius
    structure per object: 4 atoms plus the sum and the product of
    sum-tensor-traces on sym and line; on S4 its 7 atoms within degree 6,
    which the oracle reads, and one sum, which is also the product.  The
    counts are exact (before these were shared: 8, 8 and 6 triangle runs,
    27, 18 and 9 checks, 59, 41 and 29 structures)."""
    counts = {"triangles": 0, "eidems": 0, "structures": 0}

    def counted(real, what):
        def call(*args, **kwargs):
            counts[what] += 1
            return real(*args, **kwargs)
        return call

    triangle_identities = counted(permcat.triangle_identities, "triangles")
    for module in (permcat, frob, suite):
        monkeypatch.setattr(module, "triangle_identities", triangle_identities)
    e_idempotent_check = counted(frob.e_idempotent_check, "eidems")
    for module in (frob, suite):
        monkeypatch.setattr(module, "e_idempotent_check", e_idempotent_check)
    monkeypatch.setattr(frob, "FrobeniusStructure",
                        counted(frob.FrobeniusStructure, "structures"))
    assert run_suite(make(), bound).passed
    assert counts == {"triangles": triangles, "eidems": eidems,
                      "structures": structures}


def test_bgamma_kernel_dimensions_report_the_first_failing_map(monkeypatch):
    backend = preset_backend("S3")
    measure = solve_measures(backend, 6).generic()
    atoms = backend.atoms_up_to(6)
    monkeypatch.setattr(suite, "bgamma_kernel_dimension",
                        lambda backend, y_obj, gamma, field: 0)
    results = []
    suite._gamma_block(backend, measure, atoms, results, kernel_dims=True)
    maps = [m for a in atoms for b in atoms for m in backend.hom_atoms(a, b)]
    assert [r.name for r in results if not r.passed] == [
        "bgamma-kernel-dimensions"]
    assert results[1].witness == {"map": map_name(maps[0]), "kernel-dim": "0",
                                  "failing-maps": str(len(maps))}


def test_absorbed_report_names_its_first_failing_check(monkeypatch):
    """A sub-report folds into one check as every check over many instances
    does: a FAIL names its first failing check with that check's witness
    and counts the failing checks; a PASS carries no witness."""
    def two_failures(backend, xa, xb, measure):
        return Report("sum and tensor trace data", [
            CheckResult("sum-counit-left", True),
            CheckResult("sum-pairing-cross-block", False,
                        {"position": "3", "atom": "sym:inj[2]", "lhs": "1",
                         "rhs": "0"}),
            CheckResult("tensor-pairing-factorizes", False, {"position": "0"})])

    monkeypatch.setattr(suite, "check_sum_tensor_traces", two_failures)
    report = run_suite(SymBackend(), 2)
    assert [r.name for r in report.failures()] == ["sum-tensor-traces"]
    assert report.result("sum-tensor-traces").to_dict() == {
        "check": "sum-tensor-traces", "status": "FAIL",
        "witness": {"check": "sum-pairing-cross-block", "position": "3",
                    "atom": "sym:inj[2]", "lhs": "1", "rhs": "0",
                    "failing-checks": "2"}}
    assert report.result("measure-axioms").to_dict() == {
        "check": "measure-axioms", "status": "PASS"}


@pytest.mark.parametrize("make, model, check, expect", [
    (LineBackend, "delannoy_number", "hom-dims-are-delannoy",
     {"hom": "line:inc[1] -> line:inc[2]", "dim": "5", "model-count": "6"}),
    (SymBackend, "sym_orbit_count_model", "hom-dims-match-model-orbits",
     {"hom": "sym:inj[1] -> sym:inj[2]", "dim": "3", "model-count": "4"}),
], ids=["line", "sym"])
def test_hom_dims_report_the_first_failing_pair(monkeypatch, make, model,
                                                 check, expect):
    """A model count that is wrong on two atom pairs fails the hom-dims
    check, naming the first pair with its dimension and the model's count
    and counting both pairs; the unpatched check passes with no witness."""
    assert run_suite(make(), 2).result(check).to_dict() == {
        "check": check, "status": "PASS"}
    original = getattr(suite, model)

    def wrong_on_one_two(*args):
        return original(*args) + (sorted(args[-2:]) == [1, 2])

    monkeypatch.setattr(suite, model, wrong_on_one_two)
    report = run_suite(make(), 2)
    assert [r.name for r in report.failures()] == [check]
    assert report.result(check).to_dict() == {
        "check": check, "status": "FAIL",
        "witness": {**expect, "failing-pairs": "2"}}


def test_line_pregalois_profile_names_its_first_failing_check(monkeypatch):
    """The line suite gates the pre-Galois profile on every check but the
    effectivity (h): a FAIL names the first failing one with its witness,
    counts the failing ones but (h), and keeps the effectivity note."""
    def profile(backend, bound):
        return Report("pre-Galois axioms", [
            CheckResult("a-coproducts", True),
            CheckResult("c-atom-maps-into-coproducts", False,
                        {"atom": "line:inc[2]"}),
            CheckResult("e-monos-are-isos", False, {"map": "[1]"}),
            CheckResult("h-effective-equivalence-relations", False,
                        {"atom": "line:inc[1]"})])

    monkeypatch.setattr(suite, "pregalois_check", profile)
    report = run_suite(LineBackend(), 2)
    assert [r.name for r in report.failures()] == ["pregalois-profile"]
    assert report.result("pregalois-profile").to_dict() == {
        "check": "pregalois-profile", "status": "FAIL",
        "note": "effectivity outcome reported, not gated: FAIL",
        "witness": {"check": "c-atom-maps-into-coproducts",
                    "atom": "line:inc[2]", "failing-checks": "2"}}

    def only_h_fails(backend, bound):
        return Report("pre-Galois axioms", [
            CheckResult("a-coproducts", True),
            CheckResult("h-effective-equivalence-relations", False,
                        {"atom": "line:inc[1]"})])

    monkeypatch.setattr(suite, "pregalois_check", only_h_fails)
    assert run_suite(LineBackend(), 2).result(
        "pregalois-profile").to_dict() == {
        "check": "pregalois-profile", "status": "PASS",
        "note": "effectivity outcome reported, not gated: FAIL"}
