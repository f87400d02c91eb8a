"""Composite checker: everything the package verifies, per backend.

The suite bundles the measure solver and axiom checks, the category and
Frobenius layers, the equivalence-idempotent correspondence, the axiom
profile of the backend, and the concrete-model oracles.  Its pass set is the
acceptance surface of the package; the CLI ``suite`` subcommand returns exit
code 0 exactly when every entry passes.

A run computes each shared piece once.  The Frobenius structure of an
object, which reads no measure, is kept in the backend cache.  Per atom of
the Frobenius block, the triangle identities run once when the Frobenius
duality equals the diagonal one, and serve the pairing and snake checks
both.  Within one gamma block, ``e_idempotent_check`` runs once per source
atom and kernel-pair gamma, and the splitting function once per target
atom.  Measure-dependent results are held only for the call that computes
them, never in the backend cache, since one backend serves several
measures.
"""

from __future__ import annotations

from .coeff import RATIONAL, Scalar, falling_factorial, one
from .frob import (
    build_frobenius,
    check_sum_tensor_traces,
    check_trace,
    e_idempotent_check,
    frobenius_duality,
    kernel_pair_gamma,
    kernel_pair_report,
    pairing_report,
    splitting_fn,
    splitting_idempotent,
    verify_frobenius,
)
from .gset import atom_gmap
from .gset.pregalois import pregalois_check
from .linmat import (
    InvariantMatrix,
    column_to_fn,
    constant_fn,
    matmul,
    pushforward_matrix,
    tensor_space,
)
from .measure import check_measure_axioms, classify_measure, solve_measures
from .oracle import (
    bgamma_kernel_dimension,
    expand_sym_matrix,
    finite_category_oracle,
    literal_product,
    sym_orbit_count_model,
)
from .permcat import (
    categorical_dim,
    check_linearization,
    check_snake_identities,
    duality_data,
    hom_dimension,
    snake_report,
    triangle_identities,
)
from .report import CheckResult, Report, difference, equality, verdict


def delannoy_number(m, n):
    table = {}
    for i in range(m + 1):
        for j in range(n + 1):
            table[i, j] = 1 if i == 0 or j == 0 else (
                table[i - 1, j] + table[i, j - 1] + table[i - 1, j - 1])
    return table[m, n]


def _absorb(results, report, prefix):
    """A sub-report as one check: a FAIL names its first failing check,
    with that check's witness."""
    results.append(verdict(prefix, [{"check": r.name, **r.witness}
                                    for r in report.failures()], "checks"))


def _frobenius_block(backend, measure, atoms, results):
    """Per atom, the Frobenius axiom, trace, perfect-pairing, splitting and
    snake checks.  The pairing and snake checks are the triangle identities
    of the Frobenius and of the diagonal duality; when the two dualities
    compare equal, one run of the identities serves both."""
    for atom in atoms:
        obj = backend.object_of([atom])
        frob = build_frobenius(backend, obj, measure.field)
        _absorb(results, verify_frobenius(frob, measure),
                f"frobenius[{atom.label}]")
        _absorb(results, check_trace(frob, measure), f"trace[{atom.label}]")
        duality = frobenius_duality(frob, measure)
        sides = triangle_identities(measure, obj, *duality)
        _absorb(results, pairing_report(obj, sides), f"pairing[{atom.label}]")
        _, rep = splitting_idempotent(frob, measure)
        _absorb(results, rep, f"splitting[{atom.label}]")
        if duality == duality_data(backend, obj, measure.field):
            rep = snake_report(obj, sides)
        else:
            rep = check_snake_identities(backend, obj, measure)
        _absorb(results, rep, f"snake[{atom.label}]")


def _gamma_block(backend, measure, atoms, results, kernel_dims=False):
    """``gamma_of_projection`` of every map between the atoms, from its
    parts: maps out of one atom with equal kernel-pair gammas (on sym and
    line, the maps that keep the same coordinates) share one
    ``e_idempotent_check``, and maps into one atom share its splitting
    function.  Each map keeps its own pullback check."""
    round_trips, kernels = [], []
    eidems, splittings = {}, {}
    for a in atoms:
        for b in atoms:
            for m in backend.hom_atoms(a, b):
                name = f"{a.render()} -> {b.render()} {m.data}"
                f = atom_gmap(backend, m)
                gamma = kernel_pair_gamma(backend, f, measure.field)
                key = a, frozenset(gamma.coeffs.items())
                if key not in eidems:
                    eidems[key] = e_idempotent_check(backend, f.source, gamma,
                                                     measure)
                if b not in splittings:
                    splittings[b] = splitting_fn(backend, f.target, measure)
                rep = kernel_pair_report(backend, f, gamma, eidems[key],
                                         splittings[b])
                if not rep.passed:
                    round_trips.append({"map": name, "failing": ", ".join(
                        r.name for r in rep.failures())})
                if kernel_dims:
                    dim = bgamma_kernel_dimension(
                        backend, backend.object_of([a]), gamma, measure.field)
                    if dim != b.degree:
                        kernels.append({"map": name, "kernel-dim": str(dim)})
    results.append(verdict("gamma-of-projection-round-trips", round_trips,
                           "maps"))
    if kernel_dims:
        results.append(verdict("bgamma-kernel-dimensions", kernels, "maps"))


def _eidem_block(backend, measure, results):
    x = backend.object_of([backend.atoms_up_to(2)[-1]])
    coev, _ = duality_data(backend, x, measure.field)
    ps2 = tensor_space(backend, [x, x])
    ones = constant_fn(ps2.object, one(measure.field))
    _absorb(results, e_idempotent_check(backend, x, column_to_fn(coev), measure),
            "eidem-diagonal")
    _absorb(results, e_idempotent_check(backend, x, ones, measure),
            "eidem-all-ones")
    a = x.atoms[0]
    smaller = [b for b in backend.atoms_up_to(a.degree) if b.degree < a.degree]
    if smaller:
        b = smaller[-1]
        maps = backend.hom_atoms(a, b)
        if maps:
            f = atom_gmap(backend, maps[0])
            gamma = kernel_pair_gamma(backend, f, measure.field)
            _absorb(results, e_idempotent_check(backend, x, gamma, measure),
                    "eidem-kernel-pair")


def run_suite(backend, bound):
    """Every checker in the package, composed per backend.

    Raises ValueError for a bound below 2: the measure solver needs it, and
    the sym suite's expected pre-Galois witness lives on an atom of degree 2.
    """
    if bound < 2:
        raise ValueError("suite needs bound >= 2")
    results = []
    small = min(bound, 3)

    family = solve_measures(backend, bound)
    measure = family.generic()
    results.append(CheckResult(
        "solver-residual-empty", not family.residual,
        {} if not family.residual else {"residual": "; ".join(family.residual)}))
    _absorb(results, check_measure_axioms(measure, bound), "measure-axioms")
    # the generic measure is regular and normal by the classification
    classes = classify_measure(measure, small)
    passed = classes["regular"] and classes["normal_within_bound"]
    results.append(CheckResult(
        "measure-classification", passed, {} if passed else dict(classes),
        note=f"regular={classes['regular']} "
             f"normal_within_bound={classes['normal_within_bound']}"))

    if backend.backend_id == "sym":
        _sym_suite(backend, family, measure, bound, results)
    elif backend.backend_id == "line":
        _line_suite(backend, family, measure, bound, results)
    else:
        _finite_suite(backend, family, measure, bound, results)

    _absorb(results, check_linearization(measure, small), "linearization")
    _frobenius_block(backend, measure, backend.atoms_up_to(small), results)
    _eidem_block(backend, measure, results)
    _gamma_block(backend, measure, backend.atoms_up_to(small), results,
                 kernel_dims=(backend.backend_id == "finite"))

    small_atoms = backend.atoms_up_to(min(bound, 2))
    xa = backend.object_of([small_atoms[-1]])
    xb = backend.object_of([small_atoms[min(1, len(small_atoms) - 1)]])
    _absorb(results, check_sum_tensor_traces(backend, xa, xb, measure),
            "sum-tensor-traces")

    return Report(f"suite for {backend.backend_id} at bound {bound}", results)


def _hom_dims_check(name, backend, bound, model):
    """The check that dim Hom(Vec_a, Vec_b) is ``model(n, m)`` for the atoms
    a and b of arities n and m up to min(bound, 3); a FAIL names the first
    pair that differs, with its dimension and the model's count."""
    arities = range(min(bound, 3) + 1)
    failures = []
    for n in arities:
        for m in arities:
            a, b = backend.atom_of_arity(n), backend.atom_of_arity(m)
            dim = hom_dimension(backend, backend.object_of([a]),
                                backend.object_of([b]))
            count = model(n, m)
            if dim != count:
                failures.append({"hom": f"{a.render()} -> {b.render()}",
                                 "dim": str(dim), "model-count": str(count)})
    return verdict(name, failures, "pairs")


def _sym_suite(backend, family, measure, bound, results):
    field = family.field
    t = Scalar.variable(field)
    expected = all(
        family.atom_values[a] == falling_factorial(field, t, a.degree)
        for a in backend.atoms_up_to(bound))
    results.append(CheckResult(
        "falling-factorial-family",
        expected and family.parameters == ("t",)))

    counting = []
    for n_points in (5, 7):
        at_n = family.specialize(n_points)
        for a in backend.atoms_up_to(min(bound, 4)):
            count = 1
            for k in range(a.degree):
                count *= n_points - k
            value = at_n.mu_atom(a)
            if value != Scalar.from_fraction(RATIONAL, count):
                counting.append({"atom": a.render(), "points": str(n_points),
                                 "measure": value.render(),
                                 "count": str(count)})
    results.append(verdict("counting-oracle", counting, "atoms"))

    x = backend.object_of([backend.atom_of_arity(1)])
    e_eq = InvariantMatrix(backend, x, x, {(0, 0, "[1>1]"): one(field)})
    e_neq = InvariantMatrix(backend, x, x, {(0, 0, "[]"): one(field)})
    square = matmul(measure, e_neq, e_neq)
    composition = []
    d = difference(square, e_eq.scale(t - 1) + e_neq.scale(t - 2))
    if d:
        composition.append({"model-points": "t", **d})
    for n_points in (5, 6, 7, 8):
        ones_minus_id = expand_sym_matrix(e_neq, n_points)
        d = difference(expand_sym_matrix(square, n_points),
                       literal_product(ones_minus_id, ones_minus_id))
        if d:
            composition.append({"model-points": str(n_points), **d})
    results.append(verdict("composition-identity", composition, "models"))

    results.append(_hom_dims_check(
        "hom-dims-match-model-orbits", backend, bound,
        lambda n, m: sym_orbit_count_model(8, n, m)))

    results.append(equality("dimension-of-line-object",
                            categorical_dim(backend, x, measure), t))

    mutant = measure.with_perturbed_atom(backend.atom_of_arity(2), one(field))
    mutant_report = check_measure_axioms(mutant, 3)
    witness_ok = False
    for r in mutant_report.results:
        if not r.passed and r.name.startswith("product"):
            witness_ok = (r.witness.get("lhs") == (t * t).render()
                          and r.witness.get("rhs")
                          == (t + t * (t - 1) + 1).render())
            break
    assoc_broken = _associativity_breaks(backend, mutant)
    results.append(CheckResult("mutation-sensitivity",
                               witness_ok and assoc_broken))

    profile = pregalois_check(backend, min(bound, 3))
    failing = [r.name for r in profile.failures()]
    witness = profile.result("h-effective-equivalence-relations").witness
    expected_fail = (failing == ["h-effective-equivalence-relations"]
                     and witness.get("atom") == "sym:inj[2]"
                     and "[1>2,2>1]" in witness.get("relation-orbits", ""))
    results.append(CheckResult("pregalois-profile", expected_fail,
                               {} if expected_fail else {"failing":
                                                         ", ".join(failing)}))


def _associativity_breaks(backend, mutant):
    x = backend.object_of([backend.atom_of_arity(1)])
    eps = pushforward_matrix(backend, backend.collapse_gmap(x), mutant.field)
    e_neq = InvariantMatrix(backend, x, x, {(0, 0, "[]"): one(mutant.field)})
    lhs = matmul(mutant, matmul(mutant, eps, e_neq), e_neq)
    rhs = matmul(mutant, eps, matmul(mutant, e_neq, e_neq))
    return lhs != rhs


def _line_suite(backend, family, measure, bound, results):
    field = family.field
    values_ok = (family.parameters == ()
                 and all(family.atom_values[a]
                         == Scalar.from_int(field, (-1) ** a.degree)
                         for a in backend.atoms_up_to(bound))
                 and family.fiber_values["ray"] == Scalar.from_int(field, -1)
                 and family.fiber_values["interval"]
                 == Scalar.from_int(field, -1))
    m1 = family.atom_values[backend.atom_of_arity(1)]
    r = family.fiber_values["ray"]
    i = family.fiber_values["interval"]
    unit = one(field)
    oracle_ok = (m1 == r + r + unit and r == r + i + unit and i == i + i + unit)
    results.append(CheckResult("unique-alternating-measure",
                               values_ok and oracle_ok))

    results.append(_hom_dims_check("hom-dims-are-delannoy", backend, bound,
                                   delannoy_number))

    x = backend.object_of([backend.atom_of_arity(1)])
    results.append(equality("dimension-of-line-object",
                            categorical_dim(backend, x, measure),
                            Scalar.from_int(field, -1)))

    profile = pregalois_check(backend, min(bound, 3))
    results.append(verdict(
        "pregalois-profile",
        [{"check": r.name, **r.witness} for r in profile.failures()
         if not r.name.startswith("h-")],
        "checks", note="effectivity outcome reported, not gated: "
        + profile.result("h-effective-equivalence-relations").status))


def _finite_suite(backend, family, measure, bound, results):
    counting_ok = (family.parameters == () and all(
        measure.mu_atom(a) == Scalar.from_int(measure.field, a.degree)
        for a in backend.atoms_up_to(bound)))
    results.append(CheckResult("unique-counting-measure", counting_ok))

    _absorb(results, pregalois_check(backend, bound), "pregalois-profile")
    _absorb(results, finite_category_oracle(backend, measure, bound),
            "permutation-matrix-oracle")
