"""Frobenius structure, trace data, splitting and equivalence idempotents."""

import itertools
import math
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from oligoperm.coeff import RATIONAL, Scalar, one, ratfunc_field, zero
from oligoperm.errors import NotSurjective
from oligoperm.frob import (
    build_frobenius,
    check_frobenius,
    check_sum_tensor_traces,
    check_trace,
    e_idempotent_check,
    gamma_of_projection,
    kernel_pair_gamma,
    splitting_fn,
    trace_form,
    trace_pairing,
    verify_frobenius,
)
from oligoperm.gset import LINE, SYM, GMap, atom_gmap, preset_backend
from oligoperm.gset.base import triple_row
from oligoperm import frob, linmat
from oligoperm.linmat import (
    InvariantMatrix,
    RowProduct,
    SchwartzFn,
    block_tensor,
    column_matrix,
    column_to_fn,
    constant_fn,
    identity_matrix,
    matmul,
    multi_factor,
    product_gmap,
    projection,
    pullback_fn,
    pullback_matrix,
    pushforward_matrix,
    row_to_fn,
    scalar_entry,
    tensor_space,
    wiring_gmap,
)
from oligoperm.measure import solve_measures
from oligoperm.permcat import duality_data
from oligoperm.report import difference


@pytest.fixture(scope="module")
def mu_t():
    return solve_measures(SYM, 3).generic()


@pytest.fixture(scope="module")
def mu_line():
    return solve_measures(LINE, 3).generic()


@pytest.fixture(scope="module")
def s3():
    return preset_backend("S3")


@pytest.fixture(scope="module")
def mu_s3(s3):
    return solve_measures(s3, 6).generic()


def sym_obj(n):
    return SYM.object_of([SYM.atom_of_arity(n)])


def line_obj(n):
    return LINE.object_of([LINE.atom_of_arity(n)])


def test_unit_algebra(mu_t):
    f = build_frobenius(SYM, SYM.unit_object(), mu_t.field)
    for mat in (f.unit, f.mult, f.counit, f.comult):
        assert len(mat.entries) == 1
        assert list(mat.entries.values())[0] == one(mu_t.field)
    assert verify_frobenius(f, mu_t).passed


def test_total_measure_from_counit(mu_t):
    f = build_frobenius(SYM, sym_obj(1), mu_t.field)
    t = Scalar.variable(mu_t.field)
    total = matmul(mu_t, f.counit, f.unit)
    assert scalar_entry(total, mu_t.field) == t


def test_frobenius_axioms_sym(mu_t):
    for n in range(3):
        f = build_frobenius(SYM, sym_obj(n), mu_t.field)
        report = verify_frobenius(f, mu_t)
        assert report.passed, [r.name for r in report.failures()]


def test_frobenius_axioms_line(mu_line):
    for n in range(3):
        f = build_frobenius(LINE, line_obj(n), mu_line.field)
        report = verify_frobenius(f, mu_line)
        assert report.passed, [r.name for r in report.failures()]


def test_frobenius_axioms_finite(s3, mu_s3):
    for atom in s3.atoms_up_to(6):
        f = build_frobenius(s3, s3.object_of([atom]), mu_s3.field)
        report = verify_frobenius(f, mu_s3)
        assert report.passed, [r.name for r in report.failures()]


def test_mutant_detection_lives_in_general_composition(mu_t):
    # The structure maps are diagonal-supported indicators, so every middle
    # coordinate in the axiom composites is pinned to a point: the axiom
    # identities hold for any fiber assignment.  A broken fiber table is
    # caught by composition of general morphisms instead.
    mutant = mu_t.with_perturbed_atom(SYM.atom_of_arity(2), one(mu_t.field))
    f = build_frobenius(SYM, sym_obj(1), mutant.field)
    assert verify_frobenius(f, mutant).passed

    from oligoperm.linmat import InvariantMatrix, pushforward_matrix

    x = sym_obj(1)
    eps = pushforward_matrix(SYM, SYM.collapse_gmap(x), mutant.field)
    e_neq = InvariantMatrix(SYM, x, x, {(0, 0, "[]"): one(mutant.field)})
    lhs = matmul(mutant, matmul(mutant, eps, e_neq), e_neq)
    rhs = matmul(mutant, eps, matmul(mutant, e_neq, e_neq))
    assert lhs != rhs


def test_trace_form_equals_counit(mu_t, mu_line):
    for backend, measure, objs in [
        (SYM, mu_t, [sym_obj(1), sym_obj(2)]),
        (LINE, mu_line, [line_obj(1), line_obj(2)]),
    ]:
        for obj in objs:
            f = build_frobenius(backend, obj, measure.field)
            report = check_trace(f, measure)
            assert report.passed, [r.name for r in report.failures()]


def test_trace_witness_names_the_flipped_entry(mu_t):
    """Doubling the unit's entry on the inj[2] atom breaks counit = unit
    transpose there alone: the witness names that entry of the counit with
    both values."""
    x = SYM.object_of([SYM.atom_of_arity(1), SYM.atom_of_arity(2)])
    f = build_frobenius(SYM, x, mu_t.field)
    key = max(f.unit.entries)
    unit = InvariantMatrix(SYM, f.unit.source, f.unit.target, {
        **f.unit.entries, key: Scalar.from_int(mu_t.field, 2)})
    report = check_trace(f._replace(unit=unit), mu_t)
    assert [r.name for r in report.failures()] == ["counit-is-unit-transpose"]
    ((target, source, label),) = [k for k in f.counit.entries
                                  if k[1] == key[0]]
    assert report.result("counit-is-unit-transpose").witness == {
        "target": str(target), "source": str(source), "orbit": label,
        "lhs": "1", "rhs": "2"}


def test_trace_pairing_is_diagonal_indicator(mu_t):
    f = build_frobenius(SYM, sym_obj(1), mu_t.field)
    beta = trace_pairing(f, mu_t)
    ps2 = tensor_space(SYM, [sym_obj(1), sym_obj(1)])
    diag = [i for i, p in enumerate(ps2.positions) if p.atom.degree == 1]
    assert set(k[1] for k in beta.entries) == set(diag)
    assert all(v == one(mu_t.field) for v in beta.entries.values())


def test_perfect_pairing(mu_t, mu_line):
    for backend, measure, obj in [
        (SYM, mu_t, sym_obj(2)),
        (LINE, mu_line, line_obj(2)),
    ]:
        f = build_frobenius(backend, obj, measure.field)
        report = check_frobenius(f, measure)[1]["pairing"]
        assert report.passed, [r.name for r in report.failures()]


def test_splitting_idempotent(mu_t, mu_line, s3, mu_s3):
    for backend, measure, obj in [
        (SYM, mu_t, sym_obj(2)),
        (LINE, mu_line, line_obj(1)),
        (s3, mu_s3, s3.object_of([s3.atoms_up_to(3)[2]])),
    ]:
        f = build_frobenius(backend, obj, measure.field)
        alpha, reports = check_frobenius(f, measure)
        report = reports["splitting"]
        assert report.passed, [r.name for r in report.failures()]
        ps2 = tensor_space(backend, [obj, obj])
        diag = {i for i, p in enumerate(ps2.positions)
                if p.atom.degree == obj.atoms[0].degree
                and projection(ps2, i, 0)[1] == projection(ps2, i, 1)[1]}
        assert set(alpha.coeffs) == diag


def test_e_idempotent_diagonal_and_all_ones(mu_t):
    x = sym_obj(2)
    ps2 = tensor_space(SYM, [x, x])
    f = build_frobenius(SYM, x, mu_t.field)
    from oligoperm.linmat import column_to_fn

    alpha = column_to_fn(matmul(mu_t, f.comult, f.unit))
    assert e_idempotent_check(SYM, x, alpha, mu_t,
                              splitting_fn(SYM, x, mu_t)).passed

    all_ones = constant_fn(ps2.object, one(mu_t.field))
    assert e_idempotent_check(SYM, x, all_ones, mu_t,
                              splitting_fn(SYM, x, mu_t)).passed


def test_e_idempotent_first_coordinate(mu_t):
    # agreement in the first coordinate on pairs of injective pairs
    x = sym_obj(2)
    a2, a1 = SYM.atom_of_arity(2), SYM.atom_of_arity(1)
    select_first = [m for m in SYM.hom_atoms(a2, a1) if m.data == (1,)][0]
    f = GMap(x, SYM.object_of([a1]), ((0, select_first),))
    gamma = kernel_pair_gamma(SYM, f, mu_t.field)
    report = e_idempotent_check(SYM, x, gamma, mu_t,
                                splitting_fn(SYM, x, mu_t))
    assert report.passed, [r.name for r in report.failures()]
    assert report.result("triple-coherence").to_dict() == {
        "check": "triple-coherence", "status": "PASS"}
    labels = {tensor_space(SYM, [x, x]).positions[i].meta[2]
              for i in gamma.coeffs}
    assert labels == {"[1>1]", "[1>1,2>2]"}


def reference_kernel_pair_gamma(backend, f, field):
    """The kernel-pair indicator position by position: a position of the
    source square is in it when its two legs land in one target atom and
    agree there."""
    ps2 = tensor_space(backend, [f.source, f.source])
    coeffs = {}
    for idx in range(len(ps2.positions)):
        (i, p1), (j, p2) = projection(ps2, idx, 0), projection(ps2, idx, 1)
        (ti, m1), (tj, m2) = f.legs[i], f.legs[j]
        if ti == tj and backend.compose_maps(m1, p1) == \
                backend.compose_maps(m2, p2):
            coeffs[idx] = one(field)
    return SchwartzFn(ps2.object, coeffs)


def two_leg_surjections():
    """(backend, f) for surjections out of a two-atom object whose legs both
    land in one target atom, and on sym the same legs into two copies of
    that atom."""
    cases = []
    for backend, small, big in ((SYM, 1, 2), (LINE, 1, 2),
                                (preset_backend("S3"), 1, 3)):
        a, b = backend.atoms_up_to(6)[small], backend.atoms_up_to(6)[big]
        legs = ((0, backend.identity_map(a)), (0, backend.hom_atoms(b, a)[-1]))
        cases.append((backend, GMap(backend.object_of([a, b]),
                                    backend.object_of([a]), legs)))
    backend, f = cases[0]
    split = ((0, f.legs[0][1]), (1, f.legs[1][1]))
    cases.append((backend, GMap(f.source, f.target + f.target, split)))
    return cases


@pytest.mark.parametrize("backend, f", two_leg_surjections(),
                         ids=["sym", "line", "S3", "sym-two-targets"])
def test_kernel_pair_gamma_on_two_legs_matches_reference(backend, f):
    gamma = kernel_pair_gamma(backend, f, RATIONAL)
    assert gamma == reference_kernel_pair_gamma(backend, f, RATIONAL)
    # pairs across the two source atoms agree only when their legs share a
    # target atom
    ps2 = tensor_space(backend, [f.source, f.source])
    across = any(ps2.positions[k].meta[:2] == (0, 1) for k in gamma.coeffs)
    assert across == (len(f.target.atoms) == 1)


def central_delannoy(g):
    """D(g, g): the ways to interleave two increasing g-tuples in a chain."""
    return sum(math.comb(g, j) ** 2 * 2 ** j for j in range(g + 1))


def test_kernel_pair_supports_have_closed_form_sizes():
    """The support of the kernel-pair gamma of every atom map within degree
    4 (89 on sym, 31 on line) has its closed-form size.  On sym, f:
    inj[n] -> inj[k] forgets n - k coordinates, and a pair it identifies is
    an orbit of inj[n-k] x inj[n-k]: sum_j C(n-k, j)^2 j! of them.  On line,
    f keeps k coordinates of inc[n], and the dropped coordinates of two
    points interleave independently in each gap between kept ones: a gap
    of g dropped coordinates gives D(g, g) ways."""
    maps = 0
    for backend in (SYM, LINE):
        atoms = backend.atoms_up_to(4)
        for a, b in itertools.product(atoms, repeat=2):
            n, k = a.degree, b.degree
            for m in backend.hom_atoms(a, b):
                if backend is SYM:
                    size = sum(math.comb(n - k, j) ** 2 * math.factorial(j)
                               for j in range(n - k + 1))
                else:
                    kept = (0, *m.data, n + 1)
                    size = math.prod(central_delannoy(hi - lo - 1)
                                     for lo, hi in zip(kept, kept[1:]))
                gamma = kernel_pair_gamma(backend, atom_gmap(backend, m),
                                          RATIONAL)
                assert len(gamma.coeffs) == size
                maps += 1
    assert maps == 120


def test_e_idempotent_rejects_asymmetric(mu_t):
    x = sym_obj(2)
    ps2 = tensor_space(SYM, [x, x])
    coeffs = {}
    for i, p in enumerate(ps2.positions):
        if p.meta[2] in {"[1>1,2>2]", "[1>2]"}:
            coeffs[i] = one(mu_t.field)
    gamma = SchwartzFn(ps2.object, coeffs)
    report = e_idempotent_check(SYM, x, gamma, mu_t,
                                splitting_fn(SYM, x, mu_t))
    assert not report.result("symmetric").passed


@pytest.fixture(scope="module")
def swap_cases(mu_t, mu_line, s3, mu_s3):
    """Objects of two atoms, so gamma has positions across the atoms."""
    sym = [SYM.atom_of_arity(n) for n in (1, 2)]
    line = [LINE.atom_of_arity(n) for n in (1, 2)]
    return {
        "sym:inj[1]+inj[2]": (SYM, SYM.object_of(sym), mu_t),
        "line:inc[1]+inc[2]": (LINE, LINE.object_of(line), mu_line),
        "S3:degree-2+3": (s3, s3.object_of(s3.atoms_up_to(3)[1:]), mu_s3),
    }


@pytest.mark.parametrize("case", ["sym:inj[1]+inj[2]", "line:inc[1]+inc[2]",
                                  "S3:degree-2+3"])
def test_symmetric_check_matches_swap_pullback(swap_cases, case):
    """The symmetric check moves gamma's values to the swapped positions.
    On seeded random gammas, symmetric and not, its verdict and witness are
    those of comparing gamma with its pullback along the swap wiring."""
    backend, x, measure = swap_cases[case]
    ps2 = tensor_space(backend, [x, x])
    swap = wiring_gmap(ps2, ps2, (1, 0))
    values = [Scalar.from_int(measure.field, k) for k in (1, 2, 3)]
    size = len(ps2.positions)
    verdicts = []
    for seed in range(24):
        rng = random.Random(seed)
        coeffs = {}
        for p in rng.sample(range(size), rng.randint(1, size // 2)):
            coeffs[p] = rng.choice(values)
            if seed % 2:  # make gamma symmetric
                coeffs[swap.legs[p][0]] = coeffs[p]
        gamma = SchwartzFn(ps2.object, coeffs)
        result = e_idempotent_check(
            backend, x, gamma, measure,
            splitting_fn(backend, x, measure)).result(
            "symmetric")
        expected = difference(pullback_fn(swap, gamma), gamma)
        assert result.passed == (not expected), seed
        assert result.witness == expected, seed
        verdicts.append(result.passed)
    assert all(verdicts[1::2]) and not all(verdicts[::2])


def test_coordinate_agreement_fails_only_triple_coherence(mu_t):
    # "agree in coordinate 1 or in coordinate 2" is idempotent, symmetric and
    # dominates the diagonal, but not transitive
    x = sym_obj(2)
    ps2 = tensor_space(SYM, [x, x])
    related = {"[1>1]", "[2>2]", "[1>1,2>2]"}
    gamma = SchwartzFn(ps2.object, {i: one(mu_t.field)
                                    for i, p in enumerate(ps2.positions)
                                    if p.meta[2] in related})
    report = e_idempotent_check(SYM, x, gamma, mu_t,
                                splitting_fn(SYM, x, mu_t))
    assert [r.name for r in report.failures()] == ["triple-coherence"]
    witness = report.result("triple-coherence").witness
    assert witness["atom"].startswith("sym:inj[")
    pairs = ("12", "13", "23")
    assert sorted(witness[f"gamma-{p}"] for p in pairs) == ["0", "1", "1"]
    for p in pairs:
        assert ((witness[f"orbit-{p}"] in related)
                == (witness[f"gamma-{p}"] == "1"))


def test_flipped_kernel_pair_entry_fails_triple_coherence(mu_line):
    x = line_obj(2)
    a1 = LINE.atom_of_arity(1)
    ps2 = tensor_space(LINE, [x, x])
    for m in LINE.hom_atoms(x.atoms[0], a1):
        f = GMap(x, LINE.object_of([a1]), ((0, m),))
        gamma = kernel_pair_gamma(LINE, f, mu_line.field)
        assert e_idempotent_check(LINE, x, gamma, mu_line,
                                  splitting_fn(LINE, x, mu_line)).passed
        for i in range(len(ps2.positions)):
            coeffs = dict(gamma.coeffs)
            if coeffs.pop(i, None) is None:
                coeffs[i] = one(mu_line.field)
            report = e_idempotent_check(LINE, x, SchwartzFn(ps2.object, coeffs),
                                        mu_line,
                                        splitting_fn(LINE, x, mu_line))
            result = report.result("triple-coherence")
            assert not result.passed
            assert set(result.witness) == {
                "atom", "orbit-12", "gamma-12", "orbit-13", "gamma-13",
                "orbit-23", "gamma-23"}


def test_two_equal_of_three_nonzero_fails_triple_coherence(mu_t):
    # on P + Q, gamma = 1 on every pair whose first (or last) point is in P
    # and t on the rest: every triple-space position sees at least two equal
    # values, and some see 1, 1, t
    a1 = SYM.atom_of_arity(1)
    x = SYM.object_of([a1, a1])
    ps2 = tensor_space(SYM, [x, x])
    t = Scalar.variable(mu_t.field)
    for side in (0, 1):
        gamma = SchwartzFn(ps2.object, {
            i: one(mu_t.field) if p.meta[side] == 0 else t
            for i, p in enumerate(ps2.positions)})
        result = e_idempotent_check(SYM, x, gamma, mu_t,
                                    splitting_fn(SYM, x, mu_t)).result(
            "triple-coherence")
        assert not result.passed
        assert result.witness == reference_triple_coherence(
            SYM, x, gamma, mu_t.field)
        assert sorted(result.witness[f"gamma-{p}"] for p in ("12", "13", "23")
                      ) in (["1", "1", "t"], ["1", "t", "t"])


def triple_wirings(backend, x):
    """The wirings of X x X x X onto X x X by the factor pairs 12, 13 and
    23, with both spaces."""
    ps2 = tensor_space(backend, [x, x])
    ps3 = tensor_space(backend, [x, x, x])
    return ps2, ps3, [wiring_gmap(ps3, ps2, pair)
                      for pair in ((0, 1), (0, 2), (1, 2))]


def reference_triple_coherence(backend, x, gamma, field, wired=None):
    """Triple coherence by its definition: gamma lifted to X x X x X along
    the three pair projections, then the three pointwise products compared.
    Returns {} when they agree, and otherwise the check's witness at the
    first position of X x X x X where they differ.  ``wired`` is what
    ``triple_wirings(backend, x)`` returns, built once by a caller that
    checks many functions on one X."""
    ps2, ps3, wirings = wired or triple_wirings(backend, x)
    p12, p13, p23 = (pullback_fn(w, gamma) for w in wirings)
    products = (p12.pointwise_mul(p23), p12.pointwise_mul(p13),
                p13.pointwise_mul(p23))
    if products[0] == products[1] == products[2]:
        return {}
    z = zero(field)
    p = next(p for p in range(len(ps3.positions))
             if not (products[0].coeffs.get(p, z) == products[1].coeffs.get(p, z)
                     == products[2].coeffs.get(p, z)))
    witness = {"atom": ps3.positions[p].atom.render()}
    for pair, w in zip(("12", "13", "23"), wirings):
        h = w.legs[p][0]
        witness[f"orbit-{pair}"] = ps2.positions[h].meta[2]
        witness[f"gamma-{pair}"] = gamma.coeffs.get(h, z).render()
    return witness


def _int(n):
    return lambda field: Scalar.from_int(field, n)


def _t(field):
    return Scalar.variable(field)


# each value of gamma by several routes, so equal values arrive as distinct
# objects built by different arithmetic
VALUE_ROUTES = {
    "0": [zero, lambda f: one(f) - one(f), _int(0),
          lambda f: _int(2)(f) - one(f) - one(f)],
    "1": [one, _int(1), lambda f: _int(2)(f) / _int(2)(f),
          lambda f: _int(-1)(f) * _int(-1)(f)],
    "-1": [lambda f: -one(f), lambda f: zero(f) - one(f),
           lambda f: Scalar.from_fraction(f, -1), lambda f: one(f) - _int(2)(f)],
    "2": [_int(2), lambda f: one(f) + one(f), lambda f: _int(4)(f) / _int(2)(f)],
    "t": [_t, lambda f: _t(f) * _t(f) / _t(f), lambda f: (_t(f) + one(f)) - one(f),
          lambda f: _t(f) * (_t(f) + one(f)) / (_t(f) + one(f))],
}


@pytest.fixture(scope="module")
def eidem_cases(mu_t, mu_line, s3, mu_s3):
    a2, a3, a6 = s3.atoms_up_to(6)[1:]
    sym1 = SYM.atom_of_arity(1)
    return {
        "sym:inj[1]": (SYM, sym_obj(1), mu_t),
        "sym:inj[2]": (SYM, sym_obj(2), mu_t),
        "sym:inj[3]": (SYM, sym_obj(3), mu_t),
        "sym:inj[1]+inj[1]": (SYM, SYM.object_of([sym1, sym1]), mu_t),
        "sym:inj[1]+inj[2]": (SYM, SYM.object_of([sym1, SYM.atom_of_arity(2)]),
                              mu_t),
        "line:inc[1]": (LINE, line_obj(1), mu_line),
        "line:inc[2]": (LINE, line_obj(2), mu_line),
        "line:inc[3]": (LINE, line_obj(3), mu_line),
        "line:inc[1]+inc[2]": (LINE, LINE.object_of(
            [LINE.atom_of_arity(1), LINE.atom_of_arity(2)]), mu_line),
        "S3:degree-3": (s3, s3.object_of([a3]), mu_s3),
        "S3:degree-6": (s3, s3.object_of([a6]), mu_s3),
        "S3:degree-2+3": (s3, s3.object_of([a2, a3]), mu_s3),
    }


@pytest.fixture(scope="module")
def eidem_wirings():
    """Per case of ``eidem_cases``, its ``triple_wirings``, built on first
    use: on line:inc[3] they take about 0.3 s over 16,081 positions."""
    return {}


@pytest.mark.parametrize("case", [
    "sym:inj[1]", "sym:inj[2]", "sym:inj[3]", "sym:inj[1]+inj[1]",
    "sym:inj[1]+inj[2]", "line:inc[1]", "line:inc[2]", "line:inc[3]",
    "line:inc[1]+inc[2]", "S3:degree-3", "S3:degree-6", "S3:degree-2+3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_triple_coherence_matches_reference(eidem_cases, eidem_wirings, case,
                                            data):
    backend, x, measure = eidem_cases[case]
    wired = eidem_wirings.get(case)
    if wired is None:
        wired = eidem_wirings[case] = triple_wirings(backend, x)
    field = measure.field
    names = [v for v in VALUE_ROUTES if v != "t" or field.kind == "ratfunc"]
    if data.draw(st.booleans(), label="one value"):
        names = [data.draw(st.sampled_from(names), label="value")]
    ps2 = tensor_space(backend, [x, x])
    drawn = data.draw(st.dictionaries(
        st.integers(0, len(ps2.positions) - 1),
        st.sampled_from(names).flatmap(
            lambda v: st.sampled_from(VALUE_ROUTES[v]))), label="gamma")
    gamma = SchwartzFn(ps2.object, {i: route(field)
                                    for i, route in drawn.items()})
    result = e_idempotent_check(backend, x, gamma, measure,
                                splitting_fn(backend, x, measure)).result(
        "triple-coherence")
    # on a FAIL the witness is the first bad position of X x X x X
    expected = reference_triple_coherence(backend, x, gamma, field, wired)
    assert result.passed == (not expected)
    assert result.witness == expected


def full_walk_keys(backend, x):
    """Every orbit of every atom triple of X, off a ``triple_row`` walk of
    every row, as (orbit atom, 12 position, third factor, orbit label, 13
    position, 23 position), sorted.  The keys do not depend on gamma."""
    ps2 = tensor_space(backend, [x, x])
    atoms = x.atoms
    return sorted(
        (orbit.atom, ps2.index[i, j, omega.label], k, orbit.label,
         ps2.index[i, k, to_13[0]], ps2.index[j, k, to_23[0]])
        for i, j, k in itertools.product(range(len(atoms)), repeat=3)
        for omega in backend.product_decompose(atoms[i], atoms[j])
        for orbit, to_23, to_13 in triple_row(backend, omega, atoms[k]))


def full_walk_witness(keys, ps2, gamma, field):
    """The triple-coherence witness off the ``full_walk_keys`` of X: the
    first key, hence the minimum of (orbit atom, 12 position, third factor,
    orbit label) over the orbits where the three products of gamma's values
    differ, or {} when there is none."""
    z = zero(field)

    def incoherent(h12, h13, h23):
        v12, v13, v23 = (gamma.coeffs.get(h, z) for h in (h12, h13, h23))
        return not v12 * v23 == v12 * v13 == v13 * v23

    first = next((key for key in keys if incoherent(key[1], *key[4:])), None)
    if first is None:
        return {}
    atom, h12, _k, _label, h13, h23 = first
    witness = {"atom": atom.render()}
    for pair, h in zip(("12", "13", "23"), (h12, h13, h23)):
        witness[f"orbit-{pair}"] = ps2.positions[h].meta[2]
        witness[f"gamma-{pair}"] = gamma.coeffs.get(h, z).render()
    return witness


@pytest.fixture(scope="module")
def eidem_walks():
    """Per case of ``eidem_cases``, its ``full_walk_keys``, built on first
    use: on line:inc[3] they walk 16,081 orbits."""
    return {}


@pytest.mark.parametrize("case", [
    "sym:inj[2]", "sym:inj[3]", "sym:inj[1]+inj[1]", "sym:inj[1]+inj[2]",
    "line:inc[2]", "line:inc[3]", "line:inc[1]+inc[2]", "S3:degree-3",
    "S3:degree-6", "S3:degree-2+3"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_coherence_witness_matches_full_walk(eidem_cases, eidem_walks, case,
                                            data):
    """A failing gamma's witness, found by walking the failing rows alone,
    is the one a walk of every row of every atom triple finds."""
    backend, x, measure = eidem_cases[case]
    keys = eidem_walks.get(case)
    if keys is None:
        keys = eidem_walks[case] = full_walk_keys(backend, x)
    field = measure.field
    ps2 = tensor_space(backend, [x, x])
    values = [one(field), Scalar.from_int(field, 2)]
    drawn = data.draw(st.dictionaries(st.integers(0, len(ps2.positions) - 1),
                                      st.sampled_from(values), min_size=1),
                      label="gamma")
    gamma = SchwartzFn(ps2.object, drawn)
    result = e_idempotent_check(backend, x, gamma, measure,
                                splitting_fn(backend, x, measure)).result(
        "triple-coherence")
    expected = full_walk_witness(keys, ps2, gamma, field)
    assume(expected)
    assert not result.passed
    assert result.witness == expected


def test_gamma_of_projection_round_trips(mu_t, mu_line):
    for backend, measure, bound in [(SYM, mu_t, 3), (LINE, mu_line, 3)]:
        atoms = backend.atoms_up_to(bound)
        for a in atoms:
            for b in atoms:
                for m in backend.hom_atoms(a, b):
                    f = GMap(backend.object_of([a]), backend.object_of([b]),
                             ((0, m),))
                    gamma, report = gamma_of_projection(backend, f, measure)
                    assert report.passed, (a, b, m.data,
                                           [r.name for r in report.failures()])


def gamma_block_maps(backend):
    """The maps of a bound-3 suite's gamma block, as one-leg object maps."""
    atoms = backend.atoms_up_to(3)
    return [GMap(backend.object_of([a]), backend.object_of([b]), ((0, m),))
            for a in atoms for b in atoms for m in backend.hom_atoms(a, b)]


def square_gmap(backend, f):
    """f x f between the squares of its source and its target."""
    return product_gmap(backend, f, f, tensor_space(backend, [f.source] * 2),
                        tensor_space(backend, [f.target] * 2))


@pytest.mark.parametrize("name", ["sym", "line", "S3"])
def test_function_pullback_matches_matrix_route(name, mu_t, mu_line, mu_s3):
    """Pulling a function on X x X back along f x f reads its value at each
    image orbit, which is what integrating it against the pullback matrix
    gives: for a seeded non-constant function on the target square of every
    map of a bound-3 gamma block."""
    measure = {"sym": mu_t, "line": mu_line, "S3": mu_s3}[name]
    backend, field = measure.backend, measure.field
    rng = random.Random(41)
    for f in gamma_block_maps(backend):
        fxf = square_gmap(backend, f)
        values = [rng.randint(-3, 5) for _ in fxf.target.atoms]
        if len(values) > 1 and len(set(values)) == 1:
            values[0] += 1
        fn = SchwartzFn(fxf.target, {i: Scalar.from_int(field, v)
                                     for i, v in enumerate(values)})
        by_matrix = matmul(measure, pullback_matrix(backend, fxf, field),
                           column_matrix(backend, fn))
        assert pullback_fn(fxf, fn) == column_to_fn(by_matrix), f


@pytest.mark.parametrize("name", ["sym", "line", "S3"])
def test_wrong_product_images_fail_the_pullback_check(name, mu_t, mu_line,
                                                      mu_s3, monkeypatch):
    """A ``product_images`` that sends every orbit to the next orbit of the
    target product makes ``pullback-of-target-splitting`` fail on every map
    of a bound-3 gamma block whose target square has another orbit to send
    to, and on no other map."""
    measure = {"sym": mu_t, "line": mu_line, "S3": mu_s3}[name]
    backend = measure.backend
    real = linmat.product_images

    def shifted(backend, f, g):
        labels = [o.label for o in backend.product_decompose(f.target, g.target)]
        return tuple((labels[(labels.index(label) + 1) % len(labels)], m)
                     for label, m in real(backend, f, g))

    monkeypatch.setattr(linmat, "product_images", shifted)
    failing, movable = [], []
    for f in gamma_block_maps(backend):
        _gamma, report = gamma_of_projection(backend, f, measure)
        if not report.result("pullback-of-target-splitting").passed:
            failing.append(f)
        (x,) = f.target.atoms
        if len(backend.product_decompose(x, x)) > 1:
            movable.append(f)
    assert failing and failing == movable


def test_gamma_of_identity_is_diagonal(mu_t):
    x = sym_obj(2)
    f = SYM.identity_gmap(x)
    gamma, report = gamma_of_projection(SYM, f, mu_t)
    assert report.passed
    fstruct = build_frobenius(SYM, x, mu_t.field)
    from oligoperm.linmat import column_to_fn

    alpha = column_to_fn(matmul(mu_t, fstruct.comult, fstruct.unit))
    assert gamma == alpha


def test_gamma_not_surjective_error(s3, mu_s3):
    atoms = s3.atoms_up_to(6)
    x = s3.object_of([atoms[0]])
    y = s3.object_of([atoms[0], atoms[1]])
    f = GMap(x, y, ((0, s3.identity_map(atoms[0])),))
    with pytest.raises(NotSurjective):
        gamma_of_projection(s3, f, mu_s3)


def test_finite_bgamma_dimensions(s3, mu_s3):
    # kernel of x -> gamma (x tensor 1 - 1 tensor x) has dimension |target|
    from oligoperm.oracle import bgamma_kernel_dimension

    atoms = s3.atoms_up_to(6)
    for a in atoms:
        for b in atoms:
            for m in s3.hom_atoms(a, b):
                f = GMap(s3.object_of([a]), s3.object_of([b]), ((0, m),))
                gamma = kernel_pair_gamma(s3, f, mu_s3.field)
                dim = bgamma_kernel_dimension(s3, s3.object_of([a]), gamma,
                                              mu_s3.field)
                assert dim == b.degree


def test_invariant_algebra_idempotents_are_atom_subsets(mu_t):
    # idempotents of the pointwise invariant algebra on Vec_X are the 0/1
    # functions; the minimal nonzero ones pick out single atoms
    import itertools

    x = SYM.object_of([SYM.atom_of_arity(1), SYM.atom_of_arity(2)])
    field = mu_t.field
    idempotents = []
    zero_one = [Scalar.from_int(field, 0), Scalar.from_int(field, 1)]
    for combo in itertools.product(zero_one, repeat=len(x.atoms)):
        fn = SchwartzFn(x, dict(enumerate(combo)))
        if fn.pointwise_mul(fn) == fn:
            idempotents.append(fn)
    assert len(idempotents) == 2 ** len(x.atoms)
    minimal = [fn for fn in idempotents if len(fn.coeffs) == 1]
    assert len(minimal) == len(x.atoms)


def test_sum_tensor_traces(mu_t, mu_line):
    report = check_sum_tensor_traces(SYM, sym_obj(1), sym_obj(1), mu_t)
    assert report.passed, [r.name for r in report.failures()]
    report = check_sum_tensor_traces(LINE, line_obj(1), line_obj(2), mu_line)
    assert report.passed, [r.name for r in report.failures()]
    report = check_sum_tensor_traces(SYM, SYM.unit_object(), sym_obj(2), mu_t)
    assert report.passed, [r.name for r in report.failures()]


def reference_pairing_product(backend, xa, xb, measure):
    """beta_a(a, a') beta_b(b, b') on each position ((a, b), (a', b')) of
    (X_a x X_b)^2, from its projections one position at a time."""
    prod = tensor_space(backend, [xa, xb])
    square = tensor_space(backend, [prod.object, prod.object])
    betas = [(row_to_fn(trace_pairing(build_frobenius(backend, x, measure.field),
                                      measure)), tensor_space(backend, [x, x]))
             for x in (xa, xb)]
    coeffs = {}
    for p in range(len(square.positions)):
        maps = []  # onto a, b, a', b'
        for half in range(2):
            q, m = projection(square, p, half)
            for i in range(2):
                fp, pm = projection(prod, q, i)
                maps.append((fp, backend.compose_maps(pm, m)))
        values = [beta.coeffs.get(multi_factor(backend, [maps[u], maps[v]],
                                               ps)[0])
                  for (beta, ps), (u, v) in zip(betas, ((0, 2), (1, 3)))]
        if None not in values:
            coeffs[p] = values[0] * values[1]
    return SchwartzFn(square.object, coeffs)


@pytest.mark.parametrize("name, na, nb", [("sym", 1, 1), ("line", 1, 2),
                                          ("sym", 0, 2)])
def test_tensor_pairing_rhs_matches_reference(monkeypatch, mu_t, mu_line,
                                              name, na, nb):
    """The right side of tensor-pairing-factorizes, carried onto
    (X_a x X_b)^2, is the product of the two pairings position by position.
    Dropping, doubling or adding one right-side entry, or perturbing one
    value of the product's pairing, turns the check to FAIL."""
    backend, measure, obj = {"sym": (SYM, mu_t, sym_obj),
                             "line": (LINE, mu_line, line_obj)}[name]
    xa, xb = obj(na), obj(nb)
    real_equality, real_block_tensor = frob.equality, frob.block_tensor
    sides, perturb = [], []

    def record(check, lhs, rhs):
        if check == "tensor-pairing-factorizes":
            sides.append((lhs, rhs))
            for change in perturb:
                lhs = SchwartzFn(lhs.carrier, change(dict(lhs.coeffs)))
        return real_equality(check, lhs, rhs)

    def fails():
        return not check_sum_tensor_traces(backend, xa, xb, measure).result(
            "tensor-pairing-factorizes").passed

    monkeypatch.setattr(frob, "equality", record)
    assert not fails()
    ((lhs, rhs),) = sides
    assert rhs == reference_pairing_product(backend, xa, xb, measure)
    assert rhs.coeffs

    seen = []

    def mutate(change):
        def patched(mats, src_ps, *rest):
            out = real_block_tensor(mats, src_ps, *rest)
            if len(src_ps.factors) != 4:
                return out
            seen.append((src_ps, out))
            return InvariantMatrix(out.backend, out.source, out.target,
                                   change(dict(out.entries)))
        monkeypatch.setattr(frob, "block_tensor", patched)

    mutate(lambda entries: entries)
    assert not fails()
    ((rows, beta_ab),) = seen
    for key, value in beta_ab.entries.items():
        mutate(lambda e, key=key: {k: v for k, v in e.items() if k != key})
        assert fails(), ("dropped", key)
        mutate(lambda e, key=key, value=value: {**e, key: value + value})
        assert fails(), ("doubled", key)

    # an entry on the first row of X_a x X_b x X_a x X_b off the support
    support = {row for _unit, row, _label in beta_ab.entries}
    extra_row, atom = next(
        ((lp, rp, o.label), o.atom)
        for lp, lpos in enumerate(rows.left.positions)
        for rp, ratom in enumerate(xb.atoms)
        for o in backend.product_decompose(lpos.atom, ratom)
        if (lp, rp, o.label) not in support)
    w = next(iter(beta_ab.entries))[0]
    extra = (w, extra_row,
             backend.product_decompose(beta_ab.target.atoms[w], atom)[0].label)
    mutate(lambda e: {**e, extra: one(measure.field)})
    assert fails(), ("extra", extra)

    monkeypatch.setattr(frob, "block_tensor", real_block_tensor)
    for pos, value in lhs.coeffs.items():
        perturb[:] = [lambda c, pos=pos, value=value:
                      {**c, pos: value + one(measure.field)}]
        assert fails(), ("perturbed", pos)


def test_tensor_pairing_numbers_no_four_fold_product(monkeypatch, mu_line):
    """sum-tensor-traces builds the product of the pairings by row, so no
    product space of four or more factors is asked for."""
    real = linmat.tensor_space
    arities = []

    def counted(backend, factors):
        factors = tuple(factors)
        arities.append(len(factors))
        return real(backend, factors)

    for name, module in list(sys.modules.items()):
        if (name.startswith("oligoperm")
                and getattr(module, "tensor_space", None) is real):
            monkeypatch.setattr(module, "tensor_space", counted)
    report = check_sum_tensor_traces(LINE, line_obj(2), line_obj(1), mu_line)
    assert report.passed, [r.name for r in report.failures()]
    assert arities and max(arities) < 4


def test_tensor_pairing_fails_when_rows_share_a_position(monkeypatch, mu_line):
    """Two right-side rows carried onto one position of (X_a x X_b)^2 turn
    tensor-pairing-factorizes to FAIL instead of overwriting each other."""
    xa, xb = line_obj(2), line_obj(1)
    square = tensor_space(LINE, [tensor_space(LINE, [xa, xb]).object] * 2)
    real, first = frob.multi_factor, []

    def collide(backend, maps, space):
        p, g = real(backend, maps, space)
        if space is square:
            first.append(p)
            return first[0], g
        return p, g

    monkeypatch.setattr(frob, "multi_factor", collide)
    result = check_sum_tensor_traces(LINE, xa, xb, mu_line).result(
        "tensor-pairing-factorizes")
    assert len(set(first)) > 1
    assert not result.passed
    assert result.witness["failing-positions"] == str(len(first) - 1)
    assert result.witness["position"] == str(first[0])


@pytest.mark.parametrize("make", [type(SYM), type(LINE),
                                  lambda: preset_backend("S3")],
                         ids=["sym", "line", "S3"])
def test_frobenius_structure_is_built_once_per_object_and_field(make):
    """``build_frobenius`` reads no measure, so the backend cache keeps one
    structure per object and field: a second call returns it, another
    field gets its own, and each equals an uncached build."""
    backend = make()
    x = backend.object_of(backend.atoms_up_to(2)[1:])
    fields = [RATIONAL, ratfunc_field("t")]
    built = [build_frobenius(backend, x, field) for field in fields]
    for f, field in zip(built, fields):
        assert build_frobenius(backend, x, field) is f
        fresh = frob._build_frobenius(backend, x, field)
        assert f is not fresh and f.carrier == x
        for part in ("unit", "mult", "counit", "comult"):
            assert getattr(f, part) == getattr(fresh, part), part
            assert next(iter(getattr(f, part).entries.values())) == one(field)
    assert [key for key in backend.cache if key[0] == "frobenius"] == [
        ("frobenius", x, field) for field in fields]


# X x X x X by row: the Frobenius and duality chains never number X^3


@pytest.mark.parametrize("make", [type(SYM), type(LINE),
                                  lambda: preset_backend("S3")],
                         ids=["sym", "line", "S3"])
def test_frobenius_chains_build_no_flat_triple_space(make):
    """The axiom, trace, pairing and snake checks on a degree-3 atom address
    X x X x X by row: no flat triple space enters the backend cache."""
    backend = make()
    measure = solve_measures(backend, 3).generic()
    x = backend.object_of([next(a for a in backend.atoms_up_to(3)
                                if a.degree == 3)])
    f = build_frobenius(backend, x, measure.field)
    for report in check_frobenius(f, measure)[1].values():
        assert report.passed, [r.name for r in report.failures()]
    assert ("space", (x, x, x)) not in backend.cache
    assert not [k for k in backend.cache if k[0] == "space" and len(k[1]) > 2]
    assert f.ps3.atoms


def triple_paddings(measure, x, ps3):
    """The maps between X x X x X (``ps3``) and smaller products that the
    Frobenius and duality chains compose through."""
    backend, field = measure.backend, measure.field
    ps2 = tensor_space(backend, [x, x])
    unit = backend.unit_object()
    right_unit = tensor_space(backend, [x, unit])
    left_unit = tensor_space(backend, [unit, x])
    ident = identity_matrix(backend, x, field)
    coev, ev = duality_data(backend, x, field)
    return {
        "mu_id": pullback_matrix(backend, wiring_gmap(ps2, ps3, (0, 0, 1)),
                                 field),
        "id_mu": pullback_matrix(backend, wiring_gmap(ps2, ps3, (0, 1, 1)),
                                 field),
        "delta_id": pushforward_matrix(
            backend, wiring_gmap(ps2, ps3, (0, 0, 1)), field),
        "id_delta": pushforward_matrix(
            backend, wiring_gmap(ps2, ps3, (0, 1, 1)), field),
        "id_coev": block_tensor([ident, coev], right_unit, ps3,
                                [[0], [1]], [[0], [1, 2]]),
        "ev_id": block_tensor([ev, ident], ps3, left_unit,
                              [[0, 1], [2]], [[0], [1]]),
        "coev_id": block_tensor([coev, ident], left_unit, ps3,
                                [[0], [1]], [[0, 1], [2]]),
        "id_ev": block_tensor([ident, ev], ps3, right_unit,
                              [[0], [1, 2]], [[0], [1]]),
    }


def numbered(matrix, rows, flat):
    """``matrix`` with every row of ``rows`` replaced by its position in the
    flat space of the same factors, checking the row's atom on the way."""
    def place(obj, key):
        if obj is not rows:
            return key
        assert rows.atoms[key] == flat.positions[flat.index[key]].atom
        return flat.index[key]

    return InvariantMatrix(
        matrix.backend,
        flat.object if matrix.source is rows else matrix.source,
        flat.object if matrix.target is rows else matrix.target,
        {(place(matrix.target, t), place(matrix.source, s), label): value
         for (t, s, label), value in matrix.entries.items()})


@pytest.mark.parametrize("name", ["sym", "line", "S3"])
def test_row_paddings_match_flat_triple_space(request, name):
    """Every padding on the row-keyed X x X x X, renumbered through the flat
    ``tensor_space([X, X, X])``, is the padding built on the flat space, and
    so are the composites the checks form with them."""
    backend, measure = {
        "sym": lambda: (SYM, request.getfixturevalue("mu_t")),
        "line": lambda: (LINE, request.getfixturevalue("mu_line")),
        "S3": lambda: (request.getfixturevalue("s3"),
                       request.getfixturevalue("mu_s3")),
    }[name]()
    atoms = backend.atoms_up_to(2)
    objects = ([backend.object_of([a]) for a in atoms]
               + [backend.object_of(atoms[:2])])
    for x in objects:
        f = build_frobenius(backend, x, measure.field)
        rows, flat = RowProduct(backend, [x] * 3), tensor_space(backend, [x] * 3)
        by_row = triple_paddings(measure, x, rows)
        by_position = triple_paddings(measure, x, flat)
        for key, matrix in by_row.items():
            assert matrix.entries, key
            assert numbered(matrix, rows, flat) == by_position[key], key

        def composites(p):
            return [
                matmul(measure, f.mult, p["mu_id"]),
                matmul(measure, f.mult, p["id_mu"]),
                matmul(measure, p["delta_id"], f.comult),
                matmul(measure, p["id_delta"], f.comult),
                matmul(measure, p["id_mu"], p["delta_id"]),
                matmul(measure, p["mu_id"], p["id_delta"]),
                matmul(measure, p["mu_id"], p["id_coev"]),
                matmul(measure, p["ev_id"], p["id_coev"]),
                matmul(measure, p["id_ev"], p["coev_id"]),
            ]

        for got, want in zip(composites(by_row), composites(by_position)):
            assert numbered(got, rows, flat) == want
