"""Cross-module invariants from the module contracts."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oligoperm.coeff import Scalar, one
from oligoperm.frob import build_frobenius, kernel_pair_gamma, trace_form
from oligoperm.gset import LINE, SYM, GMap, preset_backend
from oligoperm.linmat import (
    block_tensor,
    identity_matrix,
    matmul,
    pullback_matrix,
    pushforward_matrix,
    tensor_space,
    wiring_gmap,
)
from oligoperm.measure import solve_measures
from oligoperm.oracle import expand_sym_matrix, literal_product
from oligoperm.permcat import duality_data, hom_basis


@pytest.fixture(scope="module")
def mu_t():
    return solve_measures(SYM, 3).generic()


@pytest.fixture(scope="module")
def mu_line():
    return solve_measures(LINE, 3).generic()


def test_fiber_class_multisets_concatenate():
    # concatenating the factors' class multisets realizes one factorization
    # path of the composite; for the symmetric backend every path gives the
    # same multiset, so there it is an equality
    for backend, arity in ((SYM, SYM.atom_of_arity), (LINE, LINE.atom_of_arity)):
        a, b, c = arity(3), arity(2), arity(1)
        for f in backend.hom_atoms(a, b):
            for g in backend.hom_atoms(b, c):
                combined = tuple(sorted(backend.elementary_factorize(f)
                                        + backend.elementary_factorize(g)))
                composite = backend.compose_maps(g, f)
                assert combined in backend.factorization_class_multisets(composite)
                if backend is SYM:
                    assert combined == tuple(sorted(
                        backend.elementary_factorize(composite)))


def test_finite_chain_multiplicativity():
    backend = preset_backend("S3")
    measure = solve_measures(backend, 6).generic()
    atoms = backend.atoms_up_to(6)
    for a in atoms:
        for b in atoms:
            for c in atoms:
                for f in backend.hom_atoms(a, b):
                    for g in backend.hom_atoms(b, c):
                        gf = backend.compose_maps(g, f)
                        assert measure.mu_map(gf) == \
                            measure.mu_map(f) * measure.mu_map(g)


def test_product_measure_multiplicative(mu_t, mu_line):
    for backend, measure, bound in ((SYM, mu_t, 3), (LINE, mu_line, 3)):
        atoms = backend.atoms_up_to(bound)
        for a in atoms:
            for b in atoms:
                x = backend.object_of([a])
                y = backend.object_of([b])
                prod = tensor_space(backend, [x, y]).object
                assert measure.mu_object(prod) == \
                    measure.mu_object(x) * measure.mu_object(y)


def test_trace_form_independent_of_duality_choice(mu_t):
    # recompute the trace composite with the swapped self-duality
    x = SYM.object_of([SYM.atom_of_arity(2)])
    field = mu_t.field
    frob = build_frobenius(SYM, x, field)
    baseline = trace_form(frob, mu_t)

    coev, ev = duality_data(SYM, x, field)
    ps2 = tensor_space(SYM, [x, x])
    swap = pushforward_matrix(SYM, wiring_gmap(ps2, ps2, (1, 0)), field)
    coev_swapped = matmul(mu_t, swap, coev)
    ev_swapped = matmul(mu_t, ev, swap)

    ident = identity_matrix(SYM, x, field)
    right_unit = tensor_space(SYM, [x, SYM.unit_object()])
    id_coev = block_tensor([ident, coev_swapped], right_unit, frob.ps3,
                           [[0], [1]], [[0], [1, 2]])
    mu_id = pullback_matrix(SYM, wiring_gmap(frob.ps2, frob.ps3, (0, 0, 1)),
                            field)
    recomputed = matmul(mu_t, ev_swapped, matmul(mu_t, mu_id, id_coev))
    assert recomputed == baseline


def sym_matmul_agrees(measure, bmat, amat, n_points):
    """Integral composition against the literal product of the two matrices
    expanded over the injective tuples of an n_points-point model, both in
    the sparse form that lists the nonzero entries by (row, column)."""
    composed = matmul(measure, bmat, amat)
    lhs = expand_sym_matrix(composed, n_points)
    rhs = literal_product(expand_sym_matrix(bmat, n_points),
                          expand_sym_matrix(amat, n_points))
    return lhs == rhs


def test_sym_model_matmul_oracle(mu_t):
    x = SYM.object_of([SYM.atom_of_arity(2)])
    basis = hom_basis(SYM, x, x, mu_t.field)
    for b, a in itertools.product(basis[:4], repeat=2):
        assert sym_matmul_agrees(mu_t, b, a, 6)


def test_char_p_families():
    family = solve_measures(SYM, 3, char=5)
    a = Scalar.variable(family.field)
    atom = SYM.atom_of_arity(3)
    assert family.atom_values[atom] == a * (a - 1) * (a - 2)
    assert family.residual == ()

    line_family = solve_measures(LINE, 3, char=3)
    assert line_family.atom_values[LINE.atom_of_arity(1)] == \
        Scalar.from_int(line_family.field, -1)
    assert line_family.residual == ()


def test_gamma_injective_on_kernel_pairs(mu_t):
    # distinct kernel pairs of surjections give distinct idempotents
    a2 = SYM.atom_of_arity(2)
    x = SYM.object_of([a2])
    gammas = {}
    for b in SYM.atoms_up_to(2):
        for m in SYM.hom_atoms(a2, b):
            f = GMap(x, SYM.object_of([b]), ((0, m),))
            gamma = kernel_pair_gamma(SYM, f, mu_t.field)
            key = frozenset(gamma.coeffs)
            kernel = frozenset(
                o.label for o in SYM.product_decompose(a2, a2)
                if SYM.compose_maps(m, o.proj1) == SYM.compose_maps(m, o.proj2))
            gammas.setdefault(key, set()).add(kernel)
    for kernels in gammas.values():
        assert len(kernels) == 1
    # collapse, select-first, select-second, identity
    assert len(gammas) == 4


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 30))
def test_product_identity_specializes(n_points):
    family = solve_measures(SYM, 2)
    measure = family.specialize(n_points)
    a = SYM.atom_of_arity(1)
    b = SYM.atom_of_arity(2)
    lhs = measure.mu_atom(a) * measure.mu_atom(b)
    rhs = sum((measure.mu_atom(o.atom) for o in SYM.product_decompose(a, b)),
              start=Scalar.from_int(measure.field, 0))
    assert lhs == rhs
