"""Frobenius structure on free permutation objects, and its verifications.

Every Vec_X carries: unit = pullback of the collapse (the all-ones invariant),
multiplication = pullback of the diagonal (pointwise product), counit =
pushforward of the collapse (integrate against one), comultiplication =
pushforward of the diagonal.  The checks below verify the algebra, coalgebra,
compatibility and specialness laws; the trace form composite; perfectness of
the trace pairing; splitting idempotents; and the correspondence between
equivalence idempotents and kernel pairs of backend surjections.

The perfect-pairing check is ``permcat.triangle_identities`` applied to the
Frobenius duality (comult o unit, counit o mult, ``frobenius_duality``); the
snake check applies it to the diagonal duality.  Checks that verify comult o
unit still compute it by matrix multiplication, so comparing it with the
diagonal coevaluation stays a real check.  ``check_perfect_pairing`` and
``permcat.check_snake_identities`` each run the identities and fold the
result into a report (``pairing_report``, ``permcat.snake_report``).  The
suite's Frobenius block shares one run between the two reports only when
the two dualities compare equal, as they do on a correct structure; when
they differ, as with a wrong comult, the snake check runs its own, so a wrong
comult fails the pairing check alone.

``build_frobenius`` reads no measure, so the backend cache keeps one
structure per object and field.  ``gamma_of_projection`` is
``e_idempotent_check`` of the kernel-pair gamma, the target's
``splitting_fn`` and ``kernel_pair_report``, which adds the pullback check;
the suite's gamma block calls the same three, sharing the first per source
atom and gamma and the second per target atom within one call.

All structure maps, and the associativity and coassociativity paddings, are
pushforwards or pullbacks of explicit coordinate wirings between product
spaces.  The unit and counit paddings (``eta_id`` and ``eps_id`` in
``verify_frobenius``, ``id_coev`` in ``trace_form``) and those of
``permcat.triangle_identities`` are instead tensor products of matrices,
built by ``linmat.block_tensor``.  Every padding through ``X x X x X``
addresses it by row through a ``linmat.RowProduct``
(``FrobeniusStructure.ps3``, or ``triangle_identities``' own), so no check
numbers the orbits of the triple product.  ``check_sum_tensor_traces``
builds the product of two pairings by row on ``X_a x X_b x X_a x X_b`` in
the same way and carries its few rows to ``(X_a x X_b)^2`` one at a time,
so no check numbers a four-fold product either.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple

from .coeff import one, zero
from .errors import NotSurjective
from .gset.base import (agreeing_orbits, kernel_pair, orbit_by_label,
                        triple_row, triple_table)
from .linmat import (
    InvariantMatrix,
    RowProduct,
    SchwartzFn,
    block_tensor,
    column_to_fn,
    identity_matrix,
    matmul,
    multi_factor,
    product_gmap,
    projection,
    pullback_fn,
    pullback_matrix,
    pushforward_matrix,
    row_to_fn,
    tensor_space,
    transpose,
    wiring_gmap,
)
from .permcat import coproduct_with_inclusions, duality_data, triangle_identities
from .report import CheckResult, Report, difference, equality, verdict


class FrobeniusStructure(NamedTuple):
    carrier: object  # GObject
    unit: InvariantMatrix          # 1 -> A
    mult: InvariantMatrix          # A (x) A -> A
    counit: InvariantMatrix        # A -> 1
    comult: InvariantMatrix        # A -> A (x) A
    ps1: object
    ps2: object
    ps3: object  # a RowProduct: X x X x X by row

    @property
    def backend(self):
        return self.ps1.backend


def build_frobenius(backend, x, field):
    """The natural Frobenius structure on Vec_X over ``field``.  It reads no
    measure, so it is built once per object and field and kept in the
    backend cache under ``("frobenius", x, field)``."""
    return backend._memo(("frobenius", x, field), _build_frobenius,
                         backend, x, field)


def _build_frobenius(backend, x, field):
    """``build_frobenius`` uncached."""
    ps1 = tensor_space(backend, [x])
    ps2 = tensor_space(backend, [x, x])
    collapse = backend.collapse_gmap(x)
    counit = pushforward_matrix(backend, collapse, field)
    comult = pushforward_matrix(backend, wiring_gmap(ps1, ps2, (0, 0)), field)
    return FrobeniusStructure(
        carrier=x,
        unit=transpose(counit),
        mult=transpose(comult),
        counit=counit,
        comult=comult,
        ps1=ps1,
        ps2=ps2,
        ps3=RowProduct(backend, [x] * 3),
    )


def verify_frobenius(f, measure):
    """The four Frobenius axioms, each law checked as a matrix identity."""
    backend = f.backend
    field = measure.field
    x = f.carrier
    ident = identity_matrix(backend, x, field)
    unit_right = tensor_space(backend, [backend.unit_object(), x])
    results = []

    # (a) commutative associative unital algebra
    swap = pushforward_matrix(backend, wiring_gmap(f.ps2, f.ps2, (1, 0)), field)
    delta_id = pushforward_matrix(backend,
                                  wiring_gmap(f.ps2, f.ps3, (0, 0, 1)), field)
    id_delta = pushforward_matrix(backend,
                                  wiring_gmap(f.ps2, f.ps3, (0, 1, 1)), field)
    mu_id, id_mu = transpose(delta_id), transpose(id_delta)
    results.append(equality("algebra-associativity",
                            matmul(measure, f.mult, mu_id),
                            matmul(measure, f.mult, id_mu)))
    results.append(equality("algebra-commutativity",
                            matmul(measure, f.mult, swap), f.mult))
    eta_id = block_tensor([f.unit, ident], unit_right, f.ps2,
                          [[0], [1]], [[0], [1]])
    results.append(equality("algebra-unit", matmul(measure, f.mult, eta_id),
                            ident))

    # (b) cocommutative coassociative counital coalgebra
    results.append(equality("coalgebra-coassociativity",
                            matmul(measure, delta_id, f.comult),
                            matmul(measure, id_delta, f.comult)))
    results.append(equality("coalgebra-cocommutativity",
                            matmul(measure, swap, f.comult), f.comult))
    eps_id = block_tensor([f.counit, ident], f.ps2, unit_right,
                          [[0], [1]], [[0], [1]])
    results.append(equality("coalgebra-counit",
                            matmul(measure, eps_id, f.comult), ident))

    # (c) the compatibility square
    lhs = matmul(measure, id_mu, delta_id)
    mid = matmul(measure, f.comult, f.mult)
    rhs = matmul(measure, mu_id, id_delta)
    witness = difference(lhs, mid) or difference(mid, rhs)
    results.append(CheckResult("frobenius-compatibility", not witness, witness))

    # (d) multiplication splits comultiplication
    results.append(equality("special", matmul(measure, f.mult, f.comult), ident))

    return Report(f"frobenius axioms on Vec[{x.render()}]", results)


def trace_form(f, measure):
    """The duality composite A -> A(x)A(x)A -> A(x)A -> 1 realizing the trace."""
    backend = f.backend
    field = measure.field
    x = f.carrier
    ident = identity_matrix(backend, x, field)
    coev, ev = duality_data(backend, x, field)
    right_unit = tensor_space(backend, [x, backend.unit_object()])
    id_coev = block_tensor([ident, coev], right_unit, f.ps3,
                           [[0], [1]], [[0], [1, 2]])
    mu_id = pullback_matrix(backend, wiring_gmap(f.ps2, f.ps3, (0, 0, 1)), field)
    trace = matmul(measure, ev, matmul(measure, mu_id, id_coev))
    return trace


def trace_pairing(f, measure):
    return matmul(measure, f.counit, f.mult)


def check_trace(f, measure):
    """trace form equals the counit, and the counit is the transposed unit."""
    trace = trace_form(f, measure)
    results = [
        equality("trace-form-is-counit", trace, f.counit),
        equality("counit-is-unit-transpose", f.counit, transpose(f.unit)),
    ]
    return Report(f"trace checks on Vec[{f.carrier.render()}]", results)


def frobenius_duality(f, measure):
    """The Frobenius duality on Vec_X: the candidate coevaluation
    comult o unit and the pairing counit o mult, each by ``matmul``."""
    return matmul(measure, f.comult, f.unit), trace_pairing(f, measure)


def pairing_report(x, sides):
    """The perfect-pairing report on Vec_X from ``sides``, the (right, left)
    result of ``triangle_identities`` on the Frobenius duality."""
    right, left = sides
    results = [
        CheckResult("pairing-triangle-right", not right, right),
        CheckResult("pairing-triangle-left", not left, left),
    ]
    return Report(f"perfect pairing on Vec[{x.render()}]", results)


def check_perfect_pairing(f, measure):
    """The pairing counit o mult is perfect: the candidate coevaluation
    comult o unit satisfies both triangle identities."""
    coev, ev = frobenius_duality(f, measure)
    return pairing_report(f.carrier,
                          triangle_identities(measure, f.carrier, coev, ev))


def splitting_idempotent(f, measure):
    """The splitting idempotent comult(1), with its defining verifications."""
    backend = f.backend
    field = measure.field
    alpha_col = matmul(measure, f.comult, f.unit)
    alpha_fn = column_to_fn(alpha_col)
    results = []

    results.append(equality("idempotent", alpha_fn.pointwise_mul(alpha_fn),
                            alpha_fn))
    results.append(equality("multiplies-to-one",
                            matmul(measure, f.mult, alpha_col), f.unit))

    pr1 = pullback_matrix(backend, wiring_gmap(f.ps2, f.ps1, (0,)), field)
    pr2 = pullback_matrix(backend, wiring_gmap(f.ps2, f.ps1, (1,)), field)
    # pointwise multiplication by alpha, on the diagonal of the identity
    ident = identity_matrix(backend, alpha_fn.carrier, field)
    diag_alpha = InvariantMatrix(backend, alpha_fn.carrier, alpha_fn.carrier, {
        key: alpha_fn.coeffs[key[0]]
        for key in ident.entries if key[0] in alpha_fn.coeffs})
    left = matmul(measure, diag_alpha, pr1)
    right = matmul(measure, diag_alpha, pr2)
    results.append(equality("balanced", left, right))

    # round trips: x -> (x(x)1)alpha recovers the comultiplication, and
    # evaluating the comultiplication at the unit recovers alpha
    results.append(equality("splitting-recovers-comult", left, f.comult))
    coev, _ = duality_data(backend, f.carrier, field)
    results.append(equality("equals-diagonal-coevaluation", alpha_col, coev))

    report = Report(f"splitting idempotent on Vec[{f.carrier.render()}]", results)
    return alpha_fn, report


def _coherent(a, b, c):
    """Whether g12 g23 == g12 g13 == g13 g23 for values with ids a, b, c
    (0 for zero, equal ids for equal values): at most one is nonzero, or all
    three are nonzero and equal."""
    if a and b and c:
        return a == b == c
    return (a, b, c).count(0) >= 2


def e_idempotent_check(backend, x, gamma, measure):
    """Equivalence-idempotent conditions for an invariant function on X x X.

    Triple coherence asks that g12 g23, g12 g13 and g13 g23 agree on X x X x X,
    where gij is gamma pulled back along the projection onto factors i and j.
    Every field here is an integral domain, so at one position, with values
    a, b, c of g12, g13, g23: if at most one is nonzero, all three products
    are zero; if exactly two are nonzero, one product is nonzero and the
    other two are zero; if all three are nonzero, ac = ab and ab = bc cancel
    to c = b and a = c.  So the check multiplies nothing: it gives each
    distinct nonzero value of gamma an id and tests the distinct id triples
    on the orbits of X x X x X.  It never builds X x X x X.  Per atom triple
    of X it first forms, from the ids alone, for each 12 id a and 23 id c
    the mask of the 13 orbits whose id b makes (a, b, c) incoherent; a
    triple whose masks are all 0 cannot fail and reads no table.  Otherwise
    it tests each row of ``triple_table`` (per 12 orbit, the mask of the 13
    orbits that occur with each 23 orbit) once: the row fails when the OR
    of its entries over the 23 orbits of some id c meets the mask of its
    12 id and c.  On a failure it reports the first bad position in
    ``tensor_space([X, X, X])`` order, found among the failing rows: its
    atom, its three pair orbits and gamma's three values there.
    """
    field = measure.field
    ps2 = tensor_space(backend, [x, x])
    if gamma.carrier != ps2.object:
        raise ValueError("gamma must live on the square of its object")
    results = []

    results.append(equality("idempotent", gamma.pointwise_mul(gamma), gamma))

    alpha_fn = splitting_fn(backend, x, measure)
    results.append(equality("dominates-diagonal",
                            alpha_fn.pointwise_mul(gamma), alpha_fn))

    # gamma moved along the swap, an involution, is gamma pulled back by it
    atoms = x.atoms
    swapped = {}
    for pos, value in gamma.coeffs.items():
        i, j, label = ps2.positions[pos].meta
        label = backend.swap_label(atoms[i], atoms[j], label)
        swapped[ps2.index[j, i, label]] = value
    results.append(equality("symmetric", SchwartzFn(ps2.object, swapped), gamma))

    value_ids = {}
    ids = [0] * len(ps2.positions)
    for pos, value in gamma.coeffs.items():
        ids[pos] = value_ids.setdefault(value, len(value_ids) + 1)
    # per atom pair (i, j) of X, the ps2 position of each orbit of the pair
    where = {(i, j): [ps2.index[(i, j, o.label)]
                      for o in backend.product_decompose(atoms[i], atoms[j])]
             for i in range(len(atoms)) for j in range(len(atoms))}
    bad = []
    for (i, j), at_ij in where.items():
        ids_12 = [ids[h] for h in at_ij]
        for k in range(len(atoms)):
            by_id_23 = {}
            for i_23, h in enumerate(where[j, k]):
                by_id_23.setdefault(ids[h], []).append(i_23)
            id_masks = {}
            for i_13, h in enumerate(where[i, k]):
                id_masks[ids[h]] = id_masks.get(ids[h], 0) | 1 << i_13
            # per 12 id a, the 23 columns of each id c with the mask of the
            # 13 orbits whose id b makes (a, b, c) incoherent (the id masks
            # are disjoint, so their sum is their union): a row fails when
            # its entries over the columns meet the mask
            tests = {a: [(cols, bad_13) for c, cols in by_id_23.items()
                         for bad_13 in [sum(m for b, m in id_masks.items()
                                            if not _coherent(a, b, c))]
                         if bad_13]
                     for a in set(ids_12)}
            if not any(tests.values()):
                continue  # no id triple here is incoherent
            table = triple_table(backend, atoms[i], atoms[j], atoms[k])
            rows = [i_12 for i_12, row in enumerate(table)
                    if any(reduce(or_, map(row.__getitem__, cols)) & bad_13
                           for cols, bad_13 in tests[ids_12[i_12]])]
            if rows:
                bad.append((i, j, k, rows))
    witness = {}
    if bad:
        witness = _coherence_witness(backend, ps2, gamma, ids, where, bad,
                                     field)
    results.append(CheckResult("triple-coherence", not bad, witness))

    return Report("equivalence idempotent checks", results)


def _coherence_witness(backend, ps2, gamma, ids, where, bad, field):
    """The first triple-space position where triple coherence fails: its
    atom, and per factor pair the pair orbit it projects to and gamma there.
    A position of ``tensor_space([X, X, X])`` sorts by its atom, then its row
    (12 position, third factor, label), so the minimum of that key over the
    failing orbits of the failing atom triples is the first one.  Those
    orbits lie in the failing rows alone, so only those rows are walked."""
    atoms = ps2.factors[0].atoms
    atom, h12, _k, _label, h13, h23 = min(
        (orbit.atom, h12, k, orbit.label, h13, h23)
        for i, j, k, rows in bad
        for h12 in map(where[i, j].__getitem__, rows)
        for orbit, (label_23, _), (label_13, _) in triple_row(
            backend, ps2.positions[h12].orbit, atoms[k])
        for h13, h23 in [(ps2.index[i, k, label_13], ps2.index[j, k, label_23])]
        if not _coherent(ids[h12], ids[h13], ids[h23]))
    witness = {"atom": atom.render()}
    for pair, h in zip(("12", "13", "23"), (h12, h13, h23)):
        witness[f"orbit-{pair}"] = ps2.positions[h].meta[2]
        witness[f"gamma-{pair}"] = gamma.coeffs.get(h, zero(field)).render()
    return witness


def kernel_pair_gamma(backend, f, field):
    """Indicator of the kernel pair of a surjection, on the source square."""
    if not backend.is_surjective_gmap(f):
        raise NotSurjective(f"{f.source.render()} -> {f.target.render()}")
    ps2 = tensor_space(backend, [f.source, f.source])
    coeffs = {ps2.index[(i, j, o.label)]: one(field)
              for i, (ti, m1) in enumerate(f.legs)
              for j, (tj, m2) in enumerate(f.legs) if ti == tj
              for o in (kernel_pair(backend, m1) if m1 == m2
                        else agreeing_orbits(backend, m1, m2))}
    return SchwartzFn(ps2.object, coeffs)


def splitting_fn(backend, x, measure):
    """The splitting idempotent comult(1) of Vec_X, as a function on
    X x X."""
    frob = build_frobenius(backend, x, measure.field)
    return column_to_fn(matmul(measure, frob.comult, frob.unit))


def kernel_pair_report(backend, f, gamma, eidem, alpha):
    """The report of ``gamma_of_projection`` from its parts: ``eidem``, the
    ``e_idempotent_check`` report of the kernel-pair gamma on the source,
    followed by the check that gamma is ``alpha``, the target's
    ``splitting_fn``, pulled back along ``f x f``.  That pullback
    precomposes a function with ``f x f``, so no measure enters."""
    y, x = f.source, f.target
    fxf = product_gmap(backend, f, f, tensor_space(backend, [y, y]),
                       tensor_space(backend, [x, x]))
    results = [*eidem.results, equality("pullback-of-target-splitting",
                                         pullback_fn(fxf, alpha), gamma)]
    return Report(f"kernel-pair idempotent of {y.render()} -> {x.render()}",
                  results)


def gamma_of_projection(backend, f, measure):
    """Kernel-pair idempotent of a surjection, with its verifications.

    Checks that the indicator is an equivalence idempotent and that it is the
    pullback along f x f of the splitting idempotent of the image."""
    gamma = kernel_pair_gamma(backend, f, measure.field)
    eidem = e_idempotent_check(backend, f.source, gamma, measure)
    return gamma, kernel_pair_report(backend, f, gamma, eidem,
                                     splitting_fn(backend, f.target, measure))


def check_sum_tensor_traces(backend, xa, xb, measure):
    """Trace data of sums and products against blockwise assembly.

    The direct-sum comparisons precompose rows with graph maps, which is
    function pullback and needs no integration.  The tensor comparison
    builds the product of the two pairings by row on X_a x X_b x X_a x X_b,
    carries each of its rows to its position in (X_a x X_b)^2 through the
    row's four factor projections, and compares the result with the pairing
    of X_a x X_b there; two rows carried to one position fail the check."""
    field = measure.field
    results = []

    # direct sum: the counit restricts to the summand counits and the pairing
    # is an orthogonal direct sum
    fa = build_frobenius(backend, xa, field)
    fb = build_frobenius(backend, xb, field)
    obj, inc_a, inc_b = coproduct_with_inclusions(backend, xa, xb)
    fsum = build_frobenius(backend, obj, field)
    results.append(equality("sum-counit-left",
                            pullback_fn(inc_a, row_to_fn(fsum.counit)),
                            row_to_fn(fa.counit)))
    results.append(equality("sum-counit-right",
                            pullback_fn(inc_b, row_to_fn(fsum.counit)),
                            row_to_fn(fb.counit)))

    beta_sum = row_to_fn(trace_pairing(fsum, measure))
    ps_aa = tensor_space(backend, [xa, xa])
    ps_ab = tensor_space(backend, [xa, xb])
    sum2 = tensor_space(backend, [obj, obj])
    inc_aa = product_gmap(backend, inc_a, inc_a, ps_aa, sum2)
    inc_ab = product_gmap(backend, inc_a, inc_b, ps_ab, sum2)
    pairing_a = trace_pairing(fa, measure)
    results.append(equality("sum-pairing-diagonal-block",
                            pullback_fn(inc_aa, beta_sum), row_to_fn(pairing_a)))
    results.append(equality("sum-pairing-cross-block",
                            pullback_fn(inc_ab, beta_sum),
                            SchwartzFn(ps_ab.object, {})))

    # tensor product: the pairing of the product object is the tensor product
    # of the pairings, compared on (X_a x X_b)^2
    prod = tensor_space(backend, [xa, xb])
    fprod = build_frobenius(backend, prod.object, field)
    lhs = row_to_fn(trace_pairing(fprod, measure))
    rows = RowProduct(backend, [xa, xb, xa, xb])
    unit_sq = tensor_space(backend, [backend.unit_object()] * 2)
    beta_ab = block_tensor([pairing_a, trace_pairing(fb, measure)],
                           rows, unit_sq, [[0, 2], [1, 3]], [[0], [1]])
    carried, doubled = {}, []
    for (_unit, row, _label), value in beta_ab.entries.items():
        p = _square_position(backend, rows, row, prod, fprod.ps2)
        if p in carried:
            doubled.append({"position": str(p),
                            "atom": fprod.ps2.object.atoms[p].render()})
        carried[p] = value
    results.append(
        verdict("tensor-pairing-factorizes", doubled, "positions") if doubled
        else equality("tensor-pairing-factorizes", lhs,
                      SchwartzFn(fprod.ps2.object, carried)))

    return Report("sum and tensor trace assembly", results)


def _square_position(backend, rows, row, prod, square):
    """The position ((a, b), (a', b')) in ``square`` of a row (a, b, a', b')
    of the ``RowProduct`` ``rows``, from the row's four factor projections."""
    lp, rp, label = row
    orbit = orbit_by_label(backend, rows.left.positions[lp].atom,
                           rows.factors[3].atoms[rp], label)
    maps = [(fp, backend.compose_maps(m, orbit.proj1))
            for fp, m in (projection(rows.left, lp, i) for i in range(3))]
    maps.append((rp, orbit.proj2))
    halves = [multi_factor(backend, maps[:2], prod),
              multi_factor(backend, maps[2:], prod)]
    return multi_factor(backend, halves, square)[0]
