"""Measures on the backends: storage, evaluation, axioms, and the solver.

A measure assigns a scalar to every atom and to every elementary fiber class,
subject to: value 1 on the one-point set, additivity over decompositions,
invariance, and multiplicativity over fibers of maps of transitive pieces.
Atom values are grounded in fiber values through the canonical drop chains
(each atom's value is the fiber value of one drop times the parent's value),
which is what makes the constraint systems triangular.

The solver introduces one unknown per fiber class, imposes the backends'
point-cut decompositions (a linear system, eliminated on sparse rows), and
then verifies the remaining identity set (product decompositions and
drop-order independence) by substitution.  Identities that do not vanish are
reported as residual constraints; for the shipped backends they all vanish.
Each distinct identity is evaluated once per check: the two sides of a
product identity once per unordered atom pair and orbit-atom counts, the
product of a fiber-class multiset once, and a chain test once per source,
target and map value (see ``_identity_results``).

The normality classifier probes one single drop per class under the
automorphisms of its source, which is exact for every measure (see
``classify_measure``).
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .coeff import RATIONAL, Scalar, one, ratfunc_field, zero
from .errors import InconsistentSystem, UnknownAtom
from .gset.base import product_images
from .report import CheckResult, Report, equality

SOLVE_DEPTH_FACTOR = 4

# The one parameter of a solved family: measure fields are Q(t) or F_p(t).
PARAMETER = "t"


class Measure(NamedTuple):
    """Atom values plus elementary fiber values, mutually consistent.

    ``atom_values`` is extended lazily along the canonical drop chains, so the
    table only needs to be seeded at the fiber level.  Extension is idempotent
    (the chain is canonical), so sharing across threads is harmless as long as
    construction has finished.
    """

    backend: object
    field: object
    atom_values: dict
    fiber_values: dict
    description: str = ""

    def mu_atom(self, a):
        if a in self.atom_values:
            return self.atom_values[a]
        parent = self.backend.atom_chain_parent(a)
        if parent is None:
            value = one(self.field)
        else:
            parent_atom, cls = parent
            value = self.fiber_value(cls) * self.mu_atom(parent_atom)
        self.atom_values[a] = value
        return value

    def mu_object(self, x):
        total = zero(self.field)
        for a in x.atoms:
            total = total + self.mu_atom(a)
        return total

    def fiber_value(self, cls):
        """The value of the elementary fiber class cls; ``UnknownAtom`` when
        the fiber table has none."""
        if cls not in self.fiber_values:
            raise UnknownAtom(f"no fiber value for {cls}")
        return self.fiber_values[cls]

    def mu_map(self, f):
        """The fiber measure of an atom map: the product of the values of the
        fiber classes that ``backend.elementary_factorize`` lists for it."""
        value = one(self.field)
        for cls in self.backend.elementary_factorize(f):
            value = value * self.fiber_value(cls)
        return value

    def with_perturbed_atom(self, a, delta):
        """A copy with the atom value shifted and the atom's own drop fiber
        re-derived from the shifted value.  Other entries are untouched, so
        the result deliberately violates the axioms; it exists for mutation
        tests."""
        atom_values = dict(self.atom_values)
        fiber_values = dict(self.fiber_values)
        new_value = self.mu_atom(a) + delta
        atom_values[a] = new_value
        parent = self.backend.atom_chain_parent(a)
        if parent is not None:
            parent_atom, cls = parent
            parent_value = self.mu_atom(parent_atom)
            if not parent_value.is_zero():
                fiber_values[cls] = new_value / parent_value
        return Measure(self.backend, self.field, atom_values, fiber_values,
                       description=f"{self.description} perturbed at {a.render()}")


class MeasureFamily(NamedTuple):
    """A solved family: parameter names, values over the parameter field,
    the bound its identities were checked within, and the identity checks
    that failed there (none when the family is free)."""

    backend: object
    field: object
    parameters: tuple
    fiber_values: dict
    atom_values: dict
    bound: int
    identity_failures: tuple
    description: str = ""

    @property
    def residual(self):
        """The residual constraints: the identities that fail to vanish."""
        return tuple(r.witness.get("identity", r.name)
                     for r in self.identity_failures)

    def generic(self):
        return Measure(self.backend, self.field, dict(self.atom_values),
                       dict(self.fiber_values), description=self.description)

    def specialize(self, value):
        """Substitute a rational number for the single parameter."""
        if len(self.parameters) != 1:
            raise ValueError("specialize needs exactly one parameter")
        atom_values = {a: s.evaluate(value) for a, s in self.atom_values.items()}
        fiber_values = {c: s.evaluate(value) for c, s in self.fiber_values.items()}
        return Measure(self.backend, RATIONAL, atom_values, fiber_values,
                       description=f"{self.description} at "
                                   f"{self.parameters[0]}={value}")


def _solve_linear(classes, relations):
    """Solve the point-cut relations over Q, computing in Scalars over Q.

    Returns (parameters, values) where values maps each class to an affine
    expression {PARAMETER or None: Scalar over Q}; the None key is the
    constant.
    Unknown order is reversed so that the earliest class (the one atom chains
    start from) ends up as the free parameter.  More than one free class is
    an INCONSISTENT system: a family has at most one parameter.

    Each row is stored as a dict of its nonzero coefficients, and each column
    keeps the set of rows not yet taken as pivots that hold it.  The forward
    pass takes the columns in order: the column's pivot row is scaled to a
    leading 1, and the column is eliminated from the other non-pivot rows
    that hold it, never from an earlier pivot row.  So there is no fill-in
    above the pivots: on the ``sym`` chain value(c) = value(c+1) + 1 every
    column is held by one non-pivot row and the pass does no row update at
    all.  The pivot rows then form an echelon form, each holding only its
    pivot column and later ones, and the rows left over are empty; one with
    a nonzero constant has no solution.  Back-substitution in reverse pivot
    order gives each class its value as an affine pair, the constant and
    the coefficient of the free class, from the pairs of the later columns.

    A matrix has one reduced row echelon form, and a pivot row of it reads
    exactly these pairs (its constant, and minus its free-class entry), so
    the pivot and free columns, both errors (checked in the order of dense
    elimination) and every value are those of dense elimination to reduced
    row echelon form.
    """
    cols = list(reversed(classes))
    col_index = {c: i for i, c in enumerate(cols)}
    # a row is (column -> nonzero coefficient, constant)
    rows = []
    holders = [set() for _ in cols]  # per column, the non-pivot rows with it
    for i, rel in enumerate(relations):
        row = {col_index[rel.lhs]: one(RATIONAL)}
        for cls, coeff in rel.terms:
            c = col_index[cls]
            row[c] = row.get(c, zero(RATIONAL)) - coeff
        row = {c: x for c, x in row.items() if not x.is_zero()}
        for c in row:
            holders[c].add(i)
        rows.append((row, Scalar.from_int(RATIONAL, rel.const)))
    # forward elimination below the pivots
    pivot_of_col = {}
    for c, held in enumerate(holders):
        if not held:
            continue
        r = min(held)
        coeffs, const = rows[r]
        for k in coeffs:
            holders[k].discard(r)
        lead = coeffs[c]
        coeffs = {k: x / lead for k, x in coeffs.items()}
        const = const / lead
        rows[r] = (coeffs, const)
        for i in list(held):
            other, other_const = rows[i]
            factor = other[c]
            for k, x in coeffs.items():
                y = other.get(k, 0) - factor * x
                if not y.is_zero():
                    other[k] = y
                    holders[k].add(i)
                else:
                    other.pop(k, None)
                    holders[k].discard(i)
            rows[i] = (other, other_const - factor * const)
        pivot_of_col[c] = r
    # every row left over is empty
    pivot_rows = set(pivot_of_col.values())
    for i, (_coeffs, const) in enumerate(rows):
        if i not in pivot_rows and not const.is_zero():
            raise InconsistentSystem("point-cut relations have no solution")
    free_cols = [c for c in range(len(cols)) if c not in pivot_of_col]
    if len(free_cols) > 1:
        names = ", ".join(cols[c] for c in reversed(free_cols))
        raise InconsistentSystem(
            f"classes {names} are all free; a measure family has one parameter")
    # back-substitution: (constant, coefficient of the free class) per column
    pair = {c: (zero(RATIONAL), one(RATIONAL)) for c in free_cols}
    for c in reversed(pivot_of_col):
        coeffs, const = rows[pivot_of_col[c]]
        param = zero(RATIONAL)
        for k, x in coeffs.items():
            if k != c:
                k_const, k_param = pair[k]
                const -= x * k_const
                param -= x * k_param
        pair[c] = (const, param)
    values = {}
    for c, cls in enumerate(cols):
        if c in pivot_of_col:
            const, param = pair[c]
            values[cls] = {None: const}
            if not param.is_zero():
                values[cls][PARAMETER] = param
        else:
            values[cls] = {PARAMETER: one(RATIONAL), None: zero(RATIONAL)}
    return [PARAMETER] if free_cols else [], values


def solve_measures(backend, bound, char=0):
    """Find all measures on the backend's fragment within the bound.

    Raises INCONSISTENT when no assignment satisfies the point-cut relations,
    or when they leave more than one fiber class free.
    The family keeps the identity checks that fail on its values
    (``identity_failures``, read as its ``residual``) and no passing one, so
    ``check_family_axioms`` reports the measure axioms of
    ``family.generic()`` without checking the same values again.  On the
    shipped backends there are no failures.
    """
    if bound < 2:
        raise ValueError("solve needs bound >= 2")
    depth = SOLVE_DEPTH_FACTOR * bound + 4
    classes = backend.fiber_classes(depth)
    relations = backend.fiber_decompositions(depth)
    params, affine = _solve_linear(classes, relations)
    if params:
        field = ratfunc_field(PARAMETER, char)
    elif char:
        field = ratfunc_field("a", char)
    else:
        field = RATIONAL

    def to_scalar(expr):
        acc = Scalar.from_fraction(field, expr[None])
        if PARAMETER in expr:
            acc = acc + (Scalar.from_fraction(field, expr[PARAMETER])
                         * Scalar.variable(field))
        return acc

    fiber_values = {cls: to_scalar(affine[cls]) for cls in classes}
    measure = Measure(backend, field, {}, fiber_values)
    for a in backend.atoms_up_to(depth):
        measure.mu_atom(a)
    atom_values = measure.atom_values

    failures = [r for r in _identity_results(measure, bound) if not r.passed]
    for result in failures:
        if result.witness.get("constant_failure") == "yes":
            raise InconsistentSystem(result.witness["identity"])
    name = backend.backend_id
    description = f"{name} measure" + (f" family in {params[0]}" if params else "")
    return MeasureFamily(backend, field, tuple(params), fiber_values,
                         atom_values, bound, tuple(failures), description)


def _identity_results(measure, bound):
    """Product identities and drop-order independence, as check results.

    There is one result per ordered atom pair and one per atom map, but
    each distinct identity is evaluated once.  The product identity of
    ``(a, b)`` reads mu(a) mu(b) and the orbit atoms of ``a x b`` with their
    counts, so its two sides are computed once per unordered pair and
    counts: ``(b, a)`` has the same.  A map's values are the products of
    its fiber-class multisets, each computed once, and its chain test
    ``mu(a) == v * mu(b)`` is decided once per ``(a, b, v)``.  Scalars are
    exact and canonical, so every result, witness included, is the one
    that evaluating each identity afresh gives, and the first identity to
    miss a fiber value raises the same ``UnknownAtom``.
    """
    backend = measure.backend
    atoms = backend.atoms_up_to(bound)
    mu = measure.mu_atom
    results = []
    sides = {}  # (unordered atom pair, orbit-atom counts) -> (lhs, rhs)
    for a in atoms:
        for b in atoms:
            orbits = backend.product_decompose(a, b)
            counts = Counter(o.atom for o in orbits)
            key = (frozenset((a, b)), frozenset(counts.items()))
            if key not in sides:
                lhs = mu(a) * mu(b)
                rhs = zero(measure.field)
                for atom, n in counts.items():
                    rhs = rhs + mu(atom) * n
                sides[key] = lhs, rhs
            lhs, rhs = sides[key]
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
    products = {}  # fiber-class multiset -> the product of its values
    chains = {}  # (a, b, v) -> whether mu(a) == v * mu(b)
    for a in atoms:
        for b in atoms:
            for f in backend.hom_atoms(a, b):
                values = set()
                for multiset in backend.factorization_class_multisets(f):
                    v = products.get(multiset)
                    if v is None:
                        v = one(measure.field)
                        for cls in multiset:
                            v = v * measure.fiber_value(cls)
                        products[multiset] = v
                    values.add(v)
                ok = len(values) == 1
                # drop orders that disagree report the canonical chain's value
                v = values.pop() if ok else measure.mu_map(f)
                chain_ok = chains.get((a, b, v))
                if chain_ok is None:
                    chain_ok = chains[a, b, v] = mu(a) == v * mu(b)
                witness = {}
                if not (ok and chain_ok):
                    witness = {
                        "map": f"{a.render()} -> {b.render()} {f.data}",
                        "identity": f"mu({a.label}) = mu(f) * mu({b.label})",
                        "mu_map": v.render(),
                        "mu_source": mu(a).render(),
                        "mu_target": mu(b).render(),
                    }
                results.append(
                    CheckResult(f"multiplicativity[{a.label}->{b.label}:{f.data}]",
                                ok and chain_ok, witness))
    return results


def check_measure_axioms(measure, bound):
    """Verify the measure axioms on the fragment within the bound."""
    return _axioms_report(measure, bound, _identity_results(measure, bound))


def check_family_axioms(family):
    """``check_measure_axioms(family.generic(), family.bound)`` from the
    identity checks the solver found failing on the same values: it passes
    and fails where that does, with the same failing results, and lists no
    passing identity."""
    return _axioms_report(family.generic(), family.bound,
                          family.identity_failures)


def _axioms_report(measure, bound, identities):
    results = [
        CheckResult("isomorphism-invariance", True,
                    note="canonical orbit labels; equal atoms share one table entry"),
        equality("normalization", measure.mu_atom(measure.backend.unit_atom()),
                 one(measure.field)),
        CheckResult("conjugation-invariance", True,
                    note="labels are conjugation classes by construction"),
    ]
    results.extend(identities)
    return Report(f"measure axioms for {measure.backend.backend_id} within {bound}",
                  results)


def classify_measure(measure, bound):
    """Regularity is exact; normality is bounded evidence, not a proof.

    Normality asks that pushing invariant functions forward along id_W x f be
    onto for every surjective atom map f and every atom W within the bound.
    Only the single drops are probed: the surjective f with one fiber class
    in ``backend.elementary_factorize(f)``.  That suffices when pushforward
    is functorial, which holds for any measure that passes the
    multiplicativity checks of ``check_measure_axioms``.  An isomorphism
    pushes forward bijectively and every surjective atom map is an
    isomorphism followed by a chain of single drops, so id_W x f is onto for
    every surjective f exactly when it is onto for every single drop.

    One single drop per automorphism class is probed: f and f o s, for s in
    ``hom_atoms(a, a)``, give the same verdict for every measure, perturbed
    ones included, without appeal to functoriality.  Every such s is an
    isomorphism (an endomorphism of an atom is invertible on the shipped
    backends), ``id_W x (f o s) = (id_W x f) o (id_W x s)``, and
    ``id_W x s`` permutes the orbits of W x a, so each leg of ``f o s`` is a
    leg of f precomposed with an isomorphism.  That keeps the leg's fiber
    classes, hence its ``mu_map``, and the set of hit target orbits is the
    same.  On ``sym`` the 33 single drops within bound 4 are 4 classes;
    ``line`` atoms have no automorphisms but the identity.

    Each probe's legs are ``gset.base.product_images`` of ``1 x f``, with W
    passed as an atom so that o.proj1 is composed with nothing: per orbit o
    of W x a, the label of the orbit of W x b that (o.proj1, f o o.proj2)
    factors through and the map onto its atom.  Keyed by those target
    labels, they are all the probe reads, so no product space and no
    ``GMap`` is built.  Surjectivity is then a support count, not an
    elimination: the map is onto exactly when every orbit of W x b is hit
    by a source orbit whose fiber measure is nonzero (see
    ``linmat.pushforward_surjective_on_invariants``).
    """
    from . import linmat

    backend = measure.backend
    atoms = backend.atoms_up_to(bound)
    regular = all(not measure.mu_atom(a).is_zero() for a in atoms)
    normal = True
    for a in atoms:
        automorphisms = backend.hom_atoms(a, a)
        for b in atoms:
            covered = set()
            for f in backend.hom_atoms(a, b):
                if f in covered or len(backend.elementary_factorize(f)) != 1:
                    continue
                covered.update(backend.compose_maps(f, s) for s in automorphisms)
                for w in atoms:
                    if not linmat.pushforward_surjective_on_invariants(
                            measure, product_images(backend, w, f),
                            len(backend.product_decompose(w, b))):
                        normal = False
    return {"regular": regular, "normal_within_bound": normal}
