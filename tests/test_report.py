"""The equality primitive: ``report.difference`` and ``report.equality``."""

from oligoperm.coeff import RATIONAL, Scalar
from oligoperm.gset import LINE, SYM, LineBackend
from oligoperm.linmat import (
    InvariantMatrix,
    RowProduct,
    SchwartzFn,
    identity_matrix,
    tensor_space,
)
from oligoperm.report import CheckResult, difference, equality


def q(n):
    return Scalar.from_int(RATIONAL, n)


X = SYM.object_of([SYM.atom_of_arity(1), SYM.atom_of_arity(2)])


def test_equal_sides_have_no_difference():
    ident = identity_matrix(SYM, X, RATIONAL)
    assert difference(ident, identity_matrix(SYM, X, RATIONAL)) == {}
    assert difference(SchwartzFn(X, {1: q(3)}), SchwartzFn(X, {1: q(3)})) == {}
    assert difference({(0, 1): q(2)}, {(0, 1): q(2)}) == {}
    assert difference(q(2), q(2)) == {}
    assert equality("same", q(2), q(2)) == CheckResult("same", True)


def test_matrix_witness_is_the_first_differing_key():
    ident = identity_matrix(SYM, X, RATIONAL)
    assert sorted(ident.entries) == [(0, 0, "[1>1]"), (1, 1, "[1>1,2>2]")]
    # differing on (0, 0, "[]") and (1, 1, "[1>1,2>2]"): the first is named,
    # a missing entry reads 0
    other = InvariantMatrix(SYM, X, X, {(0, 0, "[1>1]"): q(1),
                                        (0, 0, "[]"): q(5),
                                        (1, 1, "[1>1,2>2]"): q(2)})
    assert difference(ident, other) == {
        "target": "0", "source": "0", "orbit": "[]", "lhs": "0", "rhs": "5"}
    assert difference(other, ident) == {
        "target": "0", "source": "0", "orbit": "[]", "lhs": "5", "rhs": "0"}
    doubled = InvariantMatrix(SYM, X, X, {(0, 0, "[1>1]"): q(1),
                                          (1, 1, "[1>1,2>2]"): q(2)})
    assert difference(ident, doubled) == {
        "target": "1", "source": "1", "orbit": "[1>1,2>2]",
        "lhs": "1", "rhs": "2"}


def test_function_witness_names_position_and_atom():
    assert difference(SchwartzFn(X, {0: q(1), 1: q(1)}),
                      SchwartzFn(X, {0: q(1)})) == {
        "position": "1", "atom": "sym:inj[2]", "lhs": "1", "rhs": "0"}


def test_literal_and_scalar_witnesses():
    assert difference({(0, 1): q(2), (3, 0): q(1)}, {(3, 0): q(1)}) == {
        "row": "0", "column": "1", "lhs": "2", "rhs": "0"}
    result = equality("normalization", q(2), q(1))
    assert result == CheckResult("normalization", False,
                                 {"lhs": "2", "rhs": "1"})


def test_sides_of_different_shapes_name_both_shapes():
    y = SYM.object_of([SYM.atom_of_arity(1)])
    assert difference(identity_matrix(SYM, X, RATIONAL),
                      identity_matrix(SYM, y, RATIONAL)) == {
        "lhs-shape": "sym:inj[1] + sym:inj[2] -> sym:inj[1] + sym:inj[2]",
        "rhs-shape": "sym:inj[1] -> sym:inj[1]"}
    assert difference(SchwartzFn(X, {}), SchwartzFn(y, {})) == {
        "lhs-shape": "sym:inj[1] + sym:inj[2]", "rhs-shape": "sym:inj[1]"}


def test_a_row_product_shape_renders_by_its_factors():
    x = LINE.object_of([LINE.atom_of_arity(1)])
    lhs = InvariantMatrix(LINE, x, RowProduct(LINE, [x, x, x]), {})
    rhs = InvariantMatrix(LINE, x, tensor_space(LINE, [x, x]).object, {})
    assert equality("probe", lhs, rhs) == CheckResult("probe", False, {
        "lhs-shape": "line:inc[1] -> (line:inc[1]) x (line:inc[1]) x "
                     "(line:inc[1])",
        "rhs-shape": "line:inc[1] -> line:inc[1] + line:inc[2] + line:inc[2]"})


def test_row_products_of_one_backend_and_factors_are_equal():
    x = LINE.object_of([LINE.atom_of_arity(1)])
    y = LINE.object_of([LINE.atom_of_arity(2)])

    def on(backend, factors):
        return InvariantMatrix(backend, x, RowProduct(backend, factors), {})

    assert equality("probe", on(LINE, [x, x, x]), on(LINE, [x, x, x])) == \
        CheckResult("probe", True)
    assert len({RowProduct(LINE, [x, x, x]), RowProduct(LINE, [x, x, x])}) == 1
    for other in (on(LINE, [x, x, y]), on(LINE, [x, x]),
                  on(LineBackend(), [x, x, x])):
        assert on(LINE, [x, x, x]) != other
        assert not equality("probe", on(LINE, [x, x, x]), other).passed
