"""Operator expression language: tokenizing, parsing, rendering, building."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shapeinv import clear_caches
from shapeinv.dsl import (
    Bracket, DslError, Gen, GENERATOR_NAMES, ImagLit, IntLit, MAX_DEPTH,
    MAX_PRODUCT_SIZE, Neg, OpDslAst, Prod, Sum, _coefficient_nodes,
    build_operator, parse_and_build, parse_op_expr,
)
from shapeinv.opalg import apply_canonical
from shapeinv.suite import SuiteConfig, run_suite
from shapeinv.symx import ONE, evaluate


# -- parsing ------------------------------------------------------------------

def test_parse_explicit_trees():
    assert parse_op_expr("Lp") == Gen("Lp")
    assert parse_op_expr("Lm(3)") == Gen("Lm", 3)
    assert parse_op_expr("Lm(-2)") == Gen("Lm", -2)
    assert parse_op_expr("[Lp, Lm] - 2*L3") == Sum((
        Bracket(Gen("Lp"), Gen("Lm")),
        Neg(Prod((IntLit(2), Gen("L3")))),
    ))
    assert parse_op_expr("3 - i") == Sum((IntLit(3), Neg(ImagLit())))
    assert parse_op_expr("--Hq") == Neg(Neg(Gen("Hq")))


def test_whitespace_insensitive():
    assert parse_op_expr("[Lp,Lm]-2*L3") == parse_op_expr(" [ Lp , Lm ]  - 2 * L3 ")


def test_parentheses_group_without_leaving_a_node():
    assert parse_op_expr("(Lp)") == Gen("Lp")
    assert parse_op_expr("2*(Lp + Lm)") == Prod((
        IntLit(2), Sum((Gen("Lp"), Gen("Lm")))))


@pytest.mark.parametrize("text", [
    "Lp", "Lm(3)", "a3d(-1)", "i", "7",
    "[Lp, Lm] - 2*L3",
    "-(Lp + Lm)*Hq",
    "i*Rp - 3",
    "[L3, [Lp, Rm]]",
    "2*-L3",
    "--A1d",
    "-(Lp*Lm)",
])
def test_render_parse_text_fixed_point(text):
    # after one normalizing round, the rendered text is a parse fixed point
    once = parse_op_expr(text).render()
    assert parse_op_expr(once).render() == once


# -- error reporting ----------------------------------------------------------

@pytest.mark.parametrize("text,fragment,pos", [
    ("Foo", "unknown generator 'Foo'", 0),
    ("Lp + Bar(2)", "unknown generator 'Bar'", 5),
    ("i(3)", "imaginary unit takes no argument", 0),
    ("(Lp", "expected ')'", 3),
    ("Lp Lm", "unexpected trailing input 'Lm'", 3),
    ("Lp @ Lm", "unexpected character '@'", 3),
    ("Lm(x)", "expected an integer label", 3),
    ("Lm()", "expected an integer label", 3),
    ("", "expected an operand, found end of input", 0),
    ("[Lp Lm]", "expected ','", 4),
    ("2 +", "expected an operand", 3),
])
def test_parse_errors_carry_positions(text, fragment, pos):
    with pytest.raises(DslError) as exc:
        parse_op_expr(text)
    assert fragment in str(exc.value)
    assert exc.value.pos == pos
    assert f"(at position {pos})" in str(exc.value)


def nested(opener: str, depth: int) -> str:
    """L3 under `depth` levels of '(', '[' or unary '-'."""
    if opener == "(":
        return "(" * depth + "L3" + ")" * depth
    if opener == "[":
        return "[" * depth + "L3, L3]" + ", L3]" * (depth - 1)
    return "-" * depth + "L3"


@pytest.mark.parametrize("opener", ["(", "[", "-"])
def test_nesting_depth_is_bounded(opener):
    # at the bound the expression parses and builds
    op = parse_and_build(nested(opener, MAX_DEPTH))
    assert op.is_zero() == (opener == "[")
    with pytest.raises(DslError, match=f"nested deeper than {MAX_DEPTH}"):
        parse_op_expr(nested(opener, MAX_DEPTH + 1))


def test_unknown_generator_lists_valid_names():
    with pytest.raises(DslError) as exc:
        parse_op_expr("Qp")
    msg = str(exc.value)
    for name in ("Lp", "A1d", "Casimir", "Hm"):
        assert name in msg


# -- AST basics ---------------------------------------------------------------

def test_all_nodes_subclass_the_ast_base():
    nodes = [Gen("Lp"), Gen("Lm", 2), IntLit(4), ImagLit(),
             Neg(Gen("L3")), Sum((IntLit(1), IntLit(2))),
             Prod((IntLit(2), Gen("Hq"))), Bracket(Gen("Lp"), Gen("Lm"))]
    for node in nodes:
        assert isinstance(node, OpDslAst)
    with pytest.raises(NotImplementedError):
        OpDslAst().render()


def test_generator_name_table():
    assert len(GENERATOR_NAMES) == 17
    assert len(set(GENERATOR_NAMES)) == 17
    assert "i" not in GENERATOR_NAMES


# -- random round trips -------------------------------------------------------

_leaf = st.one_of(
    st.sampled_from(GENERATOR_NAMES).flatmap(
        lambda n: st.one_of(
            st.just(Gen(n)),
            st.integers(-4, 4).map(lambda a: Gen(n, a)))),
    st.integers(0, 9).map(IntLit),
    st.just(ImagLit()),
)


def _canonical(depth: int):
    """Strategy over parser-shaped trees: sums/products never nest into
    themselves, and a bare negation never wraps a product (its rendering
    would re-associate)."""
    if depth <= 0:
        return _leaf
    sub = _canonical(depth - 1)
    bracket = st.builds(Bracket, sub, sub)
    atom = st.one_of(_leaf, bracket)
    summ = st.lists(st.one_of(atom, st.builds(Neg, atom)),
                    min_size=2, max_size=3).map(lambda xs: Sum(tuple(xs)))
    neg = st.builds(Neg, st.one_of(atom, summ))
    prod = st.lists(st.one_of(atom, neg, summ),
                    min_size=2, max_size=3).map(lambda xs: Prod(tuple(xs)))
    return st.one_of(atom, neg, summ, prod)


@settings(max_examples=120, deadline=None)
@given(_canonical(2))
def test_parse_inverts_render(ast):
    assert parse_op_expr(ast.render()) == ast


# -- operator construction ----------------------------------------------------

@pytest.mark.parametrize("text", [
    "[Lp, Lm] - 2*L3",
    "[L3, Lp] - Lp",
    "[Lp, Rm]",
    "2*L3 - L3 - L3",
    "i*i + 1",
    "[2, L3]",
])
def test_known_identities_build_to_zero(text):
    assert parse_and_build(text).normalized().is_zero()


def test_nonidentity_is_not_zero():
    assert not parse_and_build("Lp - Rp").normalized().is_zero()


def test_products_are_normalized():
    # composition alone would leave 1327 unmerged terms here
    op = parse_and_build("Lp*Lp*Lp*Lp")
    assert len(op.terms) == len(op.normalized().terms) == 34


def test_scalar_expression_promotes_to_identity_multiple():
    op = parse_and_build("3 - i")
    assert op.param is None
    val = evaluate(apply_canonical(op, ONE), {"theta": 0.3, "psi": 0.7,
                                              "phi": 1.1, "r": 1.3})
    assert abs(val - (3 - 1j)) < 1e-12


def test_applied_forms_have_no_free_lattice_label():
    op = parse_and_build("Lm(3)*Rm(2)")
    assert op.param is None
    assert not op.normalized().is_zero()


def test_lattice_clash_is_reported_as_build_error():
    with pytest.raises(DslError, match="cannot build operator: parameter clash"):
        parse_and_build("Hq + Hm")
    with pytest.raises(DslError, match="parameter clash: 'q' vs 'm'"):
        parse_and_build("Hq*Hm")


def test_frequency_threads_into_named_forms():
    assert parse_and_build("[A1, A1d] - 1",
                           omega=Fraction(1, 2)).normalized().is_zero()
    assert parse_and_build("[a3, a3d] - 1",
                           omega=Fraction(3)).normalized().is_zero()


def test_build_operator_accepts_a_prebuilt_ast():
    # the right-invariant copy closes with the opposite sign
    ast = Bracket(Gen("Rp"), Gen("Rm"))
    diff = build_operator(ast) + build_operator(Prod((IntLit(2), Gen("R3"))))
    assert diff.normalized().is_zero()


# -- the product work bound ----------------------------------------------------

POWERS = {"Lp": 54, "Lp*Lp": 320, "Lp*Lp*Lp": 1265, "Lp*Lp*Lp*Lp": 3589}


def _power_nodes():
    return {text: _coefficient_nodes(parse_and_build(text)) for text in POWERS}


def test_coefficient_node_counts_do_not_depend_on_memo_warmth():
    # The bound counts distinct node objects, and memo hits return shared
    # trees; the counts must be the same cold and after a full battery.
    # With them, Lp^5 (3589 * 54 = 193 806 pairs) stays refused and Lp^4
    # (1265 * 54 = 68 310) allowed under MAX_PRODUCT_SIZE.
    clear_caches()
    assert _power_nodes() == POWERS
    run_suite(SuiteConfig(seed=7))
    assert _power_nodes() == POWERS
    assert POWERS["Lp*Lp*Lp*Lp"] * POWERS["Lp"] > MAX_PRODUCT_SIZE
    assert POWERS["Lp*Lp*Lp"] * POWERS["Lp"] <= MAX_PRODUCT_SIZE
