"""Operator expression language: tokenizing, parsing and building, and the
one-pass builder against the two-pass route it replaced."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shapeinv import clear_caches, dsl
from shapeinv.dsl import (
    DslError, GENERATOR_NAMES, MAX_DEPTH, MAX_PRODUCT_SIZE, _coefficient_nodes,
    parse_and_build,
)
from shapeinv.opalg import DiffOp, OpError, apply_canonical, commutator
from shapeinv.rationals import GaussRat
from shapeinv.suite import SuiteConfig, run_suite
from shapeinv.symx import ONE, Const

from oracles import evaluate


def build(text, omega=Fraction(1)) -> DiffOp:
    return parse_and_build(text, omega)[0]


def terms(op: DiffOp) -> tuple:
    """The lattice and every term's coefficient key, derivatives and shift,
    in order."""
    return op.param, [(t.coeff.key(), t.derivs, t.shift) for t in op.terms]


# -- parsing ------------------------------------------------------------------

def test_whitespace_insensitive():
    assert (terms(build("[Lp,Lm]-2*L3"))
            == terms(build(" [ Lp , Lm ]  - 2 * L3 ")))


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
    pytest.param("Lm(" + "9" * 5000 + ")", "integer too long: 5000 digits", 3,
                 id="overlong-label"),
])
def test_parse_errors_carry_positions(text, fragment, pos):
    with pytest.raises(DslError) as exc:
        parse_and_build(text, Fraction(1))
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
    op = build(nested(opener, MAX_DEPTH))
    assert op.is_zero() == (opener == "[")
    with pytest.raises(DslError, match=f"nested deeper than {MAX_DEPTH}"):
        parse_and_build(nested(opener, MAX_DEPTH + 1), Fraction(1))


def test_unknown_generator_lists_valid_names():
    with pytest.raises(DslError) as exc:
        parse_and_build("Qp", Fraction(1))
    msg = str(exc.value)
    for name in ("Lp", "A1d", "Casimir", "Hm"):
        assert name in msg


def test_generator_name_table():
    assert len(GENERATOR_NAMES) == 17
    assert len(set(GENERATOR_NAMES)) == 17
    assert "i" not in GENERATOR_NAMES


# -- operator construction ----------------------------------------------------

@pytest.mark.parametrize("text", [
    "[Lp, Lm] - 2*L3",
    "[L3, Lp] - Lp",
    "[Lp, Rm]",
    "2*L3 - L3 - L3",
    "i*i + 1",
    "[2, L3]",
    # the right-invariant copy closes with the opposite sign
    "[Rp, Rm] + 2*R3",
])
def test_known_identities_build_to_zero(text):
    assert build(text).normalized().is_zero()


def test_nonidentity_is_not_zero():
    assert not build("Lp - Rp").normalized().is_zero()


def test_products_are_normalized():
    # composition alone would leave 1327 unmerged terms here
    op = build("Lp*Lp*Lp*Lp")
    assert len(op.terms) == len(op.normalized().terms) == 34


def test_scalar_expression_promotes_to_identity_multiple():
    op = build("3 - i")
    assert op.param is None
    val = evaluate(apply_canonical(op, ONE), {"theta": 0.3, "psi": 0.7,
                                              "phi": 1.1, "r": 1.3})
    assert abs(val - (3 - 1j)) < 1e-12


def test_applied_forms_have_no_free_lattice_label():
    op = build("Lm(3)*Rm(2)")
    assert op.param is None
    assert not op.normalized().is_zero()


def test_lattice_clash_is_reported_as_build_error():
    with pytest.raises(DslError, match="cannot build operator: parameter clash"):
        parse_and_build("Hq + Hm", Fraction(1))
    with pytest.raises(DslError, match="parameter clash: 'q' vs 'm'"):
        parse_and_build("Hq*Hm", Fraction(1))


def test_frequency_threads_into_named_forms():
    assert build("[A1, A1d] - 1", omega=Fraction(1, 2)).normalized().is_zero()
    assert build("[a3, a3d] - 1", omega=Fraction(3)).normalized().is_zero()


@pytest.mark.parametrize("text,count", [
    ("[Lp, Lm] - 2*L3", 2),
    ("(([Lp, Lm] - 2*L3))", 2),
    ("Hq - 1 + i", 3),
    ("2*([Lp, Lm] - 2*L3)", 0),
    ("-([Lp, Lm] - 2*L3)", 0),
    ("[Lp - L3, Lm]", 0),
    ("Lp", 0),
])
def test_summands_are_those_of_the_outermost_sum(text, count):
    op, summands = parse_and_build(text, Fraction(1))
    assert len(summands) == count
    if summands:
        assert terms(sum(summands[1:], summands[0])) == terms(op)
        assert all(s.param in (None, op.param) for s in summands)


# -- the product work bound ----------------------------------------------------

POWERS = {"Lp": 54, "Lp*Lp": 320, "Lp*Lp*Lp": 1265, "Lp*Lp*Lp*Lp": 3589}


def _power_nodes():
    return {text: _coefficient_nodes(build(text)) for text in POWERS}


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


# -- the two-pass route, as a reference ---------------------------------------
# A compact copy of the route parse_and_build replaced: a parser that builds
# a tree, and an evaluator that walks it with values tagged ("sc", GaussRat)
# or ("op", DiffOp).  Trees are tuples: ("gen", name, label), ("int", n),
# ("i",), ("neg", x), ("sum", items), ("prod", items), ("bracket", l, r).

def render(node) -> str:
    """Source text that parses back to `node`."""
    tag = node[0]
    if tag == "gen":
        return node[1] if node[2] is None else f"{node[1]}({node[2]})"
    if tag == "int":
        return str(node[1])
    if tag == "i":
        return "i"
    if tag == "neg":
        inner = render(node[1])
        return f"-({inner})" if node[1][0] == "sum" else f"-{inner}"
    if tag == "sum":
        bits = [render(node[1][0])]
        for it in node[1][1:]:
            if it[0] == "neg" and it[1][0] != "sum":
                bits.append(f" - {render(it[1])}")
            else:
                bits.append(f" + {render(it)}")
        return "".join(bits)
    if tag == "prod":
        return "*".join(f"({render(it)})" if it[0] == "sum" else render(it)
                        for it in node[1])
    return f"[{render(node[1])}, {render(node[2])}]"


class _TreeParser(dsl._Parser):
    """The same grammar and syntax errors; each rule returns a tree."""

    def expr(self):
        items = [self.term()]
        while self.at_sym("+", "-"):
            _, sign, _ = self.next()
            t = self.term()
            items.append(("neg", t) if sign == "-" else t)
        return items[0] if len(items) == 1 else ("sum", tuple(items))

    def term(self):
        items = [self.unary()]
        while self.at_sym("*"):
            self.next()
            items.append(self.unary())
        return items[0] if len(items) == 1 else ("prod", tuple(items))

    def unary(self):
        if self.at_sym("-"):
            return ("neg", self.nested(self.unary))
        return self.atom()

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "int":
            self.next()
            return ("int", int(val))
        if kind == "name":
            self.next()
            if val == "i":
                if self.at_sym("("):
                    raise DslError("the imaginary unit takes no argument", pos)
                return ("i",)
            if val not in GENERATOR_NAMES:
                raise DslError(
                    f"unknown generator {val!r}; valid names: "
                    + ", ".join(GENERATOR_NAMES), pos)
            if not self.at_sym("("):
                return ("gen", val, None)
            self.next()
            sign = 1
            if self.at_sym("-"):
                self.next()
                sign = -1
            akind, aval, apos = self.peek()
            if akind != "int":
                raise DslError("expected an integer label", apos)
            self.next()
            self.expect(")")
            return ("gen", val, sign * int(aval))
        if kind == "sym" and val == "(":
            return self.nested(self.group)
        if kind == "sym" and val == "[":
            return self.nested(self.bracket)
        got = repr(val) if kind != "end" else "end of input"
        raise DslError(f"expected an operand, found {got}", pos)

    def bracket(self):
        left = self.expr()
        self.expect(",")
        right = self.expr()
        self.expect("]")
        return ("bracket", left, right)


def _promote_tagged(value, param):
    kind, payload = value
    if kind == "op":
        return payload
    return DiffOp.from_expr(Const(payload), param)


def _check_size_tagged(a, b, node):
    if a[0] == "op" and b[0] == "op":
        na, nb = _coefficient_nodes(a[1]), _coefficient_nodes(b[1])
        if na * nb > MAX_PRODUCT_SIZE:
            raise DslError(
                f"operator product {render(node)} too large to compose: "
                f"{na} x {nb} = {na * nb} coefficient-node pairs "
                f"(bound {MAX_PRODUCT_SIZE})")


def _mul_tagged(a, b):
    if a[0] == "sc" and b[0] == "sc":
        return ("sc", a[1] * b[1])
    if a[0] == "sc":
        prod = DiffOp.from_expr(Const(a[1]), b[1].param) @ b[1]
    elif b[0] == "sc":
        prod = DiffOp.from_expr(Const(b[1]), a[1].param) @ a[1]
    else:
        prod = a[1] @ b[1]
    return ("op", prod.normalized())


def _add_tagged(a, b):
    if a[0] == "sc" and b[0] == "sc":
        return ("sc", a[1] + b[1])
    if a[0] == "sc":
        return ("op", _promote_tagged(a, b[1].param) + b[1])
    if b[0] == "sc":
        return ("op", a[1] + _promote_tagged(b, a[1].param))
    return ("op", a[1] + b[1])


def _eval_tree(node, omega):
    tag = node[0]
    if tag == "int":
        return ("sc", GaussRat(Fraction(node[1])))
    if tag == "i":
        return ("sc", GaussRat(0, Fraction(1)))
    if tag == "gen":
        return ("op", dsl._resolve(node[1], node[2], omega))
    if tag == "neg":
        return _mul_tagged(("sc", GaussRat(Fraction(-1))),
                           _eval_tree(node[1], omega))
    if tag == "sum":
        acc = _eval_tree(node[1][0], omega)
        for it in node[1][1:]:
            acc = _add_tagged(acc, _eval_tree(it, omega))
        return acc
    if tag == "prod":
        items = node[1]
        acc = _eval_tree(items[0], omega)
        for k in range(1, len(items)):
            right = _eval_tree(items[k], omega)
            _check_size_tagged(acc, right, ("prod", items[:k + 1]))
            acc = _mul_tagged(acc, right)
        return acc
    left, right = _eval_tree(node[1], omega), _eval_tree(node[2], omega)
    _check_size_tagged(left, right, node)
    param = None
    for v in (left, right):
        if v[0] == "op":
            param = v[1].param or param
    return ("op", commutator(_promote_tagged(left, param),
                             _promote_tagged(right, param)).normalized())


def two_pass_build(text, omega=Fraction(1)) -> DiffOp:
    tree = _TreeParser(text, omega).parse()
    try:
        value = _eval_tree(tree, omega)
    except OpError as exc:
        raise DslError(f"cannot build operator: {exc}") from exc
    return _promote_tagged(value, value[1].param if value[0] == "op" else None)


def outcome(route, text, omega=Fraction(1)):
    """The route's operator terms, or the message of the DslError it raises."""
    try:
        return terms(route(text, omega))
    except DslError as exc:
        return str(exc)


# the expressions of the dsl-check benchmark workload
DSL_TABLE = (
    "[Lp, Lm] - 2*L3",
    "[L3, Lm] + Lm",
    "[Rp, Rm] + 2*R3",
    "[Lp, Rm]",
    "[Lp*Lp, Lm] - 2*(Lp*L3 + L3*Lp)",
    "[Lp, [Lm, L3]] + [Lm, [L3, Lp]] + [L3, [Lp, Lm]]",
    "[Casimir, Lp*Lm]",
    "Casimir - 2*(Lp*Lm + Lm*Lp) - 4*L3*L3",
    "[a3, a3d] - 1",
    "[a3, a4d]",
    "[A1, A1d] - 1",
    "[A1, A2d]",
    "[Lp, Lm] - L3",
    "Lp*Lp",
    "Lp*Lp*Lp",
    "[a3, a3d]",
    "Hq + Hm",
    "(" * 3000 + "L3" + ")" * 3000,
)

CORPUS = DSL_TABLE + (
    "Lp", "Lm(3)", "Lm(-2)", "a3d(-1)", "i", "7", "3 - i", "--Hq", "(Lp)",
    "2*(Lp + Lm)", "-(Lp + Lm)*Hq", "i*Rp - 3", "[L3, [Lp, Rm]]", "2*-L3",
    "--A1d", "-(Lp*Lm)", "Lm(3)*Rm(2)", "Casimir(2) - Hq(2)", "A2d(1)*a4(-3)",
    "Hm(4) - 2", "Lp*Lp*Lp*Lp*Lp*Lp", "[Lp*Lp*Lp, Lm*Lm*Lm]",
    "-(Lp + L3)*Lp*Lp*Lp*Lp", "Hq*Hm", "Lp + Bar(2)", "[Lp Lm]",
)


@pytest.mark.parametrize("text", CORPUS, ids=lambda t: t[:40])
def test_one_pass_builds_the_two_pass_terms(text):
    assert outcome(build, text) == outcome(two_pass_build, text)


@pytest.mark.parametrize("omega", [Fraction(1, 2), Fraction(3)])
def test_one_pass_threads_frequencies_as_the_two_pass_route(omega):
    for text in ("[A1, A1d] - 1", "[a3, a3d] - 1", "Hm - A2d*A2", "Hm(2)"):
        assert (outcome(build, text, omega)
                == outcome(two_pass_build, text, omega))


_leaf = st.one_of(
    st.sampled_from(GENERATOR_NAMES).flatmap(
        lambda n: st.one_of(
            st.just(("gen", n, None)),
            st.integers(-4, 4).map(lambda a: ("gen", n, a)))),
    st.integers(0, 9).map(lambda k: ("int", k)),
    st.just(("i",)),
)


def _neg(x):
    return ("neg", x)


def _canonical(depth: int):
    """Strategy over parser-shaped trees: sums/products never nest into
    themselves, and a bare negation never wraps a product (its rendering
    would re-associate)."""
    if depth <= 0:
        return _leaf
    sub = _canonical(depth - 1)
    bracket = st.tuples(st.just("bracket"), sub, sub)
    atom = st.one_of(_leaf, bracket)
    summ = st.lists(st.one_of(atom, atom.map(_neg)),
                    min_size=2, max_size=3).map(lambda xs: ("sum", tuple(xs)))
    neg = st.one_of(atom, summ).map(_neg)
    prod = st.lists(st.one_of(atom, neg, summ),
                    min_size=2, max_size=3).map(lambda xs: ("prod", tuple(xs)))
    return st.one_of(atom, neg, summ, prod)


@settings(max_examples=150, deadline=None)
@given(_canonical(2))
def test_one_pass_matches_the_two_pass_route_on_rendered_trees(tree):
    # the rendered text parses back to the tree, so the oversized-product
    # message, which quotes the source, matches the tree's rendering too
    text = render(tree)
    assert _TreeParser(text, Fraction(1)).parse() == tree
    assert outcome(build, text) == outcome(two_pass_build, text)
