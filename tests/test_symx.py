"""Exact expression kernel: differentiation, canonical forms, evaluation.

The derivative rules are checked against a central finite difference, the
canonical-form engine against independent numeric evaluation, and the
structural laws (commutativity, idempotence) with hypothesis.
"""
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shapeinv import clear_caches, su2, symx, verify
from shapeinv.osc3d import _hermite
from shapeinv.rationals import GaussRat
from shapeinv.symx import (
    Add, Cloud, Const, Cos, EvalError, Exp, Expr, Fn, Mul, Pow, Program, Sin,
    Sym,
    COORDINATES, IMAG, ONE, PHI, PSI, R, THETA, ZERO,
    canonical, canonical_key, children, cot, csc, diff,
    free_symbols, is_zero_expr, rebuild, render,
    simplify_basic, substitute, trig_to_exp, _canon_cf, _key_to_cf, _rank,
)
from shapeinv.verify import PlanDegenerate, SamplePlan, default_battery

from oracles import evaluate

B0 = {"theta": 0.83, "psi": 1.21, "phi": 2.47, "r": 1.37}


def equivalent(a, b) -> bool:
    """Structural equality of canonical forms."""
    return canonical_key(a) == canonical_key(b)


def _fd(e, coord, binding, h=1e-6):
    up = dict(binding)
    dn = dict(binding)
    up[coord] += h
    dn[coord] -= h
    return (evaluate(e, up) - evaluate(e, dn)) / (2 * h)


DIFF_CASES = [
    Mul(Sin(THETA), Cos(PSI)),
    Pow(Sin(THETA), Fraction(-1)),
    Exp(Mul(Const(Fraction(-1, 2)), Pow(R, Fraction(2)))),
    Mul(cot(PSI), csc(THETA)),
    Add(Pow(R, Fraction(1, 2)), Mul(IMAG, Sin(PHI))),
    _hermite(3, Mul(R, Sin(PSI))),
    Exp(Mul(IMAG, PHI)),
    Mul(Pow(R, Fraction(-2)), Cos(Mul(Const(2), THETA))),
]


@pytest.mark.parametrize("e", DIFF_CASES, ids=render)
@pytest.mark.parametrize("coord", ["theta", "psi", "phi", "r"])
def test_diff_matches_finite_difference(e, coord):
    got = evaluate(diff(e, coord), B0)
    want = _fd(e, coord, B0)
    assert abs(got - want) <= 1e-5 * (abs(want) + 1)


def test_hermite_three_term_recurrence():
    # the written-out polynomials obey H_{n+1} = 2x H_n - 2n H_{n-1} exactly,
    # and evaluate to the values the recurrence gives in floats
    for n in range(1, 13):
        assert is_zero_expr(Add(_hermite(n + 1, R),
                                Mul(Const(-2), R, _hermite(n, R)),
                                Mul(Const(2 * n), _hermite(n - 1, R))))
    for x in (-1.3, 0.2, 0.9, 2.4):
        prev, cur = 1.0, 2.0 * x
        for n in range(13):
            got = evaluate(_hermite(n, R), dict(B0, r=x))
            assert abs(got - prev) <= 1e-12 * (abs(prev) + 1), (n, x)
            prev, cur = cur, 2.0 * x * cur - 2.0 * (n + 1) * prev


def test_hermite_derivative_rule():
    # d/dx H_n(x) = 2n H_{n-1}(x), decided exactly
    for n in range(1, 13):
        assert is_zero_expr(Add(diff(_hermite(n, R), "r"),
                                Mul(Const(-2 * n), _hermite(n - 1, R))))


def test_pythagoras_is_exactly_zero():
    e = Add(Pow(Sin(PSI), Fraction(2)), Pow(Cos(PSI), Fraction(2)),
            Const(-1))
    assert is_zero_expr(e)
    assert canonical(e) is ZERO or is_zero_expr(canonical(e))


_exponents = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((R, Exp(R))), _exponents, _exponents)
@example(R, Fraction(1, 2), Fraction(-1, 2))
@example(Exp(R), Fraction(2, 3), Fraction(1, 3))
def test_exponent_merge(base, p, q):
    """base^p * base^q has the canonical form of base^(p+q): exponents of a
    symbol add, and an exp atom folds its power into the argument."""
    product = canonical_key(Mul(Pow(base, p), Pow(base, q)))
    assert product == canonical_key(ONE if p + q == 0 else Pow(base, p + q))


def test_simplify_keeps_the_factors_it_does_not_merge():
    kept = (Pow(R, Fraction(1, 2)), Sin(THETA), Pow(PSI, -2))
    out = simplify_basic(Mul(Const(3), kept[0], THETA, kept[1], THETA,
                             kept[2], Pow(THETA, -2)))
    assert out.key() == Mul(Const(3), *kept).key()
    # the simplified factors themselves, not rebuilt copies
    assert all(a is simplify_basic(b) for a, b in zip(out.factors[1:], kept))


def _pythagoras_expansion(k: int):
    """cos(theta)^k written as (1 - sin(theta)^2)^(k//2) * cos(theta)^(k%2)."""
    h, rem = divmod(k, 2)
    one_minus = Add(ONE, Mul(Const(-1), Pow(Sin(THETA), 2)))
    return Mul(*([one_minus] * h), *([Cos(THETA)] * rem))


@pytest.mark.parametrize("lhs, rhs", [
    (Mul(Exp(Mul(IMAG, PHI)), Exp(Mul(Const(2), IMAG, PHI))),
     Exp(Mul(Const(3), IMAG, PHI))),
    (Mul(Exp(Mul(IMAG, PHI)), Exp(Mul(Const(-1), IMAG, PHI))), ONE),
    (Pow(Exp(R), Fraction(3, 2)), Exp(Mul(Const(Fraction(3, 2)), R))),
    (Mul(Pow(Const(2), Fraction(1, 2)), Pow(Const(2), Fraction(3, 2))), Const(4)),
] + [(Pow(Cos(THETA), k), _pythagoras_expansion(k)) for k in range(2, 6)])
def test_exponent_folds(lhs, rhs):
    """Exp atoms merge, a constant's power folds once it is an integer, and
    cos^k is rewritten through sin^2 = 1 - cos^2."""
    assert equivalent(lhs, rhs)


def test_rational_power_arithmetic_is_exact():
    # 2^(1/2) * 2^(1/2) = 2 without floating error
    s = Pow(Const(2), Fraction(1, 2))
    assert equivalent(Mul(s, s), Const(2))
    w = Pow(Const(Fraction(1, 2)), Fraction(1, 2))
    assert equivalent(Mul(w, w), Const(Fraction(1, 2)))


def test_free_symbols_and_coordinates():
    e = Mul(Sym("q"), Sin(THETA), Exp(Mul(IMAG, PHI)))
    assert free_symbols(e) == frozenset({"q", "theta", "phi"})


def test_simplify_basic_keeps_value():
    e = Add(Mul(Const(0), Sin(THETA)), Mul(Const(1), Cos(PSI)),
            Mul(Const(2), Const(Fraction(1, 2)), R))
    s = simplify_basic(e)
    assert abs(evaluate(s, B0) - evaluate(e, B0)) <= 1e-12


@pytest.mark.parametrize("e", [
    Pow(Add(ONE, Const(-1)), -1),
    Mul(R, Pow(Pow(Add(ONE, Const(-1)), Fraction(1, 2)), -2)),
], ids=["sum", "power"])
def test_negative_power_of_a_zero_is_singular_on_every_route(e):
    # simplify_basic raises what canonical and evaluate raise
    for route in (simplify_basic, canonical, lambda x: evaluate(x, B0)):
        with pytest.raises(EvalError, match="singular"):
            route(e)


def test_gauss_rational_constants():
    c = Const(GaussRat(Fraction(1, 2), Fraction(-3, 4)))
    assert evaluate(c, B0) == 0.5 - 0.75j


# ---------------------------------------------------------------------------
# Property-based structure laws
# ---------------------------------------------------------------------------

_leaves = st.sampled_from([
    THETA, PSI, R, ONE, Const(2), Const(Fraction(1, 2)), IMAG,
    Sin(THETA), Cos(PSI), Pow(R, Fraction(2)),
    Exp(Mul(Const(Fraction(-1, 3)), Pow(R, Fraction(2)))),
])


def _combine(kids):
    return st.one_of(
        st.tuples(kids, kids).map(lambda ab: Add(*ab)),
        st.tuples(kids, kids).map(lambda ab: Mul(*ab)),
        kids.map(lambda a: Mul(Const(Fraction(-2, 3)), a)),
    )


_exprs = st.recursive(_leaves, _combine, max_leaves=5)


@settings(max_examples=60, deadline=None)
@given(_exprs, _exprs)
def test_addition_commutes(a, b):
    assert canonical_key(Add(a, b)) == canonical_key(Add(b, a))


@settings(max_examples=60, deadline=None)
@given(_exprs, _exprs)
def test_multiplication_commutes(a, b):
    assert canonical_key(Mul(a, b)) == canonical_key(Mul(b, a))


@settings(max_examples=60, deadline=None)
@given(_exprs)
def test_canonical_is_idempotent(e):
    c = canonical(e)
    assert canonical_key(c) == canonical_key(e)


def _plain_cf_mul(a: dict, b: dict) -> dict:
    """The product of two CFs, each pair of terms multiplied with its
    coefficients and added into a copy of the running sum; no memo and no
    shortcut for a constant."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            box, atoms = [c1 * c2], {}
            for k, p in (*m1, *m2):
                symx._insert_atom(atoms, box, k, p)
            for m, c in symx._pythagoras(atoms, box[0]).items():
                out = dict(out)
                s = out.get(m)
                s = c if s is None else s + c
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
    return out


def _terms(cf: dict) -> list:
    return [(m, c.key()) for m, c in cf.items()]


@settings(max_examples=80, deadline=None)
@given(_exprs, _exprs)
@example(Const(3), Add(THETA, Cos(PSI)))
@example(Add(THETA, Cos(PSI)), Mul(Const(Fraction(1, 2)), Cos(PSI)))
def test_cf_product_matches_the_plain_product(x, y):
    # the memoized unit products, scaled, the constant shortcut and the
    # product started from the first factor give the same terms in the
    # same order
    a, b = _canon_cf(x), _canon_cf(y)
    assert _terms(symx._cf_mul(a, b)) == _terms(_plain_cf_mul(a, b))
    unit = {(): GaussRat(1)}
    assert _terms(_canon_cf(Mul(x, y))) == _terms(
        _plain_cf_mul(_plain_cf_mul(unit, a), b))


def _has_trig_of(x, name) -> bool:
    if isinstance(x, Fn) and x.name != "exp" and name in free_symbols(x.arg):
        return True
    return any(_has_trig_of(c, name) for c in children(x))


@settings(max_examples=60, deadline=None)
@given(_exprs, st.sampled_from(["theta", "psi"]))
@example(Sin(PHI), "phi")
@example(Cos(PHI), "phi")
@example(Mul(Sin(PHI), Cos(PHI), Sin(THETA)), "phi")
def test_trig_to_exp_preserves_value(e, name):
    x = trig_to_exp(e, name)
    v = evaluate(e, B0)
    assert abs(evaluate(x, B0) - v) <= 1e-12 * max(1.0, abs(v))
    assert not _has_trig_of(x, name)


@settings(max_examples=60, deadline=None)
@given(_exprs, st.sampled_from(["theta", "psi", "r"]),
       st.sampled_from([Const(3), Sym("q"), Add(PHI, Const(-1))]))
@example(Mul(Sym("q"), Sin(THETA)), "q", Const(3))
@example(Mul(Sym("q"), Sin(THETA)), "q", R)
def test_substitute_replaces_symbol(e, name, repl):
    s = substitute(e, name, repl)
    assert name not in free_symbols(s)
    b = {**B0, "q": 0.7}
    v = evaluate(e, {**b, name: evaluate(repl, b)})
    assert abs(evaluate(s, b) - v) <= 1e-12 * max(1.0, abs(v))


@settings(max_examples=40, deadline=None)
@given(_exprs, _exprs)
def test_diff_is_linear(a, b):
    left = diff(Add(a, b), "theta")
    right = Add(diff(a, "theta"), diff(b, "theta"))
    assert canonical_key(left) == canonical_key(right)


@settings(max_examples=40, deadline=None)
@given(_exprs, _exprs)
def test_product_rule(a, b):
    left = diff(Mul(a, b), "r")
    right = Add(Mul(diff(a, "r"), b), Mul(a, diff(b, "r")))
    assert canonical_key(left) == canonical_key(right)


def _full_chain_rule(e, coord):
    """Oracle: the chain rule with every term built, one product-rule term
    per factor and a chain-rule product per function, zero or not."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == coord else ZERO
    if isinstance(e, Add):
        return Add(*(_full_chain_rule(t, coord) for t in e.terms))
    if isinstance(e, Mul):
        fs = e.factors
        return Add(*(Mul(*fs[:i], _full_chain_rule(fs[i], coord), *fs[i + 1:])
                     for i in range(len(fs))))
    inner = _full_chain_rule(e.base if isinstance(e, Pow) else e.arg, coord)
    if isinstance(e, Pow):
        p = e.exponent
        return Mul(Const(p), Pow(e.base, p - 1), inner)
    if e.name == "sin":
        return Mul(Cos(e.arg), inner)
    if e.name == "cos":
        return Mul(Const(-1), Sin(e.arg), inner)
    return Mul(e, inner)


@settings(max_examples=100, deadline=None)
@given(_exprs, st.sampled_from(COORDINATES))
@example(Mul(Sin(THETA), Cos(PSI), R), "psi")
@example(Add(Sin(THETA), Mul(Const(2), Exp(Pow(R, Fraction(2))))), "theta")
@example(Mul(Add(THETA, R), Add(PSI, ONE)), "phi")
def test_diff_matches_the_full_chain_rule(e, coord):
    got = simplify_basic(diff(e, coord))
    assert got.key() == simplify_basic(_full_chain_rule(e, coord)).key()


# ---------------------------------------------------------------------------
# Node invariants: a node hashes from its children's hashes and compares by
# its full key
# ---------------------------------------------------------------------------

def _fresh(e):
    """A copy of `e` that shares no node with it."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Sym):
        return Sym(e.name)
    return rebuild(e, [_fresh(c) for c in children(e)])


@settings(max_examples=60, deadline=None)
@given(_exprs)
def test_rebuilt_nodes_are_equal_with_equal_hashes(e):
    same = rebuild(e, children(e))
    assert same == e and hash(same) == hash(e)
    twin = _fresh(e)
    assert twin == e and hash(twin) == hash(e) and twin.key() == e.key()


# ---------------------------------------------------------------------------
# One function node: sin, cos and exp are `Fn` nodes with their name as the
# key tag.  The oracles below are the branches the kernel had while each
# function was a class of its own, one per function, pinned against the one
# `Fn` branch on trees with nested functions and arguments that are zero
# ---------------------------------------------------------------------------

_FN_NAMES = st.sampled_from(["sin", "cos", "exp"])


def _fn_combine(kids):
    return st.one_of(
        _combine(kids),
        st.builds(Fn, _FN_NAMES, kids),
        # an argument that simplify_basic folds to zero, and one that only
        # the canonical form finds zero
        st.builds(lambda n, a: Fn(n, Mul(ZERO, a)), _FN_NAMES, kids),
        st.builds(lambda n, a: Fn(n, Add(a, Mul(Const(-1), a))),
                  _FN_NAMES, kids),
    )


_fn_exprs = st.recursive(_leaves, _fn_combine, max_leaves=6)
_SIMPLIFY_NODE = symx._simplify_node.__wrapped__
_CANON_CF = symx._canon_cf.__wrapped__


def _simplify_node_per_class(e):
    if not isinstance(e, Fn):
        return _SIMPLIFY_NODE(e)
    if e.name == "sin":
        a = simplify_basic(e.arg)
        if isinstance(a, Const) and a.value.is_zero():
            return ZERO
        return Sin(a)
    if e.name == "cos":
        a = simplify_basic(e.arg)
        if isinstance(a, Const) and a.value.is_zero():
            return ONE
        return Cos(a)
    a = simplify_basic(e.arg)
    if isinstance(a, Const) and a.value.is_zero():
        return ONE
    return Exp(a)


def _canon_cf_per_class(e):
    if not isinstance(e, Fn):
        return _CANON_CF(e)
    if e.name == "sin":
        acf = symx._canon_cf(e.arg)
        return {} if not acf else {((("sin", symx._cf_key(acf)), (1, 1)),):
                                   GaussRat(1)}
    if e.name == "cos":
        acf = symx._canon_cf(e.arg)
        if not acf:
            return symx._cf_const(GaussRat(1))
        return {((("cos", symx._cf_key(acf)), (1, 1)),): GaussRat(1)}
    acf = symx._canon_cf(e.arg)
    if not acf:
        return symx._cf_const(GaussRat(1))
    return {((("exp", symx._cf_key(acf)), (1, 1)),): GaussRat(1)}


@settings(max_examples=150, deadline=None)
@given(_fn_exprs)
@example(Sin(Mul(ZERO, THETA)))
@example(Mul(Cos(Add(R, Mul(Const(-1), R))), Exp(Mul(ZERO, PSI)), Sin(R)))
@example(Exp(Add(Sin(THETA), Cos(Mul(ZERO, R)))))
def test_one_function_branch_matches_the_per_class_branches(e):
    clear_caches()
    want_tree, want_cf = simplify_basic(e), _canon_cf(e)
    clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symx, "MEMO_CAP", 0)  # every node through the oracles
        mp.setattr(symx, "_simplify_node", _simplify_node_per_class)
        mp.setattr(symx, "_canon_cf", _canon_cf_per_class)
        tree, cf = simplify_basic(e), symx._canon_cf(e)
    clear_caches()
    assert want_tree.key() == tree.key()
    assert _terms(want_cf) == _terms(cf)


@pytest.mark.parametrize("build,name",
                         [(Sin, "sin"), (Cos, "cos"), (Exp, "exp")],
                         ids=["sin", "cos", "exp"])
@pytest.mark.parametrize("x", [THETA, Add(R, ONE), Sin(PSI)], ids=render)
def test_function_node_format(build, name, x):
    f = build(x)
    assert type(f) is Fn and f.name == name and f.arg is x
    assert f == Fn(name, x)
    assert f.key() == (name, x.key())
    assert hash(f) == hash((name, hash(x)))
    assert render(f) == f"{name}({render(x)})"
    # the canonical atom tag is the name, and it reads back as the node
    ((mono, coeff),) = _canon_cf(f).items()
    ((atom, exp),) = mono
    assert atom[0] == name and exp == (1, 1) and coeff.is_one()
    assert symx._atom_to_expr(atom) == Fn(name, canonical(x))


@pytest.mark.parametrize("build,value", [(Sin, 0), (Cos, 1), (Exp, 1)],
                         ids=["sin", "cos", "exp"])
@pytest.mark.parametrize("zero,folds", [
    (ZERO, True), (Mul(ZERO, R), True), (Add(R, Mul(Const(-1), R)), False),
], ids=["zero", "zero-product", "cancelling-sum"])
def test_function_of_zero_folds_to_its_value(build, value, zero, folds):
    want = Const(value).key()
    assert canonical(build(zero)).key() == want
    # simplify_basic folds a zero product but does not cancel terms
    assert (simplify_basic(build(zero)).key() == want) is folds


def test_unknown_function_names_are_refused():
    with pytest.raises(TypeError):
        Fn("tan", THETA)


# ---------------------------------------------------------------------------
# simplify_basic is idempotent, so its results are served as their own
# simplification
# ---------------------------------------------------------------------------

ROOT2 = Pow(Const(2), Fraction(1, 2))
RT = Mul(R, THETA)


@pytest.mark.parametrize("e, want", [
    # a merged power of a constant folds into the coefficient
    (Mul(ROOT2, ROOT2, R), Mul(Const(2), R)),
    (Mul(ROOT2, Pow(Const(2), Fraction(-1, 2))), ONE),
    (Mul(Const(3), ROOT2, R, Pow(Const(2), Fraction(3, 2))),
     Mul(Const(12), R)),
    (Mul(Pow(Const(0), Fraction(1, 2)), Pow(Const(0), Fraction(1, 2)), R),
     ZERO),
    # a merged power of a product is spliced, and its factors merge on
    (Mul(Pow(RT, Fraction(1, 2)), Pow(RT, Fraction(1, 2)), R),
     Mul(Pow(R, 2), THETA)),
    # a merged power of a power merges with its base's other powers
    (Mul(Pow(Pow(R, Fraction(1, 2)), Fraction(1, 2)),
         Pow(Pow(R, Fraction(1, 2)), Fraction(1, 2)), Pow(R, Fraction(-1, 2))),
     ONE),
    (Mul(Pow(Pow(R, Fraction(2, 3)), Fraction(3, 4)),
         Pow(Pow(R, Fraction(2, 3)), Fraction(9, 4)), R),
     Pow(R, 3)),
], ids=["root2-squared", "root2-over-root2", "constant-powers",
        "zero-root-squared", "product-root-squared", "power-root-squared",
        "power-powers"])
def test_simplify_merges_until_nothing_merges(e, want, monkeypatch):
    monkeypatch.setattr(symx, "MEMO_CAP", 0)
    out = simplify_basic(e)
    assert out.key() == want.key()
    assert simplify_basic(out).key() == want.key()


def test_a_power_merged_to_a_constant_folds_in_place(monkeypatch):
    # the constant joins the coefficient without a second merging pass
    monkeypatch.setattr(symx, "MEMO_CAP", 0)
    entries = []
    product = symx._product
    monkeypatch.setattr(symx, "_product",
                        lambda *a: entries.append(a) or product(*a))
    out = simplify_basic(Mul(ROOT2, ROOT2, R))
    assert out.key() == Mul(Const(2), R).key()
    assert len(entries) == 1


_idem_leaves = st.sampled_from([
    THETA, R, ZERO, ONE, Const(-1), Const(Fraction(1, 2)), IMAG, Sin(THETA),
    ROOT2, Pow(R, Fraction(1, 2)), Pow(Sin(THETA), Fraction(1, 3)),
])
_idem_powers = st.sampled_from([Fraction(p) for p in
                                (-2, -1, 0, 1, 2, "1/2", "-1/2", "3/2",
                                 "1/3", "2/3")])


def _power_or_none(base, p):
    try:
        return Pow(base, p)
    except EvalError:  # a negative power of the zero constant
        return None


def _built(x) -> bool:
    return x is not None


_idem_halves = st.sampled_from([Fraction(p) for p in (1, "1/2", "-1/2", "3/2")])


def _merge_next_to(a, b, p):
    """a·b^p·b^p, or None where b^p is singular."""
    bp = b if p == 1 else _power_or_none(b, p)
    return None if bp is None else Mul(a, bp, bp)


def _idem_combine(kids):
    return st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda ts: Add(*ts)),
        st.lists(kids, min_size=2, max_size=4).map(lambda fs: Mul(*fs)),
        # a·b^p·b^p: two powers of b merge next to another factor
        st.builds(_merge_next_to, kids, kids, _idem_halves).filter(_built),
        st.builds(_power_or_none, kids, _idem_powers).filter(_built),
        kids.map(Sin), kids.map(Exp),
    )


_idem_exprs = st.recursive(_idem_leaves, _idem_combine, max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_idem_exprs)
@example(Mul(ROOT2, ROOT2, R))
@example(Mul(Pow(RT, Fraction(1, 2)), Pow(RT, Fraction(1, 2)), R))
def test_simplify_basic_is_idempotent(e):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symx, "MEMO_CAP", 0)  # the uncached route
        try:
            once = simplify_basic(e)
        except EvalError:  # a negative power of a zero
            assume(False)
        assert simplify_basic(once).key() == once.key()


def test_a_simplified_tree_is_served_as_itself():
    clear_caches()
    e = Add(Mul(ROOT2, ROOT2, R), Mul(Sin(THETA), Pow(Sin(THETA), 2)))
    out = simplify_basic(e)
    assert out in symx._SIMPLIFIED
    # an equal tree built apart is a lookup that returns the stored node
    assert simplify_basic(_fresh(out)) is out
    entries = len(symx._SIMPLIFY_MEMO)
    simplify_basic(_fresh(out))
    assert len(symx._SIMPLIFY_MEMO) == entries
    clear_caches()


_UNARY = (Sin, Cos, Exp)


@pytest.mark.parametrize("value",
                         [1, Fraction(1, 2), GaussRat(2, Fraction(-1, 3))],
                         ids=["int", "Fraction", "GaussRat"])
@pytest.mark.parametrize("node", [Add, Mul, *_UNARY],
                         ids=lambda n: n.__name__)
def test_coerced_arguments_build_the_same_node(value, node):
    rest = () if node in _UNARY else (R,)
    x, y = node(value, *rest), node(Const(value), *rest)
    assert x == y and hash(x) == hash(y) and x.key() == y.key()


@pytest.mark.parametrize("build", [
    lambda: Add(1.5, R), lambda: Mul(object(), R), lambda: Add(R, 2j),
    lambda: Mul(R, ONE, "theta"), lambda: Sin(0.5),
], ids=["Add float", "Mul object", "Add complex", "Mul str", "Sin float"])
def test_arguments_that_are_not_exact_still_raise(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("e", [ONE, R, Add(R, ONE), Mul(R, THETA),
                               Pow(R, Fraction(1, 2)), Sin(R), Cos(R), Exp(R)],
                         ids=render)
def test_nodes_are_immutable(e):
    key, h = e.key(), hash(e)
    for name in Expr.__slots__ + type(e).__slots__:
        with pytest.raises(AttributeError):
            setattr(e, name, ZERO)
    assert e.key() == key and hash(e) == h


@settings(max_examples=40, deadline=None)
@given(_exprs)
def test_canonical_preserves_value(e):
    v = evaluate(e, B0)
    w = evaluate(canonical(e), B0)
    assert abs(v - w) <= 1e-9 * (abs(v) + 1)


# ---------------------------------------------------------------------------
# The compiled evaluator against the tree oracle `evaluate`
# ---------------------------------------------------------------------------

class _CountingBinding(dict):
    """A binding that counts how often each symbol is looked up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = {}

    def __getitem__(self, name):
        self.reads[name] = self.reads.get(name, 0) + 1
        return super().__getitem__(name)


# points around B0, one of them on the singular locus phi = 0
_POINTS = [B0, {**B0, "phi": 0.0}, {"theta": 0.41, "psi": 2.2, "phi": 5.1, "r": 0.6}]


def _oracle(e, binding):
    """`evaluate`, or None where it raises."""
    try:
        return evaluate(e, binding)
    except (EvalError, ArithmeticError, ValueError):
        return None


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


def _failed(values) -> set:
    """The points where a column holds nan: where the program failed."""
    return {i for col in values for i, v in enumerate(col) if v != v}


@settings(max_examples=400, deadline=None)
@given(st.lists(_exprs, min_size=2, max_size=4))
# the (1 + 0j) that starts a product turns the imaginary part -0.0 of
# cos(psi) at psi = 1.21 into +0.0, which the square root keeps; the sum is
# theta in its order and 0 in any other
@example([Pow(Mul(Cos(PSI), Cos(PSI)), Fraction(1, 2)),
          Add(THETA, Const(10 ** 16), Const(-10 ** 16))])
def test_program_matches_tree_oracle(es):
    es = [*es, Mul(R, Sin(THETA))]
    values = Program(es)(Cloud(_POINTS))
    assert not _failed(values)
    for e, col in zip(es, values, strict=True):
        for b, got in zip(_POINTS, col, strict=True):
            assert _bits(got) == _bits(evaluate(e, b))


def test_a_sum_wider_than_one_chain_of_maps():
    e = Add(*[R] * 100_000, THETA)
    (col,) = values = Program([e])(Cloud(_POINTS))
    assert not _failed(values)
    assert [_bits(v) for v in col] == [_bits(evaluate(e, b)) for b in _POINTS]


@settings(max_examples=60, deadline=None)
@given(st.lists(_exprs, min_size=1, max_size=4))
def test_program_reads_each_symbol_once_per_point(es):
    es = [*es, Mul(R, Sin(THETA)), Add(R, THETA)]
    program = Program(es)
    assert program.symbols == set().union(*map(free_symbols, es))
    bindings = [_CountingBinding(b) for b in _POINTS]
    program(Cloud(bindings))
    for b in bindings:
        assert b.reads == {name: 1 for name in program.symbols}


def _close(got, want) -> bool:
    return (got == want or abs(got - want) <= 1e-12 * max(1.0, abs(want))
            or (got != got and want != want))


@settings(max_examples=40, deadline=None)
@given(_exprs)
@example(Mul(Const(10 ** 400), R))  # a constant past the float range
def test_program_skips_exactly_where_tree_oracle_raises(e):
    es = [e, Mul(e, Sym("q")), Mul(e, Pow(Sin(PHI), -1)),
          Exp(Mul(Const(900), R, e))]
    for f in es:
        (col,) = values = Program([f])(Cloud(_POINTS))
        want = [_oracle(f, b) for b in _POINTS]
        assert _failed(values) == {i for i, w in enumerate(want) if w is None}
        assert all(_close(col[i], w) for i, w in enumerate(want) if w is not None)
    # in one program, a point where any tree fails fails for all of them
    assert _failed(Program(es[::2])(Cloud(_POINTS))) == {
        i for i, b in enumerate(_POINTS)
        if any(_oracle(f, b) is None for f in es[::2])}


@settings(max_examples=40, deadline=None)
@given(st.lists(_exprs, min_size=2, max_size=4), _exprs)
def test_a_grown_program_answers_as_a_fresh_one(es, e):
    # the failures of the trees already in the table stay theirs
    es = [*es, Mul(e, Pow(Sin(PHI), -1)), Exp(Mul(Const(900), R, e))]
    program, cloud = Program(es[:2]), Cloud(_POINTS)
    for request in ([es[2]], es[1:3], [e, es[-1]], es[:1], [Add(e, es[0])]):
        program.add(request)
        assert program.symbols == set().union(*map(free_symbols, request))
        values, want = program(cloud), Program(request)(Cloud(_POINTS))
        bad = _failed(values)
        assert bad == _failed(want)
        for col, ref in zip(values, want, strict=True):
            assert [v for i, v in enumerate(col) if i not in bad] == \
                [v for i, v in enumerate(ref) if i not in bad]


# overflow where r > 709.78/310, at about one point in ten of a plan, and
# where r > 709.78/600, past the skip budget
_OVERFLOW = Exp(Mul(Const(310), R))
_OVER_BUDGET = Exp(Mul(Const(600), R))


def _alone(exprs, plan: SamplePlan, name: str):
    """`verify._sample` for one request, on a fresh one-request program."""
    program = Program(exprs)
    cloud = Cloud(plan.points(program.symbols - set(COORDINATES)))
    vals, kept, skipped = verify._eval_many(program, cloud)
    verify._guard_skips(skipped, plan.count, name)
    return vals, kept, skipped


def _outcome(sample, exprs, plan, name):
    """Values, kept points, skipped count and worst binding of a request,
    or the message of the PlanDegenerate it raises."""
    try:
        vals, kept, skipped = sample(exprs, plan, name)
    except PlanDegenerate as exc:
        return str(exc)
    return vals, kept, skipped, verify._worst_point(kept, vals[0])


@settings(max_examples=40, deadline=None)
@given(st.lists(_exprs, min_size=3, max_size=3), st.data())
def test_shared_columns_answer_each_request_as_a_fresh_program(pool, data):
    a, b, c = pool
    one, two = (SamplePlan(seed=data.draw(st.integers(0, 99)), count=20)
                for _ in range(2))
    requests = [
        ([a, Mul(a, b)], one),
        ([Mul(a, b), Add(b, c)], one),         # shares subtrees
        ([Mul(Sym("q"), a), c], one),          # another cloud of one plan
        ([Mul(a, b)], two),                    # the same trees, another plan
        ([Mul(c, _OVERFLOW)], one),            # fails at some points
        ([Mul(b, _OVER_BUDGET)], one),         # raises PlanDegenerate
        ([Mul(Sin(PHI), Cos(PHI))], one),      # shares none of its nodes
        ([c, Add(c, ONE)], one),               # shares all but the failing ones
    ]
    order = data.draw(st.permutations(range(len(requests))))
    names = [f"request {i}" for i in order]
    want = [_outcome(_alone, *requests[i], name)
            for i, name in zip(order, names)]
    with verify.shared_columns():
        got = [_outcome(verify._sample, *requests[i], name)
               for i, name in zip(order, names)]
    assert got == want


def _sampled_max(e):
    (col,) = values = Program([e])(Cloud(_POINTS))
    assert not _failed(values)
    return max(abs(v) for v in col)


@settings(max_examples=60, deadline=None)
@given(_exprs)
def test_canonical_zero_samples_to_rounding(e):
    # e - canonical(e) has the zero CF; sampling the tree sees rounding only,
    # relative to the larger of e and canonical(e) on the points
    assume(not is_zero_expr(e))
    c = canonical(e)
    residual = Add(e, Mul(Const(-1), c))
    assert is_zero_expr(residual)
    scale = max(_sampled_max(e), _sampled_max(c))
    assert _sampled_max(residual) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(_exprs)
def test_nonzero_canonical_form_samples_nonzero(e):
    assume(not is_zero_expr(e))
    assert _sampled_max(e) > 0.0


# ---------------------------------------------------------------------------
# Native tuple order against the recursive sort key it replaced
# ---------------------------------------------------------------------------

def _ordkey(x):
    """Oracle: the former sort key (tuples < strings < everything else)."""
    if isinstance(x, tuple):
        return (0, tuple(_ordkey(i) for i in x))
    if isinstance(x, str):
        return (1, x)
    return (2, x)


def _arg_keys(mono):
    for akey, _ in mono:
        if akey[0] in ("sin", "cos", "exp"):
            yield akey[1]


def _pooled_sort_inputs(cfs):
    """The monomials, `_cf_key` pairs and atom pairs of the CFs and of every
    nested atom argument, each kind pooled into one list."""
    monos, pairs, atoms = [], [], []
    todo = list(cfs)
    while todo:
        cf = todo.pop()
        monos += cf
        pairs += [(m, c.key()) for m, c in cf.items()]
        for mono in cf:
            atoms += mono
            todo += [_key_to_cf(k) for k in _arg_keys(mono)]
    return monos, pairs, atoms


def _assert_native_order(cfs):
    for keys in _pooled_sort_inputs(cfs):
        assert sorted(keys) == sorted(keys, key=_ordkey)


def _mul_factor_sort_keys(e):
    """(native, oracle) factor keys of every Mul node, as `render` sorts them."""
    if isinstance(e, Mul):
        for f in e.factors:
            yield (_rank(f), f.key()), (_rank(f), _ordkey(f.key()))
    for c in children(e):
        yield from _mul_factor_sort_keys(c)


@settings(max_examples=60, deadline=None)
@given(st.lists(_exprs, min_size=1, max_size=4))
def test_native_order_matches_oracle_on_canonical_keys(es):
    _assert_native_order([_canon_cf(e) for e in es])


@settings(max_examples=60, deadline=None)
@given(st.lists(_exprs, min_size=1, max_size=4))
def test_native_order_matches_oracle_in_render(es):
    pairs = [p for e in es for x in (e, canonical(e))
             for p in _mul_factor_sort_keys(x)]
    assert (sorted(native for native, _ in pairs)
            == [native for native, _ in sorted(pairs, key=lambda p: p[1])])


def test_native_order_matches_oracle_on_bracket_table():
    gens = su2.build_raw_generators()
    cfs = [_canon_cf(t.coeff)
           for _, res, refs in su2.commutator_residuals(gens)
           for op in (res, *refs) for t in op.terms]
    cfs += [_canon_cf(op.apply(f))
            for _, op in gens.pairs() for f in default_battery("q")]
    assert len(cfs) > 500
    _assert_native_order(cfs)
