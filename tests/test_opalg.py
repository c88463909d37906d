"""Differential-shift operator algebra: composition, brackets, reduction.

Composition is validated as a homomorphism (composing then applying equals
applying twice), the Leibniz expansion against hand computation, and the
lattice-reduction of periodic-coordinate operators against hand-built
shift operators.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shapeinv.opalg import (
    DiffOp, OpError, OpTerm, apply_canonical, commutator, fourier_reduce,
)
from shapeinv.symx import (
    Add, Const, Cos, Exp, Mul, Pow, Sin, Sym,
    IMAG, ONE, PHI, PSI, R, THETA,
    canonical_key, diff, is_zero_expr, render,
)

F = Mul(Sin(THETA), Cos(PSI))
G = Add(Pow(R, Fraction(2)), Mul(Sin(PSI), Cos(THETA)))
TESTFNS = [
    Mul(Sin(THETA), Sin(PSI)),
    Add(Pow(R, Fraction(2)), Cos(THETA)),
    Mul(Exp(Mul(IMAG, PHI)), Sin(PSI)),
]


def _same_expr(a, b):
    return canonical_key(a) == canonical_key(b)


def test_partial_times_multiplication_is_leibniz():
    dth = DiffOp.partial("theta")
    mf = DiffOp.from_expr(F)
    composed = dth @ mf
    for g in TESTFNS:
        want = Add(Mul(diff(F, "theta"), g), Mul(F, diff(g, "theta")))
        assert _same_expr(composed.apply(g), want)


def test_second_order_leibniz():
    d2 = DiffOp.partial("theta", 2)
    mf = DiffOp.from_expr(F)
    composed = d2 @ mf
    for g in TESTFNS:
        want = Add(Mul(diff(diff(F, "theta"), "theta"), g),
                   Mul(Const(2), diff(F, "theta"), diff(g, "theta")),
                   Mul(F, diff(diff(g, "theta"), "theta")))
        assert _same_expr(composed.apply(g), want)


def test_composition_is_application_homomorphism():
    a = DiffOp.from_expr(G) @ DiffOp.partial("psi") + DiffOp.partial("r", 2)
    b = DiffOp.from_expr(F) @ DiffOp.partial("theta") + DiffOp.from_expr(R)
    ab = a @ b
    for g in TESTFNS:
        assert _same_expr(ab.apply(g), a.apply(b.apply(g)))


def test_shift_acts_before_the_coefficient():
    # c(q) S where S: q -> q - 1 applied to f(q) gives c(q) f(q-1)
    q = Sym("q")
    op = DiffOp.from_expr(q, param="q") @ DiffOp.shift("q", 1)
    f = Mul(q, q)
    got = op.apply(f)
    want = Mul(q, Add(q, Const(-1)), Add(q, Const(-1)))
    assert _same_expr(got, want)


def test_shift_conjugates_coefficients_when_composing():
    # S c(q) = c(q-1) S
    q = Sym("q")
    left = DiffOp.shift("q", 1) @ DiffOp.from_expr(q, param="q")
    right = DiffOp.from_expr(Add(q, Const(-1)), param="q") @ DiffOp.shift("q", 1)
    assert left.same_operator(right)


def test_at_incoming_requires_homogeneous_shift():
    q = Sym("q")
    mixed = DiffOp.shift("q", 1) + DiffOp.shift("q", 2)
    with pytest.raises(OpError):
        mixed.at_incoming(0)
    one = (DiffOp.from_expr(q, param="q") @ DiffOp.shift("q", 1)).at_incoming(3)
    # incoming label 3: operand evaluated at 3, coefficient at 3 + 1
    assert one.param is None
    assert _same_expr(one.apply(ONE), Const(4))


def test_subs_param_rejects_shift_terms():
    op = DiffOp.shift("q", 1)
    with pytest.raises(OpError):
        op.subs_param(2)


def test_parameter_clash():
    a = DiffOp.shift("q", 1)
    b = DiffOp.shift("m", 1)
    with pytest.raises(OpError, match="parameter clash: 'q' vs 'm'"):
        a @ b


def test_shift_requires_named_parameter():
    with pytest.raises(OpError):
        DiffOp((OpTerm(ONE, (0, 0, 0, 0), 1),), None)
    with pytest.raises(OpError):
        DiffOp.shift("theta", 1)


def test_commutator_of_commuting_directions_vanishes():
    a = DiffOp.partial("theta")
    b = DiffOp.partial("psi")
    assert commutator(a, b).normalized().is_zero()


def test_commutator_weyl_pair():
    # [d/dr, r] = 1
    a = DiffOp.partial("r")
    b = DiffOp.from_expr(R)
    c = commutator(a, b).normalized()
    assert c.same_operator(DiffOp.identity())


def test_fourier_reduce_monomial():
    # e^{ik phi} d/dphi acting on e^{ip phi} -> i(p - k) shift(k)
    k = 2
    op = DiffOp.from_expr(Exp(Mul(Const(k), IMAG, PHI))) @ DiffOp.partial("phi")
    red = fourier_reduce(op, "p")
    p = Sym("p")
    want = (DiffOp.from_expr(Mul(IMAG, Add(p, Const(-k))), param="p")
            @ DiffOp.shift("p", k))
    assert red.same_operator(want)


def test_fourier_reduce_handles_sin_cos():
    # cos(phi) = (e^{i phi} + e^{-i phi})/2 -> half shifts both ways
    op = DiffOp.from_expr(Cos(PHI))
    red = fourier_reduce(op, "p").normalized()
    shifts = sorted(t.shift for t in red.terms)
    assert shifts == [-1, 1]
    assert all(_same_expr(t.coeff, Const(Fraction(1, 2))) for t in red.terms)


def test_fourier_reduce_rejects_remaining_phi():
    op = DiffOp.from_expr(Sin(Mul(Const(Fraction(1, 2)), PHI)))
    with pytest.raises(OpError):
        fourier_reduce(op, "p")


def test_render_and_json_round_trip_structure():
    q = Sym("q")
    op = (DiffOp.from_expr(Mul(q, Sin(THETA)), param="q")
          @ DiffOp.partial("theta") @ DiffOp.shift("q", -1))
    text = op.render()
    assert "d/dtheta" in text and "q" in text
    doc = op.to_json()
    assert doc["param"] == "q"
    assert all(set(t) == {"coeff", "derivs", "shift"} for t in doc["terms"])


def test_zero_and_identity():
    z = DiffOp.zero()
    assert z.is_zero() and z.normalized().is_zero()
    assert DiffOp.identity().apply(F) is not None
    assert _same_expr(DiffOp.identity().apply(F), F)


# ---------------------------------------------------------------------------
# Property-based algebra laws
# ---------------------------------------------------------------------------

_coeffs = st.sampled_from([ONE, Const(2), Sin(THETA), Cos(PSI),
                           Pow(R, Fraction(2)), Mul(IMAG, Sin(PSI)), R])
_dirs = st.sampled_from(["theta", "psi", "r"])


@st.composite
def _ops(draw):
    n = draw(st.integers(1, 2))
    out = DiffOp.zero()
    for _ in range(n):
        piece = DiffOp.from_expr(draw(_coeffs))
        if draw(st.booleans()):
            piece = piece @ DiffOp.partial(draw(_dirs))
        out = out + piece
    return out


@settings(max_examples=40, deadline=None)
@given(_ops(), _ops(), _ops())
def test_composition_distributes_over_addition(a, b, c):
    left = (a @ (b + c)).normalized()
    right = (a @ b + a @ c).normalized()
    assert left.same_operator(right)


@settings(max_examples=40, deadline=None)
@given(_ops(), _ops())
def test_commutator_antisymmetry(a, b):
    left = commutator(a, b).normalized()
    right = (-commutator(b, a)).normalized()
    assert left.same_operator(right)


@settings(max_examples=15, deadline=None)
@given(_ops(), _ops(), _ops())
def test_jacobi_identity(a, b, c):
    total = (commutator(a, commutator(b, c))
             + commutator(b, commutator(c, a))
             + commutator(c, commutator(a, b))).normalized()
    assert total.is_zero()


@settings(max_examples=30, deadline=None)
@given(_ops())
def test_apply_canonical_matches_apply(op):
    f = Mul(Sin(THETA), Cos(PSI), R)
    assert canonical_key(apply_canonical(op, f)) == canonical_key(op.apply(f))
