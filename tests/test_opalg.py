"""Differential-shift operator algebra: composition, brackets, reduction.

Composition is validated as a homomorphism (composing then applying equals
applying twice), the Leibniz expansion against hand computation, and the
lattice-reduction of periodic-coordinate operators against hand-built
shift operators.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shapeinv import ladders2d, osc3d, su2
from shapeinv.opalg import (
    DiffOp, OpError, OpTerm, apply_canonical, commutator, fourier_reduce,
)
from shapeinv.symx import (
    Add, Const, Cos, Exp, Mul, Pow, Sin, Sym,
    IMAG, ONE, PHI, PSI, R, THETA,
    canonical_key, cf_to_expr, diff, simplify_basic,
    trig_to_exp, _canon_cf, _cf_key, _key_to_cf,
)
from shapeinv.verify import SamplePlan

F = Mul(Sin(THETA), Cos(PSI))
G = Add(Pow(R, Fraction(2)), Mul(Sin(PSI), Cos(THETA)))
TESTFNS = [
    Mul(Sin(THETA), Sin(PSI)),
    Add(Pow(R, Fraction(2)), Cos(THETA)),
    Mul(Exp(Mul(IMAG, PHI)), Sin(PSI)),
]


def _same_expr(a, b):
    return canonical_key(a) == canonical_key(b)


def _shift(param, k):
    """The bare shift S^k of the parameter `param`."""
    return DiffOp((OpTerm(ONE, (0, 0, 0, 0), k),), param)


def test_partial_times_multiplication_is_leibniz():
    dth = DiffOp.partial("theta")
    mf = DiffOp.from_expr(F)
    composed = dth @ mf
    for g in TESTFNS:
        want = Add(Mul(diff(F, "theta"), g), Mul(F, diff(g, "theta")))
        assert _same_expr(composed.apply(g), want)


def test_second_order_leibniz():
    d2 = DiffOp((OpTerm(ONE, (2, 0, 0, 0)),))
    mf = DiffOp.from_expr(F)
    composed = d2 @ mf
    for g in TESTFNS:
        want = Add(Mul(diff(diff(F, "theta"), "theta"), g),
                   Mul(Const(2), diff(F, "theta"), diff(g, "theta")),
                   Mul(F, diff(diff(g, "theta"), "theta")))
        assert _same_expr(composed.apply(g), want)


def test_composition_is_application_homomorphism():
    a = (DiffOp.from_expr(G) @ DiffOp.partial("psi")
         + DiffOp((OpTerm(ONE, (0, 0, 0, 2)),)))
    b = DiffOp.from_expr(F) @ DiffOp.partial("theta") + DiffOp.from_expr(R)
    ab = a @ b
    for g in TESTFNS:
        assert _same_expr(ab.apply(g), a.apply(b.apply(g)))


def test_shift_acts_before_the_coefficient():
    # c(q) S where S: q -> q - 1 applied to f(q) gives c(q) f(q-1)
    q = Sym("q")
    op = DiffOp.from_expr(q, param="q") @ _shift("q", 1)
    f = Mul(q, q)
    got = op.apply(f)
    want = Mul(q, Add(q, Const(-1)), Add(q, Const(-1)))
    assert _same_expr(got, want)


def test_shift_conjugates_coefficients_when_composing():
    # S c(q) = c(q-1) S
    q = Sym("q")
    left = _shift("q", 1) @ DiffOp.from_expr(q, param="q")
    right = DiffOp.from_expr(Add(q, Const(-1)), param="q") @ _shift("q", 1)
    assert left.same_operator(right)


def test_at_incoming_requires_homogeneous_shift():
    q = Sym("q")
    mixed = _shift("q", 1) + _shift("q", 2)
    with pytest.raises(OpError):
        mixed.at_incoming(0)
    one = (DiffOp.from_expr(q, param="q") @ _shift("q", 1)).at_incoming(3)
    # incoming label 3: operand evaluated at 3, coefficient at 3 + 1
    assert one.param is None
    assert _same_expr(one.apply(ONE), Const(4))


def test_subs_param_rejects_shift_terms():
    op = _shift("q", 1)
    with pytest.raises(OpError):
        op.subs_param(2)


def test_parameter_clash():
    a = _shift("q", 1)
    b = _shift("m", 1)
    with pytest.raises(OpError, match="parameter clash: 'q' vs 'm'"):
        a @ b


def test_shift_requires_named_parameter():
    with pytest.raises(OpError):
        DiffOp((OpTerm(ONE, (0, 0, 0, 0), 1),), None)
    with pytest.raises(OpError):
        _shift("theta", 1)


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
            @ _shift("p", k))
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
          @ DiffOp.partial("theta") @ _shift("q", -1))
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


# ---------------------------------------------------------------------------
# Structural decisions against the round-trip oracle
# ---------------------------------------------------------------------------

def _round_trip_key(op):
    """Oracle: canonicalize each coefficient, rebuild it as a tree, and
    canonicalize the tree again for the key."""
    return tuple((t.derivs, t.shift, canonical_key(t.coeff))
                 for t in op.normalized().terms)


def _assert_routes_agree(op, label=""):
    key = _round_trip_key(op)
    assert op.structure_key() == key, label
    assert op.is_zero() == (not key), label


def _structural_pairs():
    """Every operator pair the suite and `osc3d.transcription_reports` decide
    structurally, with a name for failure messages."""
    raw = su2.build_raw_generators()
    red = su2.build_reduced_generators()
    yield "invariant routes", su2.quadratic(raw), su2.quadratic_right(raw)
    yield "invariant closed", su2.casimir(raw), su2.casimir_reference()
    yield ("invariant reduced", fourier_reduce(su2.casimir(raw), "q"),
           su2.casimir_reduced_reference())
    for name, op in red.pairs():
        yield f"reduced {name}", op, su2.reduced_ladder_reference(name)
    yield ("weight similarity",
           su2.conjugate(su2.casimir_reduced_reference(), su2.weight_psi()),
           su2.weighted_reduced_reference())
    hq = su2.build_Hq(SamplePlan(seed=11, count=60))
    yield "Hq", hq.reference, hq.derived
    for (name, a), b in zip(su2.build_primed_generators().pairs(),
                            su2.primed_reference()):
        yield f"primed {name}", a, b

    cart = osc3d.cartesian_ladders()
    comb = osc3d.build_combos()
    s = osc3d.build_oscillators()
    yield "cartesian a1", cart.a1, osc3d.cartesian_a1_printed()
    for name in ("A1", "A1d", "A2", "A2d"):
        yield (f"full {name} printed", getattr(comb, name),
               osc3d.combo_reference(name, printed=True))
        yield (f"reduced {name} printed", getattr(s, name),
               osc3d.reduced_reference(name, printed=True))
        yield (f"reduced {name}", getattr(s, name),
               osc3d.reduced_reference(name))
    yield ("printed A1d and A2", osc3d.combo_reference("A1d", printed=True),
           osc3d.combo_reference("A2", printed=True))
    yield "H4", osc3d.build_H4(), osc3d.h4_reference()
    yield ("angular block", osc3d._angular_block(),
           -1 * su2.casimir_reference())
    yield "Hm", osc3d.build_Hm(), osc3d.hm_reference()
    yield ("radial similarity",
           su2.conjugate(osc3d.build_Hm(), Pow(R, Fraction(1, 2))),
           osc3d.hm_tilde_reference())
    printed_red = fourier_reduce(osc3d.h4_reference(printed=True), "m")
    scale = Mul(Const(Fraction(-1, 2)),
                Add(Pow(R, Fraction(-1)), Mul(Const(-1), Pow(R, Fraction(-2)))))
    yield ("angular prefactor",
           (printed_red - osc3d.hm_reference()).normalized(),
           DiffOp.from_expr(scale, "m") @ osc3d._angular_block(reduced=True))
    for reduced in (True, False):
        fact, ham = osc3d.factorization(reduced, 2)
        yield f"factorization reduced={reduced}", fact, ham


def _residuals():
    for gs in (su2.build_raw_generators(), su2.build_reduced_generators()):
        yield from su2.commutator_residuals(gs)
    for reduced in (True, False):
        yield from osc3d.commutator_residuals(reduced=reduced)
    yield from osc3d.intertwining_residuals()
    res = ladders2d.reorder_identity_residuals()
    yield "reorder valid", res["valid"], ()
    yield "reorder stated", res["stated"], ()


def test_structural_decisions_match_round_trip_on_residuals():
    for label, res, _ in _residuals():
        _assert_routes_agree(res, label)


def test_structural_decisions_match_round_trip_on_pairs():
    for label, a, b in _structural_pairs():
        diff = a - b
        for op in (a, b, diff):
            _assert_routes_agree(op, label)
        assert a.same_operator(b) == (_round_trip_key(a) == _round_trip_key(b)), label


@settings(max_examples=40, deadline=None)
@given(_ops(), _ops())
def test_structural_decisions_match_round_trip_on_random_ops(a, b):
    for op in (a, a @ b, commutator(a, b), a - a):
        _assert_routes_agree(op)


# ---------------------------------------------------------------------------
# Fourier reduction against the route that walked canonical forms
# ---------------------------------------------------------------------------

def _oracle_cf_mentions(cf, name):
    for mono in cf:
        for akey, _ in mono:
            kind = akey[0]
            if kind == "sym" and akey[1] == name:
                return True
            if kind in ("sin", "cos", "exp") and _oracle_cf_mentions(
                    _key_to_cf(akey[1]), name):
                return True
    return False


_ORACLE_PHI_MONO = ((("sym", "phi"), (1, 1)),)


def _oracle_split_phi_exponent(argcf):
    k = 0
    rest = {}
    for mono, coeff in argcf.items():
        if mono == _ORACLE_PHI_MONO:
            re_num, _, im_num, im_den = coeff.key()
            if not re_num == 0:
                raise OpError("exp argument has a non-imaginary phi part")
            if im_den != 1:
                raise OpError("exp argument phi frequency is not an integer")
            k = im_num
        else:
            rest[mono] = coeff
    if _oracle_cf_mentions(rest, "phi"):
        raise OpError("exp argument depends on phi beyond a linear term")
    return k, rest


def _oracle_fourier_reduce(op, param):
    """The reduction as it was written before `symx.fourier_modes`: it read
    the canonical form's atom keys and Gaussian-rational fields directly."""
    psym = Sym(param)
    out = []
    phi_index = 2
    for t in op.terms:
        cf = _canon_cf(trig_to_exp(t.coeff, "phi"))
        n = t.derivs[phi_index]
        derivs = tuple(0 if i == phi_index else d for i, d in enumerate(t.derivs))
        for mono, coeff in cf.items():
            atoms = []
            k = 0
            for akey, exp in mono:
                kind = akey[0]
                if kind == "exp":
                    kk, rest = _oracle_split_phi_exponent(_key_to_cf(akey[1]))
                    k = kk
                    if rest:
                        atoms.append((("exp", _cf_key(rest)), exp))
                    continue
                if kind == "sym" and akey[1] == "phi":
                    raise OpError("coefficient has a non-periodic phi dependence")
                if kind in ("sin", "cos") and _oracle_cf_mentions(
                        _key_to_cf(akey[1]), "phi"):
                    raise OpError("unreduced trigonometric phi factor")
                atoms.append((akey, exp))
            base = cf_to_expr({tuple(sorted(atoms)): coeff})
            if n:
                freq = Mul(IMAG, Add(psym, Const(-k)))
                base = Mul(base, Pow(freq, n)) if n > 1 else Mul(base, freq)
            out.append(OpTerm(simplify_basic(base), derivs, k))
    return DiffOp(out, param).normalized()


def _reducible_operators():
    raw = su2.build_raw_generators()
    for name, op in raw.pairs():
        yield f"su2 {name}", op, "q"
    yield "su2 casimir", su2.casimir(raw), "q"
    for omega in (None, 1, 2):
        cart = osc3d.cartesian_ladders(omega)
        for name in ("a3", "a3d", "a4", "a4d"):
            yield f"{name} omega={omega}", getattr(cart, name), "m"
        combos = osc3d.build_combos(omega)
        for name in ("A1", "A1d", "A2", "A2d"):
            yield f"{name} omega={omega}", getattr(combos, name), "m"
        yield f"H4 omega={omega}", osc3d.build_H4(omega), "m"
    yield "H4 printed", osc3d.h4_reference(printed=True), "m"


def test_fourier_reduce_matches_cf_walking_oracle():
    for label, op, param in _reducible_operators():
        new = fourier_reduce(op, param)
        old = _oracle_fourier_reduce(op, param)
        assert new.structure_key() == old.structure_key(), label
        assert new.param == old.param == param, label


@pytest.mark.parametrize("coeff", [
    Mul(PHI, Sin(THETA)),
    Exp(Mul(Const(Fraction(3, 2)), IMAG, PHI)),
    Exp(Mul(Const(2), PHI)),
], ids=["outside-exponent", "half-integer", "real-exponent"])
def test_fourier_reduce_rejects_like_the_oracle(coeff):
    op = DiffOp.from_expr(coeff) @ DiffOp.partial("phi")
    for reduce in (fourier_reduce, _oracle_fourier_reduce):
        with pytest.raises(OpError):
            reduce(op, "p")
